"""Checkpoint format tests: bit-exact round trips and corruption handling."""

import struct

import numpy as np
import pytest

from moeformer import CheckpointError
from moeformer.checkpoint import load_checkpoint, load_into, save_checkpoint
from moeformer.tensor import Tensor
from moeformer.training import Adam, TrainConfig, build_model, checkpoint_config_text

from geometry import encoder_of


def small_model(seed=0):
    cfg = encoder_of("quick", noncausal_dims="16,16")
    return cfg, build_model(cfg, num_labels=11, seed=seed)


def test_round_trip_bit_exact(tmp_path):
    cfg, model = small_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.parameters(), path,
                    config_text=checkpoint_config_text(cfg), step=42)
    tensors, config_text, step = load_checkpoint(path)
    assert step == 42
    assert "encoder.feature_dim=8" in config_text
    params = dict(model.parameters())
    assert set(tensors) == set(params)
    for name, p in params.items():
        np.testing.assert_array_equal(tensors[name], p.data)


def test_load_into_restores_model(tmp_path):
    cfg, model = small_model(seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.parameters(), path, step=7)
    _, other = small_model(seed=2)
    before = dict(other.parameters())["head.w"].data.copy()
    _, step = load_into(other.parameters(), path)
    assert step == 7
    for (_, a), (_, b) in zip(model.parameters(), other.parameters()):
        np.testing.assert_array_equal(a.data, b.data)
    assert not np.array_equal(before, dict(other.parameters())["head.w"].data)


def test_load_into_after_adam_is_seen_by_next_step(tmp_path):
    _, source = small_model(seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(source.parameters(), path)
    _, model = small_model(seed=2)
    opt = Adam(model.parameters(), lr=1e-2)
    views = [p.data for _, p in model.parameters()]
    load_into(model.parameters(), path)
    assert all(p.data is view for (_, p), view in zip(model.parameters(), views))
    # the next step starts from the loaded values: it equals the step of an
    # optimizer built on a copy of them
    ref = [(name, Tensor(p.data.copy(), requires_grad=True)) for name, p in source.parameters()]
    twin = Adam(ref, lr=1e-2)
    rng = np.random.default_rng(3)
    for (_, p), (_, q) in zip(model.parameters(), ref):
        p.grad = rng.standard_normal(p.shape).astype(p.dtype)
        q.grad = p.grad.copy()
    opt.step()
    twin.step()
    for (name, p), (_, q) in zip(model.parameters(), ref):
        assert p.data.tobytes() == q.data.tobytes(), name


def test_truncated_file_is_an_error_not_a_crash(tmp_path):
    cfg, model = small_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.parameters(), path)
    blob = path.read_bytes()
    for cut in (3, 10, len(blob) // 2, len(blob) - 5):
        clipped = tmp_path / f"cut{cut}.ckpt"
        clipped.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(clipped)


@pytest.mark.parametrize("record", [bytes([65]), bytes([4]) + struct.pack("<4I", *[1 << 16] * 4)],
                         ids=["rank 65", "dims whose product passes int64"])
def test_malformed_record_is_a_checkpoint_error(tmp_path, record):
    _, model = small_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.parameters(), path)
    first = next(iter(model.parameters()))[0]
    blob = bytearray(path.read_bytes())
    # magic, version, step, empty echo, tensor count, name length, name
    rank_at = 4 + 4 + 8 + 4 + 4 + 2 + len(first)
    blob[rank_at : rank_at + len(record)] = record
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=f"of {first!r}"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_weights_are_refused(tmp_path, value):
    _, model = small_model()
    dict(model.parameters())["head.w"].data[1, 2] = value
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.parameters(), path)
    with pytest.raises(CheckpointError, match="'head.w' holds NaN or inf"):
        load_checkpoint(path)


def test_float64_value_that_float32_rounds_is_refused(tmp_path):
    # 0.1 has no float32 form: saving it used to round it without a word
    path = tmp_path / "model.ckpt"
    weights = [("a", np.zeros(3)), ("head.w", np.array([[0.5, 0.1]]))]
    with pytest.raises(CheckpointError, match="'head.w' \\(float64\\) does not fit float32"):
        save_checkpoint(weights, path)
    assert not path.exists()


def test_float64_values_that_float32_holds_save_exactly(tmp_path):
    path = tmp_path / "model.ckpt"
    exact = np.array([[0.5, -0.0, 3.0, 2.0 ** -20]])
    save_checkpoint([("head.w", exact)], path)
    tensors, _, _ = load_checkpoint(path)
    assert tensors["head.w"].dtype == np.float32
    assert tensors["head.w"].astype(np.float64).tobytes() == exact.tobytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    cfg, model = small_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.parameters(), path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99  # version field
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_shape_mismatch_names_offending_tensor(tmp_path):
    cfg, model = small_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.parameters(), path)
    wider_ffn = encoder_of("quick", noncausal_dims="16,16", ffn_mult=4)
    other = build_model(wider_ffn, num_labels=11, seed=0)
    with pytest.raises(CheckpointError, match="shape mismatch for"):
        load_into(other.parameters(), path)


def test_name_mismatch_reported(tmp_path):
    cfg, model = small_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.parameters(), path)
    moe_cfg = encoder_of("quick", noncausal_dims="16,16", num_experts=3)
    other = build_model(moe_cfg, num_labels=11, seed=0)
    with pytest.raises(CheckpointError, match="names do not match"):
        load_into(other.parameters(), path)
