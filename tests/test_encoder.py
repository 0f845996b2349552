"""Encoder tests: frontend contracts, layer oracle equivalence, streaming
causality, right-context budgets, adapters, and build determinism."""

from pathlib import Path

import numpy as np
import pytest

from moeformer import ConfigError, ParameterError
from moeformer.config import (
    AdapterConfig,
    ConformerLayerConfig,
    EncoderConfig,
    FrontendConfig,
    InputBlockConfig,
    encoder_from_flat,
    parse_kv_file,
)
from moeformer.encoder import (
    build_encoder,
    encoder_forward,
    frame_stack,
    residual_adapter_forward,
    spec_augment,
)
from moeformer.presets import desk_encoder
from moeformer.tensor import Tensor

import oracles

DESK_BALANCE = Path(__file__).resolve().parent.parent / "configs" / "desk" / "balance.cfg"


def tiny_config(rng=None, **overrides):
    kwargs = dict(
        causal_layers=2, causal_dim=16, non_causal_layers=2, non_causal_dim=24,
        heads=2, feature_dim=8, ffn_mult=2, num_experts=2,
    )
    kwargs.update(overrides)
    return desk_encoder(**kwargs)


# --------------------------------------------------------------------------
# frame_stack


def test_frame_stack_hand_trace():
    frames = np.arange(8.0).reshape(4, 2)  # f0..f3
    out = frame_stack(frames, stack=2, downsample=2)
    assert out.shape == (2, 4)
    np.testing.assert_array_equal(out[0], [0.0, 1.0, 0.0, 0.0])  # [f0; zero]
    np.testing.assert_array_equal(out[1], [4.0, 5.0, 2.0, 3.0])  # [f2; f1]


def test_frame_stack_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 3))
    np.testing.assert_array_equal(frame_stack(x, 1, 1), x)


def test_frame_stack_output_count():
    rng = np.random.default_rng(1)
    for t in (1, 2, 5, 7, 12):
        for ds in (1, 2, 3):
            out = frame_stack(rng.standard_normal((t, 4)), stack=3, downsample=ds)
            assert out.shape == (int(np.ceil(t / ds)), 12)


def test_frame_stack_empty_input():
    out = frame_stack(np.zeros((0, 4)), stack=2, downsample=2)
    assert out.shape == (0, 8)


def test_frame_stack_invalid_args():
    with pytest.raises(ParameterError):
        frame_stack(np.zeros((3, 2)), stack=0, downsample=1)


# --------------------------------------------------------------------------
# spec_augment


def test_spec_augment_zero_width_masks_leave_input():
    class ZeroRng:
        def integers(self, lo, hi):
            return 0

    x = np.random.default_rng(2).standard_normal((20, 10))
    out = spec_augment(x, ZeroRng())
    np.testing.assert_array_equal(out, x)


def test_spec_augment_unmasked_cells_identical_and_bounded():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 12))
    out = spec_augment(x, np.random.default_rng(7))
    changed = out != x
    assert np.all(out[~changed] == x[~changed])
    assert np.all(out[changed] == 0.0)
    assert changed.sum() <= 2 * 27 * 60 + 2 * 50 * 12


def test_spec_augment_deterministic_under_seed():
    x = np.random.default_rng(4).standard_normal((30, 8))
    a = spec_augment(x, np.random.default_rng(11))
    b = spec_augment(x, np.random.default_rng(11))
    np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------------
# layer equivalence oracles


def _first_noncausal_params(model, index=0):
    prefix = f"noncausal.{index}."
    return {
        name[len(prefix):]: p.data
        for name, p in model.parameters()
        if name.startswith(prefix)
    }


def test_plain_layer_matches_independent_oracle():
    cfg = tiny_config(moe_placement="none", num_experts=0)
    model = build_encoder(cfg, seed=5, dtype=np.float64)
    layer = model.non_causal_layers[0]
    t, d = 9, layer.cfg.model_dim
    rng = np.random.default_rng(6)
    x = rng.standard_normal((t, d))
    mask = oracles.attention_window_mask(t, layer.cfg.left_context, layer.cfg.right_context)

    got = layer.forward(Tensor(x[None]), mask, None).data[0]
    expected = oracles.plain_conformer_layer(
        x, _first_noncausal_params(model), layer.cfg.heads, mask
    )
    np.testing.assert_allclose(got, expected, atol=1e-6)


def test_moe_end_layer_matches_dense_two_expert_oracle():
    cfg = tiny_config(moe_placement="end", num_experts=2)
    model = build_encoder(cfg, seed=7, dtype=np.float64)
    layer = model.non_causal_layers[0]
    # zero-init gates route uniformly; give them structure for a sharper test
    rng = np.random.default_rng(8)
    moe = layer.end.moe
    moe.gate_w.data[...] = rng.standard_normal(moe.gate_w.shape)
    t, d = 11, layer.cfg.model_dim
    x = rng.standard_normal((t, d))
    mask = oracles.attention_window_mask(t, layer.cfg.left_context, layer.cfg.right_context)

    got = layer.forward(Tensor(x[None]), mask, None).data[0]
    params = _first_noncausal_params(model)
    experts = [
        (params[f"moe_end.expert{i}.w1"], params[f"moe_end.expert{i}.b1"],
         params[f"moe_end.expert{i}.w2"], params[f"moe_end.expert{i}.b2"])
        for i in range(2)
    ]
    expected = oracles.plain_conformer_layer(
        x, params, layer.cfg.heads, mask,
        moe_end_experts=experts, gate_w=params["moe_end.gate_w"],
    )
    np.testing.assert_allclose(got, expected, atol=1e-6)


# --------------------------------------------------------------------------
# streaming invariants


def test_causal_stack_prefix_stability():
    # the tiny geometry's sequences fit in one attention block; the desk
    # geometry streamed in 160-frame chunks runs attention over many blocks,
    # and its 60-frame prefix is one block where the full forward has many
    cases = [
        (tiny_config(), 9, 40, [24]),
        (encoder_from_flat(parse_kv_file(DESK_BALANCE)), 3, 640, [60, 160, 320, 480]),
    ]
    for cfg, seed, total, prefixes in cases:
        model = build_encoder(cfg, seed=seed)
        rng = np.random.default_rng(seed + 1)
        raw = rng.standard_normal((total, cfg.frontend.feature_dim)).astype(np.float32)
        long, _ = encoder_forward(model, raw, mode="causal_only")
        for end in prefixes:
            short, _ = encoder_forward(model, raw[:end], mode="causal_only")
            np.testing.assert_array_equal(short.data, long.data[: short.shape[0]])


def test_causal_stack_future_perturbation_exact():
    cfg = tiny_config()
    model = build_encoder(cfg, seed=11)
    rng = np.random.default_rng(12)
    raw = rng.standard_normal((32, cfg.frontend.feature_dim)).astype(np.float32)
    base, _ = encoder_forward(model, raw, mode="causal_only")
    ds = cfg.frontend.downsample
    perturb_at = 21  # raw index
    bumped = raw.copy()
    bumped[perturb_at:] += 3.0
    out, _ = encoder_forward(model, bumped, mode="causal_only")
    # output j consumes raw frames <= (2j + 1) * ds; frames strictly before
    # the perturbation are bit-identical
    safe = [j for j in range(base.shape[0]) if (2 * j + 1) * ds < perturb_at]
    assert safe
    np.testing.assert_array_equal(base.data[: len(safe)], out.data[: len(safe)])


def test_cascaded_right_context_budget_exact():
    cfg = tiny_config()
    model = build_encoder(cfg, seed=13)
    total_right = cfg.right_context_total
    rng = np.random.default_rng(14)
    raw = rng.standard_normal((48, cfg.frontend.feature_dim)).astype(np.float32)
    base, _ = encoder_forward(model, raw, mode="cascaded")
    ds = cfg.frontend.downsample
    perturb_at = 36
    bumped = raw.copy()
    bumped[perturb_at:] += 2.0
    out, _ = encoder_forward(model, bumped, mode="cascaded")
    safe = [
        j for j in range(base.shape[0])
        if (2 * (j + total_right) + 1) * ds < perturb_at
    ]
    assert safe
    np.testing.assert_array_equal(base.data[: len(safe)], out.data[: len(safe)])


def test_streaming_invariants_random_configs():
    rng = np.random.default_rng(15)
    for trial in range(6):
        heads = int(rng.integers(1, 3))
        cfg = desk_encoder(
            causal_layers=int(rng.integers(1, 3)),
            causal_dim=8 * heads * int(rng.integers(1, 3)),
            non_causal_layers=int(rng.integers(1, 3)),
            non_causal_dim=8 * heads,
            heads=heads,
            feature_dim=int(rng.integers(4, 9)),
            ffn_mult=2,
            num_experts=int(rng.integers(2, 4)),
        )
        model = build_encoder(cfg, seed=trial)
        raw = rng.standard_normal((40, cfg.frontend.feature_dim)).astype(np.float32)
        short, _ = encoder_forward(model, raw[:28], mode="causal_only")
        long, _ = encoder_forward(model, raw, mode="causal_only")
        np.testing.assert_array_equal(short.data, long.data[: short.shape[0]])


def test_zero_length_input():
    cfg = tiny_config()
    model = build_encoder(cfg, seed=16)
    out, _ = encoder_forward(
        model, np.zeros((0, cfg.frontend.feature_dim), dtype=np.float32)
    )
    assert out.shape[0] == 0


# --------------------------------------------------------------------------
# construction


def test_build_determinism():
    cfg = tiny_config()
    a = build_encoder(cfg, seed=21)
    b = build_encoder(cfg, seed=21)
    pa, pb = dict(a.parameters()), dict(b.parameters())
    assert pa.keys() == pb.keys()
    for name in pa:
        np.testing.assert_array_equal(pa[name].data, pb[name].data)


def test_build_seed_changes_parameters():
    cfg = tiny_config()
    a = build_encoder(cfg, seed=21)
    b = build_encoder(cfg, seed=22)
    assert any(
        not np.array_equal(pa.data, pb.data)
        for (_, pa), (_, pb) in zip(a.parameters(), b.parameters())
        if pa.size and pa.data.any()
    )


def test_selector_first_only_yields_one_moe_layer():
    cfg = tiny_config(non_causal_layers=4, moe_selector="first_only")
    model = build_encoder(cfg, seed=23)
    assert len(model.moe_layers()) == 1
    assert model.non_causal_layers[0].moe_blocks()
    assert not model.non_causal_layers[1].moe_blocks()


def test_selector_odd_on_ten_layers_yields_five():
    cfg = desk_encoder(
        non_causal_layers=10, non_causal_dim=16, heads=2, causal_layers=1,
        causal_dim=16, feature_dim=8, ffn_mult=2, num_experts=2, moe_selector="odd",
    )
    model = build_encoder(cfg, seed=24)
    assert len(model.moe_layers()) == 5
    flagged = [bool(l.moe_blocks()) for l in model.non_causal_layers]
    assert flagged == [False, True] * 5


def test_gate_zero_init_routes_uniformly():
    cfg = tiny_config(moe_placement="end", num_experts=4)
    model = build_encoder(cfg, seed=25)
    raw = np.random.default_rng(26).standard_normal((24, cfg.frontend.feature_dim))
    _, decisions = encoder_forward(model, raw.astype(np.float32), collect_routing=True)
    for d in decisions:
        np.testing.assert_allclose(d.gates.data, 1.0 / d.num_experts, atol=1e-6)


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        ConformerLayerConfig(model_dim=10, heads=4).validate()
    with pytest.raises(ConfigError):
        ConformerLayerConfig(model_dim=8, heads=2, causal=True, right_context=3).validate()
    with pytest.raises(ConfigError):
        ConformerLayerConfig(model_dim=8, heads=2, moe_placement="end", num_experts=1).validate()
    cfg = tiny_config()
    cfg.stack_after = 99
    with pytest.raises(ConfigError):
        build_encoder(cfg, seed=0)


# --------------------------------------------------------------------------
# adapters


def adapter_config(**overrides):
    return tiny_config(adapters=AdapterConfig(dim=12, num_groups=3), **overrides)


def test_adapter_identity_at_init():
    cfg = adapter_config()
    plain = build_encoder(tiny_config(), seed=31)
    adapted = build_encoder(cfg, seed=31)
    raw = np.random.default_rng(32).standard_normal((24, cfg.frontend.feature_dim))
    raw = raw.astype(np.float32)
    base, _ = encoder_forward(plain, raw)
    langs = np.array([1])
    out, _ = encoder_forward(adapted, raw, language_ids=langs)
    np.testing.assert_array_equal(base.data, out.data)


def test_adapter_groups_diverge_after_training_signal():
    cfg = adapter_config()
    model = build_encoder(cfg, seed=33)
    rng = np.random.default_rng(34)
    # give the adapters distinct nonzero up-projections
    for bank in model.adapter_banks:
        for group in bank.groups:
            group.up.w.data[...] = rng.standard_normal(group.up.w.shape).astype(np.float32)
    raw = rng.standard_normal((2, 24, cfg.frontend.feature_dim)).astype(np.float32)
    out0, _ = encoder_forward(model, raw, language_ids=np.array([0, 0]))
    out1, _ = encoder_forward(model, raw, language_ids=np.array([1, 1]))
    assert not np.allclose(out0.data, out1.data)


def test_adapter_parameter_count_closed_form():
    cfg = adapter_config()
    model = build_encoder(cfg, seed=35)
    d = cfg.non_causal[0].model_dim
    a = cfg.adapters.dim
    for bank in model.adapter_banks:
        for group in bank.groups:
            count = sum(p.size for _, p in group.parameters())
            assert count == 2 * d * a + a + d


def test_adapter_unknown_group_rejected():
    cfg = adapter_config()
    model = build_encoder(cfg, seed=36)
    bank = model.adapter_banks[0]
    with pytest.raises(ParameterError):
        residual_adapter_forward(Tensor(np.zeros((1, 4, 24), dtype=np.float32)), 7, bank)
    raw = np.zeros((2, 12, cfg.frontend.feature_dim), dtype=np.float32)
    with pytest.raises(ParameterError):
        encoder_forward(model, raw, language_ids=np.array([0, 5]))


def test_adapter_missing_language_ids_rejected():
    cfg = adapter_config()
    model = build_encoder(cfg, seed=37)
    raw = np.zeros((12, cfg.frontend.feature_dim), dtype=np.float32)
    with pytest.raises(ParameterError):
        encoder_forward(model, raw)
