"""Encoder tests: frontend contracts, layer oracle equivalence, streaming
causality, right-context budgets, adapters, and build determinism."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from moeformer import ConfigError, ParameterError
from moeformer.config import ConformerLayerConfig
from moeformer.encoder import (
    AdapterBank,
    attention_window_mask,
    build_encoder,
    frame_stack,
)
from moeformer.training import build_model
from moeformer.tensor import Tensor, mean, no_grad

import oracles
from geometry import encoder_of

TWO_CAUSAL = encoder_of("quick", causal_dims="16,16")


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
# layer equivalence oracles


def noncausal_layers(model):
    return [layer for layer in model.layers if not layer.cfg.causal]


def _first_noncausal_params(model, index=0):
    prefix = f"noncausal.{index}."
    return {
        name[len(prefix):]: p.data
        for name, p in model.parameters()
        if name.startswith(prefix)
    }


@pytest.mark.parametrize("frames", [0, 1, 2, 7, 40])
def test_attention_window_mask_matches_index_grid_oracle(frames):
    # windows narrower than, equal to and wider than the sequence
    for left, right in [(0, 0), (3, 0), (0, 2), (16, 2), (frames, frames), (50, 60)]:
        got = attention_window_mask(frames, left, right)
        want = oracles.attention_window_mask(frames, left, right)
        assert got.shape == want.shape == (frames, frames)
        assert got.dtype == want.dtype == bool
        np.testing.assert_array_equal(got, want)


def test_plain_layer_matches_independent_oracle():
    cfg = encoder_of("quick", causal_dims="16,16", moe_placement="none")
    model = build_encoder(cfg, seed=5, dtype=np.float64)
    layer = noncausal_layers(model)[0]
    t, d = 9, layer.cfg.model_dim
    rng = np.random.default_rng(6)
    x = rng.standard_normal((t, d))
    mask = oracles.attention_window_mask(t, layer.cfg.left_context, layer.cfg.right_context)

    got = layer.forward(Tensor(x[None]), mask, []).data[0]
    expected = oracles.plain_conformer_layer(
        x, _first_noncausal_params(model), layer.cfg.heads, mask
    )
    np.testing.assert_allclose(got, expected, atol=1e-6)


def test_moe_end_layer_matches_dense_two_expert_oracle():
    cfg = TWO_CAUSAL
    model = build_encoder(cfg, seed=7, dtype=np.float64)
    layer = noncausal_layers(model)[0]
    # zero-init gates route uniformly; give them structure for a sharper test
    rng = np.random.default_rng(8)
    moe = layer.end.moe
    moe.gate_w.data[...] = rng.standard_normal(moe.gate_w.shape)
    t, d = 11, layer.cfg.model_dim
    x = rng.standard_normal((t, d))
    mask = oracles.attention_window_mask(t, layer.cfg.left_context, layer.cfg.right_context)

    got = layer.forward(Tensor(x[None]), mask, []).data[0]
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
    # the two-layer geometry's sequences fit in one attention block; the desk
    # geometry streamed in 160-frame chunks runs attention over many blocks,
    # its 60-frame prefix is one block where the full forward has many, and
    # its 4-frame prefix is one encoder frame (every matmul has one row)
    cases = [
        (TWO_CAUSAL, 9, 40, [24]),
        (encoder_of("balance"), 3, 640, [4, 60, 160, 320, 480]),
    ]
    for cfg, seed, total, prefixes in cases:
        model = build_encoder(cfg, seed=seed)
        rng = np.random.default_rng(seed + 1)
        raw = rng.standard_normal((total, cfg.frontend.feature_dim)).astype(np.float32)
        long, _ = model.forward(raw, mode="causal_only")
        for end in prefixes:
            short, _ = model.forward(raw[:end], mode="causal_only")
            np.testing.assert_array_equal(short.data, long.data[: short.shape[0]])


def test_causal_stack_future_perturbation_exact():
    cfg = TWO_CAUSAL
    model = build_encoder(cfg, seed=11)
    rng = np.random.default_rng(12)
    raw = rng.standard_normal((32, cfg.frontend.feature_dim)).astype(np.float32)
    base, _ = model.forward(raw, mode="causal_only")
    ds = cfg.frontend.downsample
    perturb_at = 21  # raw index
    bumped = raw.copy()
    bumped[perturb_at:] += 3.0
    out, _ = model.forward(bumped, mode="causal_only")
    # output j consumes raw frames <= (2j + 1) * ds; frames strictly before
    # the perturbation are bit-identical
    safe = [j for j in range(base.shape[0]) if (2 * j + 1) * ds < perturb_at]
    assert safe
    np.testing.assert_array_equal(base.data[: len(safe)], out.data[: len(safe)])


def test_cascaded_right_context_budget_exact():
    cfg = TWO_CAUSAL
    model = build_encoder(cfg, seed=13)
    total_right = cfg.right_context_total
    rng = np.random.default_rng(14)
    raw = rng.standard_normal((48, cfg.frontend.feature_dim)).astype(np.float32)
    base, _ = model.forward(raw, mode="cascaded")
    ds = cfg.frontend.downsample
    perturb_at = 36
    bumped = raw.copy()
    bumped[perturb_at:] += 2.0
    out, _ = model.forward(bumped, mode="cascaded")
    safe = [
        j for j in range(base.shape[0])
        if (2 * (j + total_right) + 1) * ds < perturb_at
    ]
    assert safe
    np.testing.assert_array_equal(base.data[: len(safe)], out.data[: len(safe)])


def test_cascaded_stream_at_the_benchmark_geometry_is_exact():
    # a 2000-frame utterance in 160-frame chunks, each re-encoding its
    # prefix: attention runs over many blocks (500 frames at the layers)
    # and every emitted frame equals the full forward bit for bit
    cfg = encoder_of("balance")
    model = build_encoder(cfg, seed=17)
    rng = np.random.default_rng(18)
    for moe in model.moe_layers():
        moe.gate_w.data[...] = rng.standard_normal(moe.gate_w.shape)
    raw = rng.standard_normal((2000, cfg.frontend.feature_dim)).astype(np.float32)
    hold = cfg.right_context_total
    with no_grad():
        full, _ = model.forward(raw)
        emitted = 0
        for end in range(160, 2000, 160):
            out, _ = model.forward(raw[:end])
            final = out.shape[0] - hold
            np.testing.assert_array_equal(out.data[emitted:final], full.data[emitted:final])
            emitted = max(emitted, final)
    assert emitted == 474  # of 500; the last chunk is the full forward


def test_a_tape_recording_long_forward_holds_less_than_the_banded_ops_did():
    # the attention nodes keep their weights and normalizer, not the padded
    # operand blocks: a 2000-frame forward held 84.5 MB with them, 80.0 MB
    # without
    cfg = encoder_of("balance")
    model = build_encoder(cfg, seed=19)
    raw = np.random.default_rng(20).standard_normal(
        (2000, cfg.frontend.feature_dim)).astype(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out, _ = model.forward(raw)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert held < 82 * 2**20, held / 2**20


def test_position_table_slices_equal_the_direct_formula():
    rng = np.random.default_rng(21)
    for dtype in (np.float32, np.float64):
        model = build_encoder(TWO_CAUSAL, seed=22, dtype=dtype)
        width = TWO_CAUSAL.frontend.stacked_dim
        for t in [0, *rng.permutation(1201)]:  # 0 first: the table as built
            table = model.position_table(int(t))
            want = oracles.positional_encoding(int(t), width, dtype)
            assert table.dtype == want.dtype and table.tobytes() == want.tobytes(), t
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0


def test_streaming_invariants_random_configs():
    rng = np.random.default_rng(15)
    for trial in range(6):
        heads = int(rng.integers(1, 3))
        causal_layers = int(rng.integers(1, 3))
        width = 8 * heads * int(rng.integers(1, 3))
        layers = int(rng.integers(1, 3))
        cfg = encoder_of(
            "quick", input_dim=width // 2, causal_dims=",".join([str(width)] * causal_layers),
            noncausal_dims=",".join([str(8 * heads)] * layers),
            right_contexts=("3", "2,2")[layers - 1], heads=heads,
            feature_dim=int(rng.integers(4, 9)), num_experts=int(rng.integers(2, 4)))
        model = build_encoder(cfg, seed=trial)
        raw = rng.standard_normal((40, cfg.frontend.feature_dim)).astype(np.float32)
        short, _ = model.forward(raw[:28], mode="causal_only")
        long, _ = model.forward(raw, mode="causal_only")
        np.testing.assert_array_equal(short.data, long.data[: short.shape[0]])


def test_zero_length_input():
    cfg = TWO_CAUSAL
    model = build_encoder(cfg, seed=16)
    out, _ = model.forward(np.zeros((0, cfg.frontend.feature_dim), dtype=np.float32))
    assert out.shape[0] == 0


# --------------------------------------------------------------------------
# construction


def test_build_determinism():
    cfg = TWO_CAUSAL
    a = build_encoder(cfg, seed=21)
    b = build_encoder(cfg, seed=21)
    pa, pb = dict(a.parameters()), dict(b.parameters())
    assert pa.keys() == pb.keys()
    for name in pa:
        np.testing.assert_array_equal(pa[name].data, pb[name].data)


def _held_parameters(root, skip):
    """Every requires-grad leaf tensor reachable from ``root`` through the
    attributes of package objects, lists and tuples, except through ``skip``."""
    held, seen, stack = {}, {id(skip)}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            if obj.requires_grad and not obj._parents:
                held[id(obj)] = obj
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("moeformer."):
            stack.extend(vars(obj).values())
    return held


def test_parameter_list_holds_every_module_tensor():
    # layers, blocks, experts, adapter groups, projections, input convs, head
    cfg = encoder_of("balance", adapter_dim=12, adapter_groups=3)
    model = build_model(cfg, num_labels=5, seed=40)
    named = list(model.parameters())
    held = _held_parameters(model, skip=model.encoder._params)
    assert len({name for name, _ in named}) == len(named) == len(held)
    assert {id(p) for _, p in named} == held.keys()


def test_build_seed_changes_parameters():
    cfg = TWO_CAUSAL
    a = build_encoder(cfg, seed=21)
    b = build_encoder(cfg, seed=22)
    assert any(
        not np.array_equal(pa.data, pb.data)
        for (_, pa), (_, pb) in zip(a.parameters(), b.parameters())
        if pa.size and pa.data.any()
    )


def test_selector_first_only_yields_one_moe_layer():
    cfg = encoder_of("quick", causal_dims="16,16", noncausal_dims="24,24,24,24",
                     right_contexts="2,2,1,1", moe_selector="first_only")
    model = build_encoder(cfg, seed=23)
    assert len(model.moe_layers()) == 1
    assert noncausal_layers(model)[0].moe_blocks()
    assert not noncausal_layers(model)[1].moe_blocks()


def test_selector_odd_on_ten_layers_yields_five():
    cfg = encoder_of("quick", noncausal_dims=",".join(["16"] * 10),
                     right_contexts="2,2" + ",1" * 8, moe_selector="odd")
    model = build_encoder(cfg, seed=24)
    assert len(model.moe_layers()) == 5
    flagged = [bool(l.moe_blocks()) for l in noncausal_layers(model)]
    assert flagged == [False, True] * 5


def test_gate_zero_init_routes_uniformly():
    cfg = encoder_of("quick", causal_dims="16,16", num_experts=4)
    model = build_encoder(cfg, seed=25)
    raw = np.random.default_rng(26).standard_normal((24, cfg.frontend.feature_dim))
    _, decisions = model.forward(raw.astype(np.float32))
    for d in decisions:
        np.testing.assert_allclose(d.gates.data, 1.0 / d.num_experts, atol=1e-6)


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        ConformerLayerConfig(model_dim=10, heads=4).validate()
    with pytest.raises(ConfigError):
        ConformerLayerConfig(model_dim=8, heads=2, causal=True, right_context=3).validate()
    with pytest.raises(ConfigError):
        ConformerLayerConfig(model_dim=8, heads=2, moe_placement="end", num_experts=1).validate()


def test_encoder_without_layers_rejected():
    cfg = replace(TWO_CAUSAL, causal=[], non_causal=[])
    with pytest.raises(ConfigError, match="at least one Conformer layer"):
        build_encoder(cfg, seed=0)


# --------------------------------------------------------------------------
# adapters


ADAPTED = encoder_of("quick", causal_dims="16,16", adapter_dim=12, adapter_groups=3)


def test_adapter_identity_at_init():
    cfg = ADAPTED
    plain = build_encoder(TWO_CAUSAL, seed=31)
    adapted = build_encoder(cfg, seed=31)
    raw = np.random.default_rng(32).standard_normal((24, cfg.frontend.feature_dim))
    raw = raw.astype(np.float32)
    base, _ = plain.forward(raw)
    langs = np.array([1])
    out, _ = adapted.forward(raw, language_ids=langs)
    np.testing.assert_array_equal(base.data, out.data)


def test_adapter_groups_diverge_after_training_signal():
    cfg = ADAPTED
    model = build_encoder(cfg, seed=33)
    rng = np.random.default_rng(34)
    # give the adapters distinct nonzero up-projections
    for bank in model.adapter_banks:
        for group in bank.groups:
            group.up.w.data[...] = rng.standard_normal(group.up.w.shape).astype(np.float32)
    raw = rng.standard_normal((2, 24, cfg.frontend.feature_dim)).astype(np.float32)
    out0, _ = model.forward(raw, language_ids=np.array([0, 0]))
    out1, _ = model.forward(raw, language_ids=np.array([1, 1]))
    assert not np.allclose(out0.data, out1.data)


def test_adapter_parameter_count_closed_form():
    cfg = ADAPTED
    model = build_encoder(cfg, seed=35)
    d = cfg.non_causal[0].model_dim
    a = cfg.adapters.dim
    params = model.parameters()
    for j in range(len(cfg.non_causal)):
        for g in range(cfg.adapters.num_groups):
            prefix = f"adapters.{j}.group{g}."
            count = sum(p.size for name, p in params if name.startswith(prefix))
            assert count == 2 * d * a + a + d


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adapter_dispatch_matches_per_group_oracle(monkeypatch, dtype):
    cfg = ADAPTED
    raw = np.random.default_rng(38).standard_normal((4, 24, cfg.frontend.feature_dim))
    ids = np.array([2, 0, 2, 2])  # group 1 absent, group 0 holds one sequence

    def run():
        model = build_encoder(cfg, seed=38, dtype=dtype)
        rng = np.random.default_rng(39)
        for bank in model.adapter_banks:
            for group in bank.groups:
                group.up.w.data[...] = rng.standard_normal(group.up.w.shape)
        out, _ = model.forward(raw.astype(dtype), language_ids=ids)
        mean(out * out).backward()
        return model, out.data, {name: p.grad for name, p in model.parameters()}

    model, out, grads = run()
    frames = out.shape[1]
    for bank in model.adapter_banks:
        assert bank.usage.tolist() == [frames, 0, 3 * frames]
    with monkeypatch.context() as m:
        m.setattr(AdapterBank, "forward", oracles.per_group_adapters)
        _, oracle_out, oracle_grads = run()
    np.testing.assert_array_equal(out, oracle_out)
    assert grads.keys() == oracle_grads.keys()
    for name, grad in grads.items():
        if grad is None:
            assert oracle_grads[name] is None, name
        else:
            np.testing.assert_array_equal(grad, oracle_grads[name], err_msg=name)
    assert all(grads[n] is None for n in grads if n.startswith("adapters.0.group1."))


def test_adapter_unknown_group_rejected():
    cfg = ADAPTED
    model = build_encoder(cfg, seed=36)
    bank = model.adapter_banks[0]
    with pytest.raises(ParameterError):
        bank.forward(Tensor(np.zeros((1, 4, 24), dtype=np.float32)), np.array([7]))
    raw = np.zeros((2, 12, cfg.frontend.feature_dim), dtype=np.float32)
    with pytest.raises(ParameterError):
        model.forward(raw, language_ids=np.array([0, 5]))


def test_adapter_missing_language_ids_rejected():
    cfg = ADAPTED
    model = build_encoder(cfg, seed=37)
    raw = np.zeros((12, cfg.frontend.feature_dim), dtype=np.float32)
    with pytest.raises(ParameterError):
        model.forward(raw)
