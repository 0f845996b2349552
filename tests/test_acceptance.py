"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with its
measured values. Criteria 1-3 count the shipped ``configs/reference/``
files, calibrated once (``geometry.calibrated_family``); the desk-scale
training run backing criteria 7 and 8 runs ``configs/desk/balance.cfg``
once as a module fixture, and criterion 9 runs ``configs/desk/compare.cfg``.
The small models of criteria 4, 5 and 10 are ``configs/desk/quick.cfg``
with keys overridden.

No other test repeats a criterion's check. One unit test overlaps one:
``test_encoder::test_streaming_invariants_random_configs`` (criterion 10)
alone sees an output that depends on the utterance's length rather than on
its future frames.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from pathlib import Path

import numpy as np
import pytest

import oracles
from fdiff import assert_grads_close
from geometry import REFERENCE_SIZES_M, calibrated_family, encoder_of, task_of

from moeformer.accounting import count_params
from moeformer.checkpoint import load_checkpoint, save_checkpoint
from moeformer.cli import main as cli_main
from moeformer.config import encoder_from_flat, parse_kv_file
from moeformer.encoder import build_encoder
from moeformer.evaluation import compare_adapter_vs_moe, evaluate
from moeformer.moe import MoELayer, aux_load_balance_loss, route_top2
from moeformer.synth import task_from_flat
from moeformer.tensor import Tensor, mean, sum_
from moeformer.training import TrainConfig, build_model, metrics_line, train, train_from_flat

REPO = Path(__file__).resolve().parent.parent


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:>2}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------------------
# the desk-scale training run shared by criteria 7 and 8


@pytest.fixture(scope="module")
def balance_run():
    raw = parse_kv_file(REPO / "configs" / "desk" / "balance.cfg")
    encoder_cfg, task, train_cfg = (encoder_from_flat(raw), task_from_flat(raw),
                                    train_from_flat(raw))
    fresh = build_model(encoder_cfg, task.num_labels, train_cfg.seed, np.float32)
    untrained = evaluate(fresh, task, num_batches=20, batch_size=24)
    model, _ = train(encoder_cfg, task, train_cfg)
    trained = evaluate(model, task, num_batches=20, batch_size=24)
    return encoder_cfg, train_cfg, untrained, trained


# --------------------------------------------------------------------------
# 1-3: accounting


def test_criterion_1_reference_absolutes():
    family, remainder = calibrated_family()
    details = []
    ok = True
    for key in ("e2", "e3", "e5"):
        rep = count_params(family[key])
        total = rep.total_params + remainder
        inference = rep.inference_params + remainder
        pub_total, pub_inf = (m * 1_000_000 for m in REFERENCE_SIZES_M[key])
        err_t = abs(total - pub_total) / pub_total
        err_i = abs(inference - pub_inf) / pub_inf
        ok &= err_t <= 0.05 and err_i <= 0.05
        details.append(f"{key}: total {total/1e6:.1f}M vs {pub_total/1e6:.0f}M "
                       f"({100*err_t:.2f}%), inf {inference/1e6:.1f}M vs "
                       f"{pub_inf/1e6:.0f}M ({100*err_i:.2f}%)")
    report(1, ok, "; ".join(details))


def test_criterion_2_reference_deltas():
    family, _ = calibrated_family()
    e8 = count_params(family["e8"]).total_params
    e9 = count_params(family["e9"]).total_params
    e10 = count_params(family["e10"]).total_params
    closed = 8 * (6 * 640**2 + 4 * 640) * 10
    gates = 8 * 640 * 10  # the gate gains one column per expert in each routed layer
    inc1, inc2 = e9 - e8, e10 - e9
    ok = (
        inc1 == inc2 == closed + gates
        and abs(inc1 - closed) / closed <= 0.02
        and abs(inc2 - closed) / closed <= 0.02
        and abs(inc1 - 196e6) / 196e6 <= 0.02
        and abs(inc2 - 197e6) / 197e6 <= 0.02
    )
    delta = count_params(family["e2"]).total_params - count_params(family["b1"]).total_params
    closed_e2 = 7 * (8 * 640**2 + 5 * 640) * 10
    ok &= (abs(delta - 220e6) / 220e6 <= 0.05 and abs(delta - closed_e2) / closed_e2 <= 0.01
           and abs(delta - closed_e2) <= gates)
    report(2, ok, f"expert increments {inc1/1e6:.1f}M/{inc2/1e6:.1f}M = closed form "
                  f"{closed/1e6:.1f}M + gate columns {gates/1e6:.2f}M; end-routing delta "
                  f"{delta/1e6:.1f}M vs 220M and vs closed form {closed_e2/1e6:.1f}M")


def test_criterion_3_activation_ratio():
    family, remainder = calibrated_family()
    rep = count_params(family["e2"])
    ratio = (rep.inference_params + remainder) / (rep.total_params + remainder)
    report(3, 0.50 <= ratio <= 0.56, f"inference/total = {ratio:.4f} in [0.50, 0.56]")


# --------------------------------------------------------------------------
# 4: gradient correctness


def _random_graph_case(rng):
    """One randomized op-composition gradient check, 64-bit."""
    from moeformer.tensor import (
        causal_depthwise_conv, concat, glu, layer_norm, log_softmax, masked_attention,
        matmul, softmax, swish, take_index_last,
    )

    d = int(rng.integers(3, 7))
    t = int(rng.integers(2, 6))
    kind = rng.integers(4)
    if kind == 0:
        w1 = Tensor(rng.standard_normal((d, 2 * d)), requires_grad=True)
        w2 = Tensor(rng.standard_normal((2 * d, d)), requires_grad=True)
        x = Tensor(rng.standard_normal((t, d)))
        fn = lambda: mean(softmax(matmul(swish(matmul(x, w1)), w2), axis=-1)
                          * matmul(swish(matmul(x, w1)), w2))
        return fn, {"w1": w1, "w2": w2}
    if kind == 1:
        g = Tensor(np.ones(d), requires_grad=True)
        b = Tensor(rng.standard_normal(d), requires_grad=True)
        cw = Tensor(rng.standard_normal((3, d)), requires_grad=True)
        cb = Tensor(rng.standard_normal(d), requires_grad=True)
        x = Tensor(rng.standard_normal((1, t, d)))

        def fn():
            h = causal_depthwise_conv(x, cw, cb)
            normed = layer_norm(h, g, b)
            return mean(glu(concat([h, normed], axis=-1)))  # h * sigmoid(normed)

        return fn, {"g": g, "b": b, "cw": cw, "cb": cb}
    if kind == 2:
        h = 2
        dh = d  # head dim
        q = Tensor(rng.standard_normal((1, h, t, dh)), requires_grad=True)
        k = Tensor(rng.standard_normal((1, h, t, dh)), requires_grad=True)
        v = Tensor(rng.standard_normal((1, h, t, dh)), requires_grad=True)
        rows, cols = np.indices((t, t))
        mask = cols <= rows
        fn = lambda: mean(masked_attention(q, k, v, mask)
                          * masked_attention(q, k, v, mask))
        return fn, {"q": q, "k": k, "v": v}
    w = Tensor(rng.standard_normal((d, d + 2)), requires_grad=True)
    x = Tensor(rng.standard_normal((t, d)))
    labels = rng.integers(0, d + 2, size=t)
    fn = lambda: -mean(take_index_last(log_softmax(matmul(x, w), axis=-1), labels))
    return fn, {"w": w}


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(404)
    checked = 0
    for _ in range(19):
        fn, params = _random_graph_case(rng)
        assert_grads_close(fn, params, rel_tol=1e-4)
        checked += 1

    # a full expert-routed conformer layer, end to end in 64-bit
    cfg = encoder_of("quick", feature_dim=4, input_dim=4, causal_dims="8", noncausal_dims="8",
                     right_contexts="3", num_experts=3, expert_mult=2)
    model = build_encoder(cfg, seed=7, dtype=np.float64)
    # move the zero-initialized gates off the routing tie boundary: central
    # differences are only valid where the top-2 selection is locally constant
    for moe in model.moe_layers():
        moe.gate_w.data = rng.standard_normal(moe.gate_w.shape) * 0.5
    feats = rng.standard_normal((1, 12, 4))
    # a random projection of the output: behind the final layer norm's unit
    # gain and zero bias, mean(out * out) is ~1 whatever the other weights,
    # so their gradients would be ~1e-5, under the tolerance
    probe = Tensor(rng.standard_normal(model.forward(feats)[0].shape))

    def layer_loss():
        out, _ = model.forward(feats)
        return sum_(out * probe)

    params = dict(model.parameters())
    assert_grads_close(layer_loss, params, rel_tol=1e-4)
    checked += 1
    report(4, checked >= 20,
           f"{checked} randomized graphs incl. a full expert-routed layer, "
           f"rel err < 1e-4 (64-bit, central differences)")


# --------------------------------------------------------------------------
# 5: sparse-dense equivalence


def _random_moe_layer(rng, d, n, mult=2):
    def p(*shape):
        return Tensor(rng.standard_normal(shape) * 0.4, requires_grad=True)

    from moeformer.moe import ExpertFFN

    experts = [ExpertFFN(p(d, mult * d), p(mult * d), p(mult * d, d), p(d))
               for _ in range(n)]
    return MoELayer(p(d, n), experts)


def test_criterion_5_sparse_dense_equivalence(monkeypatch):
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(3, 9))
        n = int(rng.integers(2, 7))
        layer = _random_moe_layer(rng, d, n)
        x = Tensor(rng.standard_normal((int(rng.integers(1, 25)), d)))
        y, _ = layer.forward(x)
        expected = oracles.dense_zeroed_mixture(
            x.data, layer.gate_w.data,
            [(e.w1.data, e.b1.data, e.w2.data, e.b2.data) for e in layer.experts],
        )
        worst = max(worst, float(np.abs(y.data - expected).max()))
    ok_forward = worst < 1e-6

    # 500-step twin training: two-expert sparse routing vs dense mixture
    task, enc = task_of("quick"), encoder_of("quick", expert_mult=2)
    cfg = TrainConfig(steps=500, batch_size=4, lr=2e-3, seed=9, dtype="float64",
                      aux_weight=0.0)

    def run():
        _, metrics = train(enc, task, cfg)
        return np.array([m["loss"] for m in metrics])

    sparse_losses = run()
    with monkeypatch.context() as m:
        m.setattr(MoELayer, "forward", oracles.dense_moe_forward)
        dense_losses = run()
    max_step_diff = float(np.abs(sparse_losses - dense_losses).max())
    ok_twin = max_step_diff < 1e-5
    report(5, ok_forward and ok_twin,
           f"dense-oracle max |diff| = {worst:.2e} over 100 pairs; "
           f"500-step twin max per-step loss gap = {max_step_diff:.2e}")


# --------------------------------------------------------------------------
# 6: auxiliary loss oracle


def test_criterion_6_aux_loss_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        s, n = int(rng.integers(2, 80)), int(rng.integers(2, 10))
        gates = oracles.softmax_rows(rng.standard_normal((s, n)) * rng.uniform(0.2, 3))
        d = route_top2(Tensor(gates))
        ours = float(aux_load_balance_loss(d).data)
        worst = max(worst, abs(ours - oracles.brute_force_aux_loss(gates)))
    ok_random = worst < 1e-6

    ok_uniform = True
    for n in (2, 4, 8):
        gates = Tensor(np.full((4 * n, n), 1.0 / n))
        d = route_top2(gates)
        from moeformer.moe import RoutingDecision

        balanced = RoutingDecision(d.top2_idx, d.top2_gates, d.gates,
                                   np.full(n, 8, dtype=np.int64), 4 * n)
        ok_uniform &= float(aux_load_balance_loss(balanced).data) == 2.0 / n**2

    collapse = np.zeros((12, 4))
    collapse[:, 0] = 1.0
    d = route_top2(Tensor(collapse))
    ok_collapse = float(aux_load_balance_loss(d).data) == pytest.approx(0.25, abs=1e-12)
    report(6, ok_random and ok_uniform and ok_collapse,
           f"brute-force max |diff| = {worst:.2e} over 50 batches; uniform = 2/N^2 "
           f"exact for N in 2,4,8; collapse = 1/N")


# --------------------------------------------------------------------------
# 7-8: desk-scale balance and specialization


@pytest.mark.slow
def test_criterion_7_load_balance(balance_run):
    _, train_cfg, _, trained = balance_run
    max_load = max(l.load_fractions.max() for l in trained.routing.layers)
    overcap = trained.routing.overcap_max
    bound = 1.5 * (2 / 4)
    ok = max_load <= bound and 0.0 <= overcap <= 0.35
    acc = trained.accuracy
    report(7, ok, f"max load {max_load:.3f} <= {bound}; over-capacity max "
                  f"{overcap:.3f} in [0, 0.35]; accuracy {acc:.3f}; "
                  f"{train_cfg.steps} steps")


@pytest.mark.slow
def test_criterion_8_specialization_without_labels(balance_run):
    encoder_cfg, _, untrained, trained = balance_run
    gain = trained.routing.mi_top1 - untrained.routing.mi_top1
    # contract: the routed model never receives language ids
    assert encoder_cfg.adapters is None
    report(8, gain >= 0.5,
           f"routing-language MI gain {gain:.3f} bits >= 0.5 "
           f"(untrained {untrained.routing.mi_top1:.3f}, "
           f"trained {trained.routing.mi_top1:.3f}); no language ids used")


# --------------------------------------------------------------------------
# 9: adapter parity


@pytest.mark.slow
def test_criterion_9_adapter_parity():
    raw = parse_kv_file(REPO / "configs" / "desk" / "compare.cfg")
    rep = compare_adapter_vs_moe(
        task_from_flat(raw), encoder_from_flat(raw, prefix="adapter_encoder."),
        encoder_from_flat(raw, prefix="moe_encoder."), train_from_flat(raw),
        eval_batches=16, eval_batch_size=16)
    gap_points = abs(rep.moe_accuracy - rep.adapter_accuracy) * 100
    ok = (rep.budget_gap <= 0.02 and rep.language_id_independent
          and gap_points <= 5.0)
    report(9, ok,
           f"budget gap {100*rep.budget_gap:.3f}% <= 2%; adapter acc "
           f"{rep.adapter_accuracy:.3f} vs routed acc {rep.moe_accuracy:.3f} "
           f"(gap {gap_points:.2f} points); id-independent="
           f"{rep.language_id_independent}")


# --------------------------------------------------------------------------
# 10: streaming invariants


def test_criterion_10_streaming_invariants():
    rng = np.random.default_rng(1010)
    checked = 0
    for trial in range(20):
        heads = int(rng.integers(1, 3))
        causal_layers = int(rng.integers(1, 4))
        width = 8 * heads * int(rng.integers(1, 3))
        layers = int(rng.integers(1, 4))
        cfg = encoder_of(
            "quick", input_dim=width // 2, causal_dims=",".join([str(width)] * causal_layers),
            noncausal_dims=",".join([str(8 * heads)] * layers),
            right_contexts=("3", "2,2", "2,2,1")[layers - 1], heads=heads,
            feature_dim=int(rng.integers(4, 10)),
            num_experts=int(rng.integers(2, 5)))
        model = build_encoder(cfg, seed=trial)
        t_raw = int(rng.integers(36, 56))
        raw = rng.standard_normal((t_raw, cfg.frontend.feature_dim)).astype(np.float32)
        ds = cfg.frontend.downsample

        # causality: future perturbation leaves earlier causal frames bit-equal
        base, _ = model.forward(raw, mode="causal_only")
        cut = int(rng.integers(t_raw // 2, t_raw - 4))
        bumped = raw.copy()
        bumped[cut:] += rng.standard_normal(raw[cut:].shape).astype(np.float32)
        out, _ = model.forward(bumped, mode="causal_only")
        safe = [j for j in range(base.shape[0]) if (2 * j + 1) * ds < cut]
        assert safe, "degenerate causality case"
        np.testing.assert_array_equal(base.data[: len(safe)], out.data[: len(safe)])

        # right-context budget: perturbation beyond the budget is invisible
        budget = cfg.right_context_total
        base_c, _ = model.forward(raw, mode="cascaded")
        out_c, _ = model.forward(bumped, mode="cascaded")
        safe_c = [
            j for j in range(base_c.shape[0])
            if (2 * (j + budget) + 1) * ds < cut
        ]
        if safe_c:
            np.testing.assert_array_equal(
                base_c.data[: len(safe_c)], out_c.data[: len(safe_c)]
            )
        checked += 1
    report(10, checked == 20,
           f"{checked}/20 random configs: causal and right-context budget "
           f"perturbation invariance, bit-exact")


# --------------------------------------------------------------------------
# 11: plumbing


def test_criterion_11_plumbing(tmp_path):
    # checkpoint round trip, bit-exact, on the quick config's model
    quick = REPO / "configs" / "desk" / "quick.cfg"
    raw = parse_kv_file(quick)
    enc, task = encoder_from_flat(raw), task_from_flat(raw)
    model = build_model(enc, task.num_labels, seed=0)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(model.parameters(), ckpt, step=1)
    tensors, _, _ = load_checkpoint(ckpt)
    ok_roundtrip = all(
        np.array_equal(tensors[name], p.data) for name, p in model.parameters()
    )

    # fixed-seed end-to-end determinism of the metrics stream
    cfg = TrainConfig(steps=10, batch_size=4, seed=11)
    _, m1 = train(enc, task, cfg)
    _, m2 = train(enc, task, cfg)
    ok_determinism = [metrics_line(m) for m in m1] == [metrics_line(m) for m in m2]

    # every CLI subcommand exits 0 on the bundled example configs
    compare_quick = REPO / "configs" / "desk" / "compare_quick.cfg"
    ref_b1 = REPO / "configs" / "reference" / "b1.cfg"
    ref_e2 = REPO / "configs" / "reference" / "e2.cfg"
    out = tmp_path / "cli"
    codes = [
        cli_main(["train", "--config", str(quick), "--out", str(out),
                  "--batches", "2"]),
        cli_main(["eval", "--config", str(quick), "--checkpoint",
                  str(out / "checkpoint.bin"), "--batches", "2"]),
        cli_main(["route-stats", "--config", str(quick), "--checkpoint",
                  str(out / "checkpoint.bin"), "--batches", "1"]),
        cli_main(["count-params", "--config", str(ref_e2),
                  "--baseline-config", str(ref_b1)]),
        cli_main(["compare-adapter", "--config", str(compare_quick),
                  "--batches", "2", "--batch-size", "4"]),
    ]
    ok_cli = codes == [0, 0, 0, 0, 0]
    report(11, ok_roundtrip and ok_determinism and ok_cli,
           f"checkpoint bit-exact={ok_roundtrip}; metrics deterministic="
           f"{ok_determinism}; CLI exit codes={codes}")
