"""Accounting tests: hand counts, structural consistency with built models,
MAC instrumentation equality, and the README's reference-family size table.
The reference sizes themselves are acceptance criteria 1-3."""

import re
from functools import partial
from pathlib import Path

import numpy as np

from moeformer.accounting import count_params, flops_per_frame, report_kv, total_macs
from moeformer.encoder import build_encoder
from moeformer.tensor import count_macs

from geometry import REFERENCE_SIZES_M, calibrated_family, encoder_of, reference_family

REPO = Path(__file__).resolve().parent.parent


# the desk geometry (causal layers 64, non-causal 96) with its input block 32
# wide (64 after the time stacking) and 48 wide (96 after it: 96 -> 64 ahead
# of causal layer 0); expected projection names
BALANCE = encoder_of("balance")
WIDE_INPUT = encoder_of("balance", input_dim=48)
PROJECTIONS = (
    (BALANCE, ["noncausal.proj0"]),
    (WIDE_INPUT, ["causal.proj0", "noncausal.proj0"]),
)

# quick.cfg with two causal layers and three non-causal layers of three experts
small = partial(encoder_of, "quick", causal_dims="16,16", noncausal_dims="24,24,24",
                right_contexts="2,2,1", num_experts=3)


# --------------------------------------------------------------------------
# hand counts


def test_single_ffn_hand_count():
    # one feed-forward, d=4, mult=2, biases: 2*(4*8) + 8 + 4 = 76
    from moeformer.accounting import _ffn_params

    assert _ffn_params(4, 2) == 76


def test_breakdown_sums_to_totals():
    for cfg in (small(), small(moe_placement="none"),
                small(adapter_dim=8, adapter_groups=3)):
        rep = count_params(cfg)
        assert rep.total_params == sum(c.total for c in rep.components.values())
        assert rep.inference_params == sum(c.inference for c in rep.components.values())
        assert rep.inference_params <= rep.total_params


def test_inference_equals_total_without_sparsity():
    dense_cfg = small(moe_placement="none")
    rep = count_params(dense_cfg)
    assert rep.inference_params == rep.total_params

    two_expert = small(num_experts=2)
    rep2 = count_params(two_expert)
    assert rep2.inference_params == rep2.total_params

    wide = small(num_experts=5)
    rep5 = count_params(wide)
    assert rep5.inference_params < rep5.total_params


def test_adding_expert_grows_total_only_by_experts_plus_gate_column():
    # total strictly grows; the inference side moves only by the added gate
    # column (d per routed layer), expert activation stays at two
    for n in (2, 3, 4, 7):
        a = count_params(small(num_experts=n))
        b = count_params(small(num_experts=n + 1))
        assert b.total_params > a.total_params
        gate_columns = sum(l.model_dim for l in small().non_causal)
        assert b.inference_params - a.inference_params == gate_columns
        assert b.components["experts"].inference == a.components["experts"].inference


def test_executable_consistency_exact():
    # closed form equals the number of trainable scalars in a built model
    for cfg in (
        small(),
        small(moe_placement="none"),
        small(moe_placement="both", num_experts=2),
        small(moe_selector="odd"),
        small(adapter_dim=8, adapter_groups=4),
        BALANCE,
        WIDE_INPUT,
    ):
        model = build_encoder(cfg, seed=1)
        assert count_params(cfg).total_params == model.num_params()
    for cfg, projections in PROJECTIONS:
        names = {name.rsplit(".", 1)[0] for name, _ in build_encoder(cfg, seed=1).parameters()}
        assert sorted(n for n in names if re.fullmatch(r"(non)?causal\.proj\d+", n)) == projections


def test_paper_dim_moe_adds_seven_ffns_plus_gate_per_layer():
    family = reference_family()
    base = count_params(family["b1"])
    moe = count_params(family["e2"])  # 8 experts at the end feed-forward
    per_layer_ffn = 8 * 640**2 + 5 * 640
    expected_delta = 10 * (7 * per_layer_ffn + 8 * 640)
    assert moe.total_params - base.total_params == expected_delta


# --------------------------------------------------------------------------
# FLOPs


def test_flops_equal_without_moe():
    sparse, dense = flops_per_frame(small(moe_placement="none"))
    assert sparse == dense


def test_flops_dense_minus_sparse_is_extra_expert_cost():
    cfg = small(num_experts=8)
    sparse, dense = flops_per_frame(cfg)
    d = cfg.non_causal[0].model_dim
    per_expert = 2 * cfg.non_causal[0].expert_mult * d * d
    assert dense - sparse == 3 * 6 * per_expert


def test_total_macs_matches_instrumented_forward():
    rng = np.random.default_rng(5)
    for cfg, frames, batch in (
        (small(), 29, 1),
        (small(moe_placement="none"), 16, 2),
        (small(adapter_dim=8, adapter_groups=2), 24, 3),
        (BALANCE, 40, 2),
        (WIDE_INPUT, 37, 2),
    ):
        model = build_encoder(cfg, seed=2)
        feats = rng.standard_normal(
            (batch, frames, cfg.frontend.feature_dim)
        ).astype(np.float32)
        langs = rng.integers(0, 2, size=batch) if cfg.adapters else None
        with count_macs() as counter:
            model.forward(feats, language_ids=langs)
        assert counter.total == total_macs(cfg, frames, batch=batch)


def test_total_macs_causal_only_mode():
    for cfg in (small(), WIDE_INPUT):
        model = build_encoder(cfg, seed=3)
        feats = np.zeros((1, 20, cfg.frontend.feature_dim), dtype=np.float32)
        with count_macs() as counter:
            out, _ = model.forward(feats, mode="causal_only")
        assert counter.total == total_macs(cfg, 20, mode="causal_only")
        # 20 raw frames -> 10 after the frontend -> 5 after the time stacking
        assert out.shape == (1, 5, cfg.causal[-1].model_dim)


def test_flops_per_frame_is_the_steady_state_of_total_macs():
    # one more output frame costs exactly the per-frame MACs, once the
    # sequence is long enough that every attention window is full
    configs = list(reference_family().values()) + [
        BALANCE,
        encoder_of("balance", moe_placement="both", moe_selector="odd", adapter_dim=8,
                   adapter_groups=3),
        WIDE_INPUT,
    ]
    for cfg in configs:
        ds = cfg.total_downsample
        n = 200 * ds
        steps = tuple(total_macs(cfg, n + ds, dense=dense) - total_macs(cfg, n, dense=dense)
                      for dense in (False, True))
        assert flops_per_frame(cfg) == steps


# --------------------------------------------------------------------------
# reference family


def test_readme_size_table_is_reproduced():
    # the README's "Accounting" rows: published sizes as in REFERENCE_SIZES_M,
    # counted sizes as count_params of configs/reference/<id>.cfg plus the
    # b1-calibrated remainder, in millions rounded to 0.1
    family, remainder = calibrated_family()
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\w+) \| [^|]+ \| (\d+)M / (\d+)M \| ([^|]+) \|$",
                      readme, re.MULTILINE)
    assert [row[0] for row in rows] == ["b1", "e2", "e3", "e5", "e6", "e7"]
    for key, pub_total, pub_inf, counted in rows:
        assert (int(pub_total), int(pub_inf)) == REFERENCE_SIZES_M[key]
        rep = count_params(family[key])
        total, inference = rep.total_params + remainder, rep.inference_params + remainder
        expected = ("calibration point" if key == "b1"
                    else f"{total / 1e6:.1f}M / {inference / 1e6:.1f}M")
        assert counted == expected, key


def test_report_kv_roundtrip():
    rep = count_params(small())
    kv = dict(line.split("=") for line in report_kv(rep, remainder=123))
    assert int(kv["params.total"]) == rep.total_params
    assert int(kv["params.total_with_remainder"]) == rep.total_params + 123
    assert int(kv["flops.sparse"]) == rep.flops_sparse
