"""Accounting tests: hand counts, structural consistency with built models,
MAC instrumentation equality, and reference-family size reproduction."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from moeformer.accounting import (
    BASELINE_PUBLISHED,
    count_params,
    fitted_remainder,
    flops_per_frame,
    report_kv,
    total_macs,
)
from moeformer.config import AdapterConfig, InputBlockConfig
from moeformer.encoder import build_encoder
from moeformer.tensor import count_macs

from geometry import REFERENCE_SIZES_M, desk_encoder, reference_family

REPO = Path(__file__).resolve().parent.parent


# the desk geometry (causal layers 64, non-causal 96) with its input block 32
# wide (64 after the time stacking) and 48 wide (96 after it: 96 -> 64 ahead
# of causal layer 0); expected projection names
PROJECTIONS = (
    (desk_encoder(), ["noncausal.proj0"]),
    (replace(desk_encoder(), input_block=InputBlockConfig(out_dim=48, num_convs=2, kernel=3)),
     ["causal.proj0", "noncausal.proj0"]),
)
WIDE_INPUT = PROJECTIONS[1][0]


def small_cfg(**overrides):
    kwargs = dict(
        causal_layers=2, causal_dim=16, non_causal_layers=3, non_causal_dim=24,
        heads=2, feature_dim=8, ffn_mult=2, num_experts=3,
    )
    kwargs.update(overrides)
    return desk_encoder(**kwargs)


# --------------------------------------------------------------------------
# hand counts


def test_single_ffn_hand_count():
    # one feed-forward, d=4, mult=2, biases: 2*(4*8) + 8 + 4 = 76
    from moeformer.accounting import _ffn_params

    assert _ffn_params(4, 2) == 76


def test_breakdown_sums_to_totals():
    for cfg in (small_cfg(), small_cfg(moe_placement="none", num_experts=0),
                small_cfg(adapters=AdapterConfig(dim=8, num_groups=3))):
        rep = count_params(cfg)
        assert rep.total_params == sum(c.total for c in rep.components.values())
        assert rep.inference_params == sum(c.inference for c in rep.components.values())
        assert rep.inference_params <= rep.total_params


def test_inference_equals_total_without_sparsity():
    dense_cfg = small_cfg(moe_placement="none", num_experts=0)
    rep = count_params(dense_cfg)
    assert rep.inference_params == rep.total_params

    two_expert = small_cfg(num_experts=2)
    rep2 = count_params(two_expert)
    assert rep2.inference_params == rep2.total_params

    wide = small_cfg(num_experts=5)
    rep5 = count_params(wide)
    assert rep5.inference_params < rep5.total_params


def test_adding_expert_grows_total_only_by_experts_plus_gate_column():
    # total strictly grows; the inference side moves only by the added gate
    # column (d per routed layer), expert activation stays at two
    for n in (2, 3, 4, 7):
        a = count_params(small_cfg(num_experts=n))
        b = count_params(small_cfg(num_experts=n + 1))
        assert b.total_params > a.total_params
        gate_columns = sum(l.model_dim for l in small_cfg().non_causal)
        assert b.inference_params - a.inference_params == gate_columns
        assert b.components["experts"].inference == a.components["experts"].inference


def test_executable_consistency_exact():
    # closed form equals the number of trainable scalars in a built model
    for cfg in (
        small_cfg(),
        small_cfg(moe_placement="none", num_experts=0),
        small_cfg(moe_placement="both", num_experts=2),
        small_cfg(moe_selector="odd"),
        small_cfg(adapters=AdapterConfig(dim=8, num_groups=4)),
        desk_encoder(),
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
    sparse, dense = flops_per_frame(small_cfg(moe_placement="none", num_experts=0))
    assert sparse == dense


def test_flops_dense_minus_sparse_is_extra_expert_cost():
    cfg = small_cfg(num_experts=8, non_causal_layers=3)
    sparse, dense = flops_per_frame(cfg)
    d = cfg.non_causal[0].model_dim
    per_expert = 2 * cfg.non_causal[0].expert_mult * d * d
    assert dense - sparse == 3 * 6 * per_expert


def test_total_macs_matches_instrumented_forward():
    rng = np.random.default_rng(5)
    for cfg, frames, batch in (
        (small_cfg(), 29, 1),
        (small_cfg(moe_placement="none", num_experts=0), 16, 2),
        (small_cfg(adapters=AdapterConfig(dim=8, num_groups=2)), 24, 3),
        (desk_encoder(), 40, 2),
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
    for cfg in (small_cfg(), WIDE_INPUT):
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
        desk_encoder(),
        desk_encoder(moe_placement="both", moe_selector="odd",
                     adapters=AdapterConfig(dim=8, num_groups=3)),
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


@pytest.fixture(scope="module")
def calibrated():
    fam = reference_family()
    remainder = fitted_remainder(count_params(fam["b1"]).total_params, BASELINE_PUBLISHED)
    return fam, remainder


def sized(fam, remainder, key):
    rep = count_params(fam[key])
    return rep.total_params + remainder, rep.inference_params + remainder


@pytest.mark.parametrize("key", ["e2", "e3", "e5"])
def test_reference_absolute_sizes_within_5pct(calibrated, key):
    fam, remainder = calibrated
    total, inference = sized(fam, remainder, key)
    pub_total, pub_inf = (m * 1_000_000 for m in REFERENCE_SIZES_M[key])
    assert abs(total - pub_total) / pub_total <= 0.05
    assert abs(inference - pub_inf) / pub_inf <= 0.05


def test_reference_expert_increment_deltas(calibrated):
    fam, _ = calibrated
    e8 = count_params(fam["e8"]).total_params
    e9 = count_params(fam["e9"]).total_params
    e10 = count_params(fam["e10"]).total_params
    closed_form = 8 * (6 * 640**2 + 4 * 640) * 10
    gate_growth = 8 * 640 * 10  # the gate matrix gains one column per expert
    assert e9 - e8 == closed_form + gate_growth
    assert e10 - e9 == closed_form + gate_growth
    assert abs((e9 - e8) - closed_form) / closed_form <= 0.02
    for published in (196_000_000, 197_000_000):
        assert abs((e9 - e8) - published) / published <= 0.02


def test_reference_moe_end_delta_vs_baseline(calibrated):
    fam, _ = calibrated
    delta = count_params(fam["e2"]).total_params - count_params(fam["b1"]).total_params
    closed_form = 7 * (8 * 640**2 + 5 * 640) * 10
    assert abs(delta - closed_form) <= 8 * 640 * 10  # they differ by the gates only
    assert abs(delta - 220_000_000) / 220_000_000 <= 0.05


def test_reference_activation_ratio(calibrated):
    fam, remainder = calibrated
    total, inference = sized(fam, remainder, "e2")
    assert 0.50 <= inference / total <= 0.56


def test_readme_size_table_is_reproduced(calibrated):
    # the README's "Accounting" rows: published sizes as in REFERENCE_SIZES_M,
    # counted sizes as count_params of configs/reference/<id>.cfg plus the
    # b1-calibrated remainder, in millions rounded to 0.1
    fam, remainder = calibrated
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\w+) \| [^|]+ \| (\d+)M / (\d+)M \| ([^|]+) \|$",
                      readme, re.MULTILINE)
    assert [row[0] for row in rows] == ["b1", "e2", "e3", "e5", "e6", "e7"]
    for key, pub_total, pub_inf, counted in rows:
        assert (int(pub_total), int(pub_inf)) == REFERENCE_SIZES_M[key]
        total, inference = sized(fam, remainder, key)
        expected = ("calibration point" if key == "b1"
                    else f"{total / 1e6:.1f}M / {inference / 1e6:.1f}M")
        assert counted == expected, key


def test_report_kv_roundtrip():
    rep = count_params(small_cfg())
    kv = dict(line.split("=") for line in report_kv(rep, remainder=123))
    assert int(kv["params.total"]) == rep.total_params
    assert int(kv["params.total_with_remainder"]) == rep.total_params + 123
    assert int(kv["flops.sparse"]) == rep.flops_sparse
