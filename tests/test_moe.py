"""Expert-routing tests: gating, top-2 selection, combination, balance loss,
capacity statistics, and the sparse/dense equivalence oracle."""

import numpy as np
import pytest

from moeformer import ConfigError, ParameterError, moe
from moeformer.moe import (
    ExpertFFN,
    MoELayer,
    RoutingDecision,
    aux_load_balance_loss,
    over_capacity_ratio,
    route_top2,
    routing_records,
)
from moeformer.tensor import Tensor, concat, linear, mean, slice_axis, softmax, sum_

import oracles


def make_layer(rng, model_dim, num_experts, mult=2, dtype=np.float64, zero_gate=False):
    def p(*shape):
        return Tensor(rng.standard_normal(shape).astype(dtype) * 0.3, requires_grad=True)

    gate = Tensor(
        np.zeros((model_dim, num_experts), dtype=dtype)
        if zero_gate
        else rng.standard_normal((model_dim, num_experts)).astype(dtype) * 0.5,
        requires_grad=True,
    )
    hidden = mult * model_dim
    experts = [
        ExpertFFN(p(model_dim, hidden), p(hidden), p(hidden, model_dim), p(model_dim))
        for _ in range(num_experts)
    ]
    return MoELayer(gate, experts)


def expert_arrays(layer):
    return [(e.w1.data, e.b1.data, e.w2.data, e.b2.data) for e in layer.experts]


def lopsided_case(rng, frames=9):
    """A 5-expert layer and an input on which expert 2 gets exactly one frame
    and experts 3 and 4 get none."""
    layer = make_layer(rng, 5, 5)
    gate = np.zeros((5, 5))
    gate[0, :3] = (3.0, 2.0, -1.0)
    gate[1, :3] = (3.0, -1.0, 2.0)
    layer.gate_w = Tensor(gate, requires_grad=True)
    x = 0.01 * rng.standard_normal((frames, 5))
    x[:-1, 0] += 4.0
    x[-1, 1] += 4.0
    return layer, Tensor(x)


# --------------------------------------------------------------------------
# gate


def test_gate_zero_weights_uniform():
    rng = np.random.default_rng(0)
    layer = make_layer(rng, 6, 4, zero_gate=True)
    gates = layer.gate(Tensor(rng.standard_normal((5, 6))))
    np.testing.assert_allclose(gates.data, 0.25, atol=1e-7)


def test_gate_constructed_logits():
    # single input feature of 1.0 with gate columns ln(4), ln(2), 0, 0
    layer = make_layer(np.random.default_rng(1), 1, 4)
    layer.gate_w = Tensor(np.log([[4.0, 2.0, 1.0, 1.0]]), requires_grad=True)
    gates = layer.gate(Tensor(np.array([[1.0]])))
    np.testing.assert_allclose(gates.data[0], [0.5, 0.25, 0.125, 0.125], atol=1e-12)


def test_gate_column_permutation_permutes_outputs():
    rng = np.random.default_rng(2)
    layer = make_layer(rng, 5, 4)
    x = Tensor(rng.standard_normal((7, 5)))
    base = layer.gate(x).data
    perm = np.array([2, 0, 3, 1])
    layer.gate_w = Tensor(layer.gate_w.data[:, perm])
    permuted = layer.gate(x).data
    np.testing.assert_allclose(permuted, base[:, perm], atol=1e-12)


def test_gate_dimension_mismatch():
    layer = make_layer(np.random.default_rng(3), 4, 2)
    with pytest.raises(ParameterError):
        layer.gate(Tensor(np.zeros((3, 5))))


# --------------------------------------------------------------------------
# route_top2


def test_route_tie_break():
    d = route_top2(Tensor([[0.1, 0.4, 0.25, 0.25]]))
    assert d.top2_idx[0].tolist() == [1, 2]
    np.testing.assert_allclose(d.top2_gates.data[0], [0.4, 0.25])


def test_route_one_hot_gates_second_slot_from_zero_tie():
    d = route_top2(Tensor([[1.0, 0.0, 0.0, 0.0]]))
    assert d.top2_idx[0].tolist() == [0, 1]
    np.testing.assert_allclose(d.top2_gates.data[0], [1.0, 0.0])


def test_route_uniform_gates_counts():
    gates = Tensor(np.full((10, 4), 0.25, np.float32))
    d = route_top2(gates)
    assert d.counts.tolist() == [10, 10, 0, 0]
    assert d.counts.sum() == 2 * d.num_frames


def test_route_invariants_random():
    rng = np.random.default_rng(4)
    for _ in range(25):
        s, n = int(rng.integers(1, 40)), int(rng.integers(2, 9))
        gates = oracles.softmax_rows(rng.standard_normal((s, n)))
        d = route_top2(Tensor(gates))
        assert d.counts.sum() == 2 * s
        assert np.all(d.top2_idx[:, 0] != d.top2_idx[:, 1])
        g = d.top2_gates.data
        assert np.all(g[:, 0] >= g[:, 1])
        assert np.all((g >= 0) & (g <= 1))


def test_route_selection_invariant_under_logit_shift():
    rng = np.random.default_rng(5)
    layer = make_layer(rng, 6, 5)
    x = Tensor(rng.standard_normal((9, 6)))
    logits = x.data @ layer.gate_w.data
    base = route_top2(Tensor(oracles.softmax_rows(logits)))
    shifted = route_top2(Tensor(oracles.softmax_rows(logits + 13.7)))
    np.testing.assert_array_equal(base.top2_idx, shifted.top2_idx)
    np.testing.assert_allclose(base.top2_gates.data, shifted.top2_gates.data, atol=1e-6)


def test_route_rejects_single_expert():
    with pytest.raises(ConfigError):
        route_top2(Tensor(np.ones((3, 1), np.float32)))


# --------------------------------------------------------------------------
# auxiliary load-balancing loss


@pytest.mark.parametrize("n", [2, 4, 8])
def test_aux_loss_uniform_exact(n):
    gates = Tensor(np.full((4 * n, n), 1.0 / n, np.float32))
    # lowest-index tie break concentrates counts, so build balanced counts by hand
    d = route_top2(gates)
    balanced = np.full(n, 2 * d.num_frames // n, dtype=np.int64)
    d = RoutingDecision(d.top2_idx, d.top2_gates, d.gates, balanced, d.num_frames)
    assert float(aux_load_balance_loss(d).data) == 2.0 / n**2


def test_aux_loss_collapse():
    n = 4
    gates = np.zeros((10, n))
    gates[:, 0] = 1.0
    d = route_top2(Tensor(gates))
    assert d.counts.tolist() == [10, 10, 0, 0]
    assert float(aux_load_balance_loss(d).data) == pytest.approx(1.0 / n, abs=1e-12)


def test_aux_loss_never_below_uniform_floor():
    # uniform routing is the minimum; small perturbations may dip below the
    # floor only within the 1e-6 numerical allowance
    rng = np.random.default_rng(7)
    n = 4
    for _ in range(40):
        logits = rng.standard_normal((400, n)) * 0.005
        gates = oracles.softmax_rows(logits)
        d = route_top2(Tensor(gates))
        assert float(aux_load_balance_loss(d).data) >= 2.0 / n**2 - 1e-6


def test_aux_loss_zero_frames_rejected():
    d = route_top2(Tensor(np.zeros((0, 4))))
    with pytest.raises(ParameterError):
        aux_load_balance_loss(d)


def test_aux_loss_gradient_flows_through_gates_only():
    rng = np.random.default_rng(8)
    layer = make_layer(rng, 5, 4)
    x = Tensor(rng.standard_normal((6, 5)))
    gates = layer.gate(x)
    d = route_top2(gates)
    aux_load_balance_loss(d).backward()
    assert layer.gate_w.grad is not None
    assert np.any(layer.gate_w.grad != 0)


# --------------------------------------------------------------------------
# over-capacity ratio


def test_over_capacity_balanced_is_zero():
    gates = Tensor(np.full((8, 4), 0.25, np.float32))
    d = route_top2(gates)
    d = RoutingDecision(d.top2_idx, d.top2_gates, d.gates, np.array([4, 4, 4, 4]), 8)
    ratios = over_capacity_ratio(d)
    np.testing.assert_array_equal(ratios, 0.0)


def test_over_capacity_hand_case():
    d = RoutingDecision(
        top2_idx=np.zeros((10, 2), dtype=np.int64),
        top2_gates=Tensor(np.zeros((10, 2), np.float32)),
        gates=Tensor(np.zeros((10, 4), np.float32)),
        counts=np.array([6, 6, 5, 3]),
        num_frames=10,
    )
    ratios = over_capacity_ratio(d)
    np.testing.assert_allclose(ratios, [0.1, 0.1, 0.0, 0.0], atol=1e-12)


def test_over_capacity_maximal_skew():
    d = RoutingDecision(
        top2_idx=np.tile([0, 1], (10, 1)).astype(np.int64),
        top2_gates=Tensor(np.zeros((10, 2), np.float32)),
        gates=Tensor(np.zeros((10, 4), np.float32)),
        counts=np.array([10, 10, 0, 0]),
        num_frames=10,
    )
    ratios = over_capacity_ratio(d)
    np.testing.assert_allclose(ratios, [0.5, 0.5, 0.0, 0.0], atol=1e-12)
    assert np.all((ratios >= 0) & (ratios <= 1))


# --------------------------------------------------------------------------
# full forward


def test_moe_forward_two_experts_is_dense_weighted_sum():
    rng = np.random.default_rng(10)
    layer = make_layer(rng, 6, 2)
    x = Tensor(rng.standard_normal((12, 6)))
    y, d = layer.forward(x)
    assert np.all(d.counts == 12)  # both experts active on every frame
    gates = oracles.softmax_rows(x.data @ layer.gate_w.data)
    arrays = expert_arrays(layer)
    expected = gates[:, :1] * oracles.expert_ffn(x.data, *arrays[0]) + gates[
        :, 1:
    ] * oracles.expert_ffn(x.data, *arrays[1])
    np.testing.assert_allclose(y.data, expected, atol=1e-9)


def test_moe_forward_sparse_equals_dense_execution():
    rng = np.random.default_rng(11)
    layer = make_layer(rng, 5, 4)
    x = Tensor(rng.standard_normal((20, 5)))
    y_sparse, _ = layer.forward(x)
    y_dense, _ = oracles.dense_moe_forward(layer, x)
    np.testing.assert_allclose(y_sparse.data, y_dense.data, atol=1e-10)
    layer, x = lopsided_case(rng)
    y_sparse, d = layer.forward(x)
    np.testing.assert_array_equal(d.counts, [9, 8, 1, 0, 0])
    y_dense, _ = oracles.dense_moe_forward(layer, x)
    np.testing.assert_allclose(y_sparse.data, y_dense.data, atol=1e-10)


def test_execution_counter_two_per_frame():
    rng = np.random.default_rng(12)
    for n in (2, 4, 8):
        layer = make_layer(rng, 4, n)
        layer.reset_evaluations()
        frames = 17
        layer.forward(Tensor(rng.standard_normal((frames, 4))))
        assert layer.evaluations == 2 * frames


def test_execution_counter_sees_the_rows_experts_run_on(monkeypatch):
    # a dispatch that hands every expert one row more than it was routed
    dispatch = moe._grouped_dispatch

    def padded_dispatch(x, owner, counts, run, slots=1):
        def run_padded(i, rows):
            out = run(i, concat([rows, slice_axis(rows, 0, 0, 1)], axis=0))
            return slice_axis(out, 0, 0, rows.shape[0])
        return dispatch(x, owner, counts, run_padded, slots)

    rng = np.random.default_rng(14)
    layer = make_layer(rng, 4, 4)
    x = Tensor(rng.standard_normal((17, 4)))
    _, decision = layer.forward(x)
    assert layer.evaluations == 2 * 17
    layer.reset_evaluations()
    monkeypatch.setattr(moe, "_grouped_dispatch", padded_dispatch)
    layer.forward(x)
    assert layer.evaluations == 2 * 17 + np.count_nonzero(decision.counts)


def test_combined_output_invariant_under_gate_logit_shift():
    rng = np.random.default_rng(13)
    layer = make_layer(rng, 6, 4)
    x = Tensor(rng.standard_normal((8, 6)))
    y1, d1 = layer.forward(x)
    bias = Tensor(np.full(4, 9.25))
    # adding a constant to every gate logit leaves softmax, hence routing, alone
    original_gate = layer.gate
    layer.gate = lambda inp: softmax(linear(inp, layer.gate_w, bias), axis=1)
    y2, d2 = layer.forward(x)
    layer.gate = original_gate
    np.testing.assert_array_equal(d1.top2_idx, d2.top2_idx)
    np.testing.assert_allclose(y1.data, y2.data, atol=1e-6)


# --------------------------------------------------------------------------
# gradient structure


def test_non_selected_experts_get_zero_gradient():
    rng = np.random.default_rng(14)
    d_model, n = 5, 4
    layer = make_layer(rng, d_model, n)
    # push every frame toward experts 0/1 via a saturated gate matrix
    gate = np.zeros((d_model, n))
    gate[:, 0] = 3.0
    gate[:, 1] = 2.0
    layer.gate_w = Tensor(gate, requires_grad=True)
    # positive inputs keep the saturated gate columns on top for every frame
    x = Tensor(np.abs(rng.standard_normal((10, d_model))) + 0.1)
    y, d = layer.forward(x)
    assert set(np.unique(d.top2_idx)) == {0, 1}
    mean(y * y).backward()
    for i in (0, 1):
        assert layer.experts[i].w1.grad is not None
    for i in (2, 3):
        e = layer.experts[i]
        for p in (e.w1, e.b1, e.w2, e.b2):
            assert p.grad is None or not np.any(p.grad)
    assert layer.gate_w.grad is not None
    assert np.any(layer.gate_w.grad != 0)


def test_partial_selection_gradient_sparsity():
    rng = np.random.default_rng(15)
    layer = make_layer(rng, 4, 5)
    x = Tensor(rng.standard_normal((30, 4)))
    y, d = layer.forward(x)
    sum_(y * y).backward()
    used = set(np.unique(d.top2_idx))
    for i, expert in enumerate(layer.experts):
        grads = [p.grad for p in (expert.w1, expert.b1, expert.w2, expert.b2)]
        if i in used:
            assert any(g is not None and np.any(g) for g in grads)
        else:
            assert all(g is None or not np.any(g) for g in grads)


# --------------------------------------------------------------------------
# record stream


def test_routing_records_format():
    rng = np.random.default_rng(16)
    layer = make_layer(rng, 4, 3)
    _, d = layer.forward(Tensor(rng.standard_normal((9, 4))))
    lines = routing_records(2, d)
    assert len(lines) == 3
    for i, line in enumerate(lines):
        fields = dict(part.split("=") for part in line.split())
        assert fields["layer"] == "2"
        assert fields["expert"] == str(i)
        assert int(fields["count"]) == d.counts[i]
        assert 0.0 <= float(fields["overcap"]) <= 1.0
    assert sum(int(l.split()[2].split("=")[1]) for l in lines) == 18
