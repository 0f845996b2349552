"""Numeric-core tests: op contracts, stability, and gradient correctness."""

import functools
import inspect
import sys

import numpy as np
import pytest

from moeformer import ParameterError
from moeformer import tensor as T
from moeformer.config import encoder_from_flat, parse_kv_file
from moeformer.evaluation import evaluate
from moeformer.synth import generate_batch, task_from_flat
from moeformer.training import train, train_from_flat
from moeformer.tensor import (
    Tensor,
    add_scaled,
    causal_conv,
    causal_depthwise_conv,
    combine_top2,
    concat,
    count_macs,
    glu,
    layer_norm,
    linear,
    log_softmax,
    masked_attention,
    matmul,
    mean,
    merge_heads,
    no_grad,
    reshape,
    slice_axis,
    softmax,
    split_heads,
    sum_,
    swish,
    take_entries,
    take_index_last,
    take_rows,
)

from fdiff import assert_grads_close
from geometry import CONFIGS

import oracles


def _param(rng, *shape, dtype=np.float64):
    return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)


# --------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)


def test_softmax_stability_extreme_logits():
    out = softmax(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] > 0.999999
    assert out.data[1] < 1e-6


def test_softmax_matches_exponentiate_normalize_oracle():
    logits = np.log(np.array([4.0, 2.0, 1.0, 1.0]))
    expected = np.exp(logits) / np.exp(logits).sum()  # direct oracle
    out = softmax(Tensor(logits))
    np.testing.assert_allclose(out.data, [0.5, 0.25, 0.125, 0.125], atol=1e-12)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal((5, 9)) * rng.uniform(0.1, 30)
        out = softmax(Tensor(x), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
        shifted = softmax(Tensor(x + rng.uniform(-50, 50)), axis=1)
        np.testing.assert_allclose(out.data, shifted.data, atol=1e-6)


def test_softmax_invalid_axis():
    with pytest.raises(ParameterError):
        softmax(Tensor([1.0, 2.0]), axis=3)


# --------------------------------------------------------------------------
# core op contracts


def test_matmul_identity():
    a = np.arange(9.0).reshape(3, 3)
    out = matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_shape_mismatch():
    with pytest.raises(ParameterError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


@pytest.mark.parametrize("expr", [
    lambda t: t + 1.0,
    lambda t: t + np.ones(3),
    lambda t: t * np.ones(3),
    lambda t: T.add(np.ones(3), t),
    lambda t: T.mul(np.ones(3), t),
], ids=["tensor + float", "tensor + array", "tensor * array", "add(array, tensor)",
        "mul(array, tensor)"])
def test_elementwise_ops_refuse_an_operand_that_is_not_a_tensor(expr):
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ParameterError, match="operands must be Tensors") as info:
        expr(t)
    assert len(str(info.value).splitlines()) == 1


@pytest.mark.parametrize("op", [T.add, T.mul])
def test_elementwise_ops_refuse_operands_of_different_shapes(op):
    # a bias is added through linear; nothing broadcasts in add or mul
    a = Tensor(np.ones((4, 3)), requires_grad=True)
    for b_shape in [(3,), (1, 3), (4, 1), ()]:
        with pytest.raises(ParameterError, match="shapes differ") as info:
            op(a, Tensor(np.ones(b_shape)))
        assert len(str(info.value).splitlines()) == 1


def test_matmul_one_row_matches_row_of_taller_product():
    # alone, a one-row operand takes the BLAS gemv path, which rounds
    # differently from the same row inside a gemm
    rng = np.random.default_rng(21)
    for k, n in ((256, 1024), (144, 144)):
        a = rng.standard_normal((7, k)).astype(np.float32)
        b = Tensor(rng.standard_normal((k, n)).astype(np.float32))
        full = matmul(Tensor(a), b).data
        for row in (a[:1], a[0], a[:1].reshape(1, 1, k)):
            with count_macs() as c:
                out = matmul(Tensor(row), b)
            assert out.shape == row.shape[:-1] + (n,)
            assert c.total == k * n
            np.testing.assert_array_equal(out.data.reshape(-1), full[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_matmul_matches_batched_oracle_at_desk_widths(dtype):
    # (B, T, k) @ (k, n) runs as one (B*T, k) GEMM. At the desk widths a
    # row's BLAS result does not depend on the row count, so the forward
    # equals B per-sequence products bit for bit. The gradients are one
    # GEMM each against the oracle's B small ones: a GEMM on a transposed
    # operand takes an OpenBLAS small-matrix path at up to about 18 rows
    # (T here), and the weight gradient sums the B*T rows in one order, so
    # both agree to rounding; 1e-12 of their largest entry bounds float64
    # sums of at most 384 terms with a wide margin
    rng = np.random.default_rng(23)
    widths = ((96, 384), (384, 96), (64, 256), (256, 64), (96, 96), (64, 64))
    for (k, n), t in zip(widths, (10, 14, 19, 23, 28, 12)):
        x = rng.standard_normal((12, t, k)).astype(dtype)
        probe = rng.standard_normal((12, t, n)).astype(dtype)
        w = (rng.standard_normal((k, n)) / np.sqrt(k)).astype(dtype)
        results = []
        for op in (matmul, oracles.batched_matmul):
            a, b = Tensor(x.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)
            out = op(a, b)
            sum_(out * Tensor(probe)).backward()
            results.append((out.data, a.grad, b.grad))
        (out, ga, gb), (want, want_ga, want_gb) = results
        np.testing.assert_array_equal(out, want)
        if dtype == np.float64:
            for got, ref in ((ga, want_ga), (gb, want_gb)):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_layer_norm_constant_vector_is_zero_before_affine():
    d = 6
    gain = Tensor(np.ones(d), requires_grad=False)
    bias = Tensor(np.zeros(d), requires_grad=False)
    out = layer_norm(Tensor(np.full((2, d), 3.7)), gain, bias)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_causal_conv_output_ignores_future_frames():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((1, 10, 4))
    w = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal(4))
    base = causal_depthwise_conv(Tensor(x), w, b).data
    bumped = x.copy()
    bumped[0, 7] += 5.0
    out = causal_depthwise_conv(Tensor(bumped), w, b).data
    np.testing.assert_array_equal(base[0, :7], out[0, :7])
    assert not np.allclose(base[0, 7], out[0, 7])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_causal_conv_prefix_matches_longer_input(dtype):
    # a one-frame input is one row: computed inside a two-row product it
    # equals frame 0 of a longer input (in float64 the gemv path would
    # differ); longer prefixes equal their frames
    rng = np.random.default_rng(12)
    x = rng.standard_normal((1, 24, 32)).astype(dtype)
    w = Tensor((rng.standard_normal((3, 32, 32)) / np.sqrt(96)).astype(dtype))
    b = Tensor(rng.standard_normal(32).astype(dtype))
    full = causal_conv(Tensor(x), w, b).data
    for t in (1, 2, 9):
        prefix = causal_conv(Tensor(x[:, :t]), w, b).data
        np.testing.assert_array_equal(prefix, full[:, :t])


def test_masked_attention_future_perturbation_is_bit_exact():
    rng = np.random.default_rng(5)
    t, dh = 8, 4
    q = rng.standard_normal((1, 2, t, dh))
    k = rng.standard_normal((1, 2, t, dh))
    v = rng.standard_normal((1, 2, t, dh))
    rows, cols = np.indices((t, t))
    mask = cols <= rows  # causal
    base = masked_attention(Tensor(q), Tensor(k), Tensor(v), mask).data
    k2, v2 = k.copy(), v.copy()
    k2[0, :, 6] += 10.0
    v2[0, :, 6] -= 3.0
    out = masked_attention(Tensor(q), Tensor(k2), Tensor(v2), mask).data
    np.testing.assert_array_equal(base[0, :, :6], out[0, :, :6])


def _band(t, left, right):
    rows, cols = np.indices((t, t))
    return (cols >= rows - left) & (cols <= rows + right)


def _irregular_mask(rng, t):
    """Holes and uneven per-row reach inside offsets [-6, 3]; no row is empty."""
    rows, cols = np.indices((t, t))
    mask = (cols - rows >= -6) & (cols - rows <= 3) & (rng.random((t, t)) < 0.4)
    mask[np.arange(t), np.clip(np.arange(t) + rng.integers(-6, 4, t), 0, t - 1)] = True
    return mask


def test_masked_attention_matches_dense_oracle():
    # T = 40 runs several query blocks, so block edges and padding are covered
    rng = np.random.default_rng(6)
    t = 40
    for mask in (_band(t, 5, 2), _irregular_mask(rng, t)):
        q, k, v = (rng.standard_normal((2, 3, t, 4)) for _ in range(3))
        out = masked_attention(Tensor(q), Tensor(k), Tensor(v), mask).data
        np.testing.assert_allclose(out, oracles.masked_attention(q, k, v, mask),
                                   rtol=0, atol=1e-12)


def _holed_band(rng, t, left, right):
    """The band with about half its pairs removed, every row keeping one."""
    mask = _band(t, left, right) & (rng.random((t, t)) < 0.5)
    mask[np.arange(t), np.arange(t)] |= ~mask.any(axis=1)
    return mask


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_attention_matches_banded_oracle_bit_for_bit(dtype):
    # forward and q/k/v gradients, sign of zero included, against the op that
    # contracted each row with all 2W - 1 keys of its block; T runs across
    # the one-block / many-block boundary of every window
    rng = np.random.default_rng(62)
    for t in (5, 19, 20, 37, 38, 39, 40, 77, 100):
        for left, right in ((16, 2), (16, 0), (5, 2), (3, 3)):
            for batch in (1, 3):
                for mask in (_band(t, left, right), _holed_band(rng, t, left, right)):
                    inputs = [_with_signed_zeros(rng, (batch, 2, t, 16), dtype)
                              for _ in range(3)]
                    upstream = _with_signed_zeros(rng, (batch, 2, t, 16), dtype)
                    results = []
                    for fn in (masked_attention, oracles.banded_attention):
                        leaves = [Tensor(a.copy(), requires_grad=True) for a in inputs]
                        out = fn(*leaves, mask)
                        sum_(out * Tensor(upstream)).backward()
                        results.append([out.data] + [p.grad for p in leaves])
                    for got, want in zip(*results):
                        assert got.dtype == want.dtype and got.shape == want.shape
                        assert got.tobytes() == want.tobytes(), (t, left, right, batch)
                        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_forward_ops_stay_finite():
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = Tensor(rng.standard_normal((4, 8)) * rng.uniform(0.1, 100))
        w = Tensor(rng.standard_normal((8, 8)))
        y = softmax(matmul(swish(x), w), axis=-1)
        z = layer_norm(matmul(y, w), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.all(np.isfinite(z.data))


def test_forward_determinism():
    rng = np.random.default_rng(99)
    x = rng.standard_normal((6, 6))
    w = rng.standard_normal((6, 6))

    def run():
        return matmul(softmax(Tensor(x), axis=1), Tensor(w)).data

    np.testing.assert_array_equal(run(), run())


def test_concat_slice_roundtrip():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 2))
    joined = concat([Tensor(a), Tensor(b)], axis=1)
    back_a = slice_axis(joined, 1, 0, 4)
    back_b = slice_axis(joined, 1, 4, 6)
    np.testing.assert_array_equal(back_a.data, a)
    np.testing.assert_array_equal(back_b.data, b)


# --------------------------------------------------------------------------
# backward basics


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ParameterError):
        (x + x).backward()


def test_linear_gradient_is_input_broadcast():
    # loss = sum(W @ x) has dloss/dW = x broadcast over rows
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    x = Tensor(rng.standard_normal((4, 1)))
    loss = sum_(matmul(w, x))
    loss.backward()
    np.testing.assert_allclose(w.grad, np.tile(x.data.T, (3, 1)), atol=1e-6)


def test_diamond_graph_accumulates_once_per_path():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = x + x  # two paths to x
    y.backward()
    assert float(x.grad) == 2.0


def test_no_grad_records_nothing_nests_and_restores():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    taped = matmul(x, w)
    with no_grad():
        with no_grad():
            inner = matmul(x, w)
        outer = swish(matmul(x, w))
    for out in (inner, outer):
        assert out._parents == () and out._backward is None and not out.requires_grad
    np.testing.assert_array_equal(inner.data, taped.data)
    with pytest.raises(ParameterError):
        with no_grad():
            matmul(x, x)
    after = matmul(x, w)
    assert after._parents == (x, w) and after._backward is not None
    sum_(after).backward()
    np.testing.assert_array_equal(w.grad, np.repeat(x.data.sum(axis=0)[:, None], 2, axis=1))


def test_backward_frees_interior_gradients():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    h = matmul(x, w)
    y = h * h
    left, right = slice_axis(x, 1, 0, 2), slice_axis(x, 1, 2, 4)
    loss = sum_(y) + sum_(left * right)
    loss.backward()
    for node in (h, y, left, right, loss):
        assert node.grad is None
    # leaves keep their gradients, as the per-node rules produce them
    gh = h.data + h.data
    np.testing.assert_array_equal(w.grad, np.matmul(x.data.T, gh))
    gx = np.matmul(gh, w.data.T)
    gx = gx + np.concatenate([right.data, np.zeros((3, 2))], axis=1)
    gx = gx + np.concatenate([np.zeros((3, 2)), left.data], axis=1)
    np.testing.assert_array_equal(x.grad, gx)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_slice_axis_backward_matches_padded_oracle(dtype):
    # random mixes of slices (contiguous, strided, overlapping, along either
    # axis, negative axis) and whole uses of one tensor, with +-0.0 among the
    # upstream gradients: bit for bit, sign of zero included, equal to adding
    # one zero-padded array per slice
    rng = np.random.default_rng(48)
    for trial in range(150):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        init = rng.standard_normal(shape).astype(dtype)
        plan = []
        for _ in range(int(rng.integers(1, 6))):
            axis = int(rng.integers(0, 2))
            n = shape[axis]
            start = int(rng.integers(0, n))
            stop = int(rng.integers(start, n + 1))
            step = int(rng.integers(1, 3))
            whole = rng.random() < 0.2
            axis_arg = axis - 2 if rng.random() < 0.3 else axis
            weights = rng.standard_normal(8)
            weights[rng.random(8) < 0.4] = 0.0
            weights = np.where(rng.random(8) < 0.5, -weights, weights)  # +0.0 and -0.0
            plan.append((whole, axis_arg, start, stop, step, weights.astype(dtype)))
        interior = trial % 2 == 0

        def grad_of(slicer):
            x = Tensor(init.copy(), requires_grad=True)
            base = x * 1.0 if interior else x
            loss = None
            for whole, axis, start, stop, step, weights in plan:
                part = base if whole else slicer(base, axis, start, stop, step)
                term = sum_(part * Tensor(np.resize(weights, part.shape)))
                loss = term if loss is None else loss + term
            loss.backward()
            return x.grad

        got = grad_of(slice_axis)
        want = grad_of(oracles.padded_slice_axis)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), trial


# --------------------------------------------------------------------------
# fused pointwise ops against the nodes they replace

# where each (frame, slot) output sits among the rows handed to combine_top2
_SLOT_ROWS = np.array([[3, 7], [0, 9], [5, 1], [8, 2], [6, 4]])

# name -> (fused op, composite oracle, input shapes); every input is a leaf
FUSED = {
    "layer_norm": (layer_norm, oracles.layer_norm, [(2, 5, 12), (12,), (12,)]),
    "glu": (glu, oracles.glu, [(2, 5, 12)]),
    "swish": (swish, oracles.swish_node, [(3, 7)]),
    "split_heads": (lambda x: split_heads(x, 3), lambda x: oracles.split_heads(x, 3),
                    [(2, 5, 12)]),
    "merge_heads": (merge_heads, oracles.merge_heads, [(2, 3, 5, 4)]),
    "add_scaled": (lambda x, h: add_scaled(x, h, 0.5), lambda x, h: oracles.add_scaled(x, h, 0.5),
                   [(2, 5, 6), (2, 5, 6)]),
    "linear_3d": (linear, oracles.linear, [(2, 5, 12), (12, 7), (7,)]),
    "linear_2d": (linear, oracles.linear, [(9, 12), (12, 7), (7,)]),
    "linear_one_row": (linear, oracles.linear, [(1, 12), (12, 7), (7,)]),
    "combine_top2": (lambda x, gates: combine_top2(x, _SLOT_ROWS, gates),
                     lambda x, gates: oracles.combine_top2(x, _SLOT_ROWS, gates),
                     [(10, 6), (5, 2)]),
    "causal_depthwise_conv": (causal_depthwise_conv, oracles.causal_depthwise_conv,
                              [(2, 7, 6), (3, 6), (6,)]),
    "causal_conv": (causal_conv, oracles.causal_conv, [(2, 7, 4), (3, 4, 5), (5,)]),
    "causal_conv_one_frame": (causal_conv, oracles.causal_conv, [(1, 1, 4), (3, 4, 5), (5,)]),
}


def _with_signed_zeros(rng, shape, dtype):
    """Normal draws with about a third of the entries +0.0 or -0.0."""
    a = rng.standard_normal(shape)
    a[rng.random(shape) < 0.3] = 0.0
    return np.where(rng.random(shape) < 0.5, -a, a).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_matches_composite_oracle_bit_for_bit(name, dtype):
    # forward and every input gradient, sign of zero included, with -0.0 in
    # the inputs and in the upstream gradient; the first input is used once
    # more as a whole (trial 1) so that its gradient sums two contributions
    op, oracle, shapes = FUSED[name]
    rng = np.random.default_rng(60)
    for trial in range(3):
        inputs = [_with_signed_zeros(rng, shape, dtype) for shape in shapes]
        upstream = None
        results = []
        for fn in (op, oracle):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in inputs]
            out = fn(*leaves)
            if upstream is None:
                upstream = _with_signed_zeros(rng, out.shape, dtype)
            loss = sum_(out * Tensor(upstream))
            if trial == 1:
                loss = loss + sum_(leaves[0] * Tensor(inputs[0]))
            loss.backward()
            results.append([out.data] + [p.grad for p in leaves])
        for got, want in zip(*results):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (name, trial)


def test_glu_gradient_turns_negative_zero_positive_as_padded_slices_do():
    # a zero upstream gradient of sign -0.0 reaches both halves as +0.0
    x = Tensor(np.array([[1.0, -2.0, 0.5, 3.0]]), requires_grad=True)
    sum_(glu(x) * Tensor(np.array([[-0.0, -0.0]]))).backward()
    assert not np.signbit(x.grad).any()


@pytest.mark.parametrize("name", sorted(FUSED))
def test_gradcheck_fused_op(name):
    op, _, shapes = FUSED[name]
    rng = np.random.default_rng(61)
    leaves = [_param(rng, *shape) for shape in shapes]
    probe = None

    def loss_fn():
        nonlocal probe
        out = op(*leaves)
        if probe is None:
            probe = Tensor(rng.standard_normal(out.shape))
        return sum_(out * probe)

    assert_grads_close(loss_fn, leaves)


def test_fused_shape_ops_refuse_bad_shapes():
    with pytest.raises(ParameterError, match="even"):
        glu(Tensor(np.zeros((2, 5))))
    with pytest.raises(ParameterError, match="heads"):
        split_heads(Tensor(np.zeros((1, 2, 10))), 3)
    with pytest.raises(ParameterError, match="shapes differ"):
        add_scaled(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)), 0.5)


def test_take_rows_backward_matches_add_at():
    # unique rows, permutations and repeated rows (negative indices too):
    # bit for bit what np.add.at accumulates, sign of zero included
    rng = np.random.default_rng(49)
    for trial in range(120):
        n = int(rng.integers(1, 12))
        if trial % 3 == 0:
            idx = rng.permutation(n)
        elif trial % 3 == 1:
            idx = np.repeat(np.arange(n), 2)[np.argsort(rng.integers(0, 3, 2 * n), kind="stable")]
        else:
            idx = rng.integers(-n, n, size=int(rng.integers(0, 3 * n)))
        g = rng.standard_normal((idx.size, 3)).astype(np.float32)
        g[rng.random(g.shape) < 0.3] = -0.0
        x = Tensor(rng.standard_normal((n, 3)).astype(np.float32), requires_grad=True)
        sum_(take_rows(x, idx) * Tensor(g)).backward()
        want = np.zeros((n, 3), dtype=np.float32)
        np.add.at(want, idx, g)
        assert x.grad.tobytes() == want.tobytes(), trial


def test_gradcheck_take_rows_duplicates_and_permutation():
    rng = np.random.default_rng(50)
    x = _param(rng, 5, 3)
    twice = np.array([3, 0, 1, 3, 4, 2, 0, 1, 2, 4])  # every row twice, as a sorted dispatch
    perm = np.array([2, 4, 0, 3, 1])
    w = Tensor(rng.standard_normal((10, 3)))

    def loss_fn():
        spread = take_rows(x, twice) * w
        back = take_rows(reshape(spread, (5, 2, 3)), perm)
        return mean(back * back)

    assert_grads_close(loss_fn, {"x": x})


def test_grad_not_tracked_for_constants():
    x = Tensor(np.ones((2, 2)))
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    loss = sum_(matmul(x, w))
    loss.backward()
    assert x.grad is None
    assert w.grad is not None


# --------------------------------------------------------------------------
# finite-difference gradient checks (64-bit)


def test_gradcheck_dense_chain():
    rng = np.random.default_rng(42)
    w1 = _param(rng, 5, 7)
    b1 = _param(rng, 7)
    w2 = _param(rng, 7, 3)
    x = Tensor(rng.standard_normal((4, 5)))

    def loss_fn():
        h = swish(linear(x, w1, b1))
        return mean(softmax(matmul(h, w2), axis=-1) * matmul(h, w2))

    assert_grads_close(loss_fn, {"w1": w1, "b1": b1, "w2": w2})


def test_gradcheck_matmul_vector_left_operand():
    # a 1-D left operand is one row: (k,) @ (k, n) -> (n,)
    rng = np.random.default_rng(47)
    a = _param(rng, 4)
    b = _param(rng, 4, 3)
    probe = Tensor(rng.standard_normal(3))

    def loss_fn():
        return sum_(matmul(a, b) * probe)

    assert matmul(a, b).shape == probe.shape
    assert_grads_close(loss_fn, {"a": a, "b": b})


@pytest.mark.parametrize("b_shape", [(2, 4, 3), (4,)])
def test_matmul_refuses_a_right_operand_that_is_not_2d(b_shape):
    with pytest.raises(ParameterError) as info:
        matmul(Tensor(np.zeros((5, 4))), Tensor(np.zeros(b_shape)))
    message = str(info.value)
    assert "\n" not in message and "(5, 4)" in message and str(b_shape) in message


def test_gradcheck_layer_norm_and_conv():
    rng = np.random.default_rng(43)
    g = _param(rng, 6)
    b = _param(rng, 6)
    cw = _param(rng, 3, 6)
    cb = _param(rng, 6)
    x = Tensor(rng.standard_normal((2, 5, 6)))

    def loss_fn():
        h = causal_depthwise_conv(x, cw, cb)
        return mean(layer_norm(h, g, b) * h)

    assert_grads_close(loss_fn, {"gain": g, "bias": b, "conv_w": cw, "conv_b": cb})


def test_gradcheck_causal_conv():
    rng = np.random.default_rng(48)
    x = _param(rng, 3, 7, 4)
    w = _param(rng, 3, 4, 5)
    b = _param(rng, 5)
    probe = Tensor(rng.standard_normal((3, 7, 5)))

    def loss_fn():
        out = causal_conv(x, w, b)
        return mean(out * out * probe)

    assert_grads_close(loss_fn, {"x": x, "weight": w, "bias": b})


def test_gradcheck_attention():
    rng = np.random.default_rng(44)
    dh = 3
    # one block (T <= window), then T = 40 over several blocks whose key
    # ranges overlap
    for t, left, right in ((5, 2, 0), (40, 5, 2)):
        q = _param(rng, 1, 2, t, dh)
        k = _param(rng, 1, 2, t, dh)
        v = _param(rng, 1, 2, t, dh)
        mask = _band(t, left, right)

        def loss_fn():
            out = masked_attention(q, k, v, mask)
            return mean(out * out)

        assert_grads_close(loss_fn, {"q": q, "k": k, "v": v})


def test_gradcheck_gather_scatter():
    rng = np.random.default_rng(45)
    x = _param(rng, 6, 4)
    idx = np.array([0, 2, 2, 5])

    def loss_fn():
        rows = take_rows(x, idx)
        picked = take_entries(x, np.array([0, 1]), np.array([3, 2]))
        return mean(rows * rows) + sum_(picked * picked)

    assert_grads_close(loss_fn, {"x": x})


def test_gradcheck_log_softmax_pick():
    rng = np.random.default_rng(46)
    w = _param(rng, 4, 5)
    x = Tensor(rng.standard_normal((3, 4)))
    labels = np.array([1, 0, 4])

    def loss_fn():
        ls = log_softmax(matmul(x, w), axis=-1)
        return -mean(take_index_last(ls, labels))

    assert_grads_close(loss_fn, {"w": w})


# --------------------------------------------------------------------------
# MAC instrumentation


def test_mac_counter_matmul():
    a = Tensor(np.zeros((4, 5)))
    b = Tensor(np.zeros((5, 6)))
    with count_macs() as c:
        matmul(a, b)
    assert c.total == 4 * 5 * 6


def test_mac_counter_attention_counts_allowed_pairs_only():
    t, dh = 6, 4
    q = Tensor(np.zeros((1, 2, t, dh)))
    rows, cols = np.indices((t, t))
    mask = cols <= rows
    with count_macs() as c:
        masked_attention(q, q, q, mask)
    assert c.total == 2 * 1 * 2 * dh * int(mask.sum())


# --------------------------------------------------------------------------
# op surface


def test_every_public_op_runs_on_the_benchmarked_paths(monkeypatch):
    # training, evaluation and a MAC-counted forward on quick.cfg call every
    # public op and Tensor operator; one that none of them calls is code to
    # keep correct for nothing
    called = set()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    ops = {id(fn): counted(name, fn) for name, fn in vars(T).items()
           if not name.startswith("_") and inspect.isfunction(fn)
           and fn.__module__ == T.__name__}
    # rebind each op wherever the package holds it, also under a
    # ``from .tensor import`` name
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "moeformer":
            for attr, obj in list(vars(module).items()):
                if id(obj) in ops:
                    monkeypatch.setattr(module, attr, ops[id(obj)])
    operators = [name for name, fn in vars(Tensor).items()
                 if inspect.isfunction(fn) and name not in ("__init__", "__repr__")]
    for name in operators:
        monkeypatch.setattr(Tensor, name, counted(f"Tensor.{name}", vars(Tensor)[name]))

    raw = parse_kv_file(CONFIGS / "desk" / "quick.cfg")
    raw["train.steps"] = "3"
    task = task_from_flat(raw)
    model, _ = train(encoder_from_flat(raw), task, train_from_flat(raw))
    evaluate(model, task, num_batches=1, batch_size=2)
    feats, _, _ = generate_batch(task, np.random.default_rng(0))
    with T.count_macs():
        model.encoder.forward(feats)

    expected = {fn.__name__ for fn in ops.values()} | {f"Tensor.{n}" for n in operators}
    assert len(expected) > 20
    assert called == expected, f"never called: {sorted(expected - called)}"
