"""Numeric-core tests: op contracts, stability, and gradient correctness."""

import numpy as np
import pytest

from moeformer import ParameterError
from moeformer.tensor import (
    Tensor,
    causal_depthwise_conv,
    concat,
    count_macs,
    layer_norm,
    log_softmax,
    masked_attention,
    masked_softmax,
    matmul,
    mean,
    reshape,
    scatter_rows,
    sigmoid,
    slice_axis,
    softmax,
    sum_,
    swish,
    take_entries,
    take_index_last,
    take_rows,
    tensor,
    top_k,
    transpose,
)

from fdiff import assert_grads_close

import oracles


def _param(rng, *shape, dtype=np.float64):
    return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)


# --------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    out = softmax(tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)


def test_softmax_stability_extreme_logits():
    out = softmax(tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] > 0.999999
    assert out.data[1] < 1e-6


def test_softmax_matches_exponentiate_normalize_oracle():
    logits = np.log(np.array([4.0, 2.0, 1.0, 1.0]))
    expected = np.exp(logits) / np.exp(logits).sum()  # direct oracle
    out = softmax(tensor(logits, dtype=np.float64))
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
        softmax(tensor([1.0, 2.0]), axis=3)


# --------------------------------------------------------------------------
# top_k


def test_top_k_basic():
    idx, vals = top_k(tensor([3.0, 1.0, 2.0]), 2)
    assert idx.tolist() == [0, 2]
    assert vals.tolist() == [3.0, 2.0]


def test_top_k_tie_breaks_to_lowest_index():
    idx, vals = top_k(tensor([0.1, 0.4, 0.25, 0.25]), 2)
    assert idx.tolist() == [1, 2]
    np.testing.assert_allclose(vals, [0.4, 0.25])


def test_top_k_identity():
    idx, vals = top_k(tensor([5.0]), 1)
    assert idx.tolist() == [0]
    assert vals.tolist() == [5.0]


def test_top_k_pure_and_distinct():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.choice([0.0, 0.25, 0.5, 1.0], size=8)
        i1, v1 = top_k(v, 3)
        i2, v2 = top_k(v.copy(), 3)
        assert i1.tolist() == i2.tolist()
        assert len(set(i1.tolist())) == 3
        np.testing.assert_array_equal(v1, v2)


def test_top_k_invalid_k():
    with pytest.raises(ParameterError):
        top_k(tensor([1.0, 2.0]), 0)
    with pytest.raises(ParameterError):
        top_k(tensor([1.0, 2.0]), 3)


# --------------------------------------------------------------------------
# core op contracts


def test_matmul_identity():
    a = np.arange(9.0).reshape(3, 3)
    out = matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_shape_mismatch():
    with pytest.raises(ParameterError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


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


def test_masked_softmax_rejects_fully_masked_row():
    with pytest.raises(ParameterError):
        masked_softmax(Tensor(np.zeros((2, 3))), np.array([[True, True, True],
                                                           [False, False, False]]))


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
        h = swish(matmul(x, w1) + b1)
        return mean(softmax(matmul(h, w2), axis=-1) * matmul(h, w2))

    assert_grads_close(loss_fn, {"w1": w1, "b1": b1, "w2": w2})


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
        spread = scatter_rows(rows, np.array([1, 0, 3, 1]), 5)
        picked = take_entries(x, np.array([0, 1]), np.array([3, 2]))
        return mean(spread * spread) + sum_(picked * picked)

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


def test_gradcheck_randomized_small_graphs():
    # randomized op compositions; part of the wider gradient-correctness sweep
    rng = np.random.default_rng(47)
    for trial in range(5):
        d = int(rng.integers(3, 6))
        w1 = _param(rng, d, d + 2)
        w2 = _param(rng, d + 2, d)
        g = Tensor(np.ones(d), requires_grad=True)
        b = _param(rng, d)
        x = Tensor(rng.standard_normal((3, d)))

        def loss_fn():
            h = matmul(x, w1)
            h = sigmoid(h) * h
            h = matmul(h, w2)
            h = layer_norm(h, g, b)
            h = reshape(transpose(h, (1, 0)), (-1,))
            return mean(h * h)

        assert_grads_close(loss_fn, {"w1": w1, "w2": w2, "g": g, "b": b})


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
