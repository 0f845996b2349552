"""Dense tensors with reverse-mode automatic differentiation.

numpy arrays hold the numeric buffers; the computation graph is the implicit
DAG of parent links each op records on its output. ``Tensor.backward`` walks
that DAG once in reverse topological order and accumulates gradients, so every
node's backward rule runs exactly once.

All ops are out-of-place and deterministic. 32-bit floats are the working
precision; building a graph from float64 leaves switches the whole graph to
64-bit (used by gradient-check and oracle-equivalence tests).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ParameterError

Array = np.ndarray


# --------------------------------------------------------------------------
# multiply-accumulate instrumentation


class MacCounter:
    """Tallies multiply-accumulate ops executed by matmul / conv / attention."""

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, n: int) -> None:
        self.total += int(n)


_mac_counters: list[MacCounter] = []


@contextlib.contextmanager
def count_macs():
    """Context manager yielding a MacCounter active for the enclosed forward ops."""
    counter = MacCounter()
    _mac_counters.append(counter)
    try:
        yield counter
    finally:
        _mac_counters.remove(counter)


def _tally(n: int) -> None:
    if _mac_counters:
        for c in _mac_counters:
            c.add(n)


# --------------------------------------------------------------------------
# tensor core


class Tensor:
    """A dense array plus the graph links needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, np.ndarray):
            pass
        elif isinstance(data, np.generic):
            data = np.asarray(data)  # reductions yield numpy scalars; keep their dtype
        else:
            data = np.asarray(data, dtype=np.float32)
        self.data = data
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # operator sugar; scalars fold into single nodes
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / float(other))
        raise ParameterError("tensor division is only supported by python scalars")

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self) -> None:
        """Backpropagate from this scalar node to every reachable parameter."""
        if self.data.ndim != 0:
            raise ParameterError(
                f"backward() requires a scalar loss node, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def tensor(data, dtype=np.float32, requires_grad: bool = False) -> Tensor:
    """Build a tensor from array-like data, float32 unless told otherwise."""
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=requires_grad)


def _make(data: Array, parents: tuple[Tensor, ...], backward: Callable[[Array], None]) -> Tensor:
    # constant-fold: subgraphs with no trainable leaves record no parents
    if not any(p.requires_grad for p in parents):
        return Tensor(data)
    out = Tensor(data, requires_grad=True)
    out._parents = parents
    out._backward = backward
    return out


def _accum(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# --------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ParameterError(f"add: incompatible shapes {a.shape} and {b.shape}") from exc

    def backward(g: Array) -> None:
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError as exc:
        raise ParameterError(f"sub: incompatible shapes {a.shape} and {b.shape}") from exc

    def backward(g: Array) -> None:
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ParameterError(f"mul: incompatible shapes {a.shape} and {b.shape}") from exc

    def backward(g: Array) -> None:
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    def backward(g: Array) -> None:
        _accum(a, g * c)

    return _make(a.data * c, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 1 or b.ndim < 2:
        raise ParameterError(f"matmul: operands must be at least 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ParameterError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)
    _tally(data.size * a.shape[-1])

    def backward(g: Array) -> None:
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accum(a, _unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accum(b, _unbroadcast(gb, b.shape))

    return _make(data, (a, b), backward)


def sum_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g: Array) -> None:
        if axis is None:
            _accum(x, np.broadcast_to(g, x.shape).copy())
            return
        gg = g if keepdims else np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(gg, x.shape).copy())

    return _make(data, (x,), backward)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = x.size
    else:
        n = x.shape[axis] if isinstance(axis, int) else int(np.prod([x.shape[i] for i in axis]))
    return scale(sum_(x, axis=axis, keepdims=keepdims), 1.0 / n)


# --------------------------------------------------------------------------
# shape ops


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    data = x.data.reshape(shape)

    def backward(g: Array) -> None:
        _accum(x, g.reshape(x.shape))

    return _make(data, (x,), backward)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    data = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g: Array) -> None:
        _accum(x, g.transpose(inverse))

    return _make(data, (x,), backward)


def slice_axis(x: Tensor, axis: int, start=None, stop=None, step=None) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ParameterError(f"slice_axis: axis {axis} invalid for shape {x.shape}")
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop, step)
    index = tuple(index)
    data = x.data[index]

    def backward(g: Array) -> None:
        gx = np.zeros_like(x.data)
        gx[index] = g
        _accum(x, gx)

    return _make(data, (x,), backward)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ParameterError("concat: need at least one tensor")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ParameterError(f"concat: incompatible shapes {[p.shape for p in parts]}") from exc
    sizes = [p.shape[axis] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def backward(g: Array) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(int(lo), int(hi))
            _accum(p, g[tuple(index)])

    return _make(data, tuple(parts), backward)


# --------------------------------------------------------------------------
# nonlinearities and normalization


def _sigmoid_values(x: Array) -> Array:
    # exp may overflow to inf for hugely negative inputs (diverged training);
    # the result still limits correctly to 0, so silence the warning
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(x: Tensor) -> Tensor:
    data = _sigmoid_values(x.data)

    def backward(g: Array) -> None:
        _accum(x, g * data * (1.0 - data))

    return _make(data, (x,), backward)


def swish(x: Tensor) -> Tensor:
    s = _sigmoid_values(x.data)
    data = x.data * s

    def backward(g: Array) -> None:
        _accum(x, g * (s * (1.0 + x.data * (1.0 - s))))

    return _make(data, (x,), backward)


def _normalize_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ParameterError(f"axis {axis} invalid for a rank-{ndim} tensor")
    return axis % ndim


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Probability-normalize along ``axis`` with max-subtraction for stability."""
    ax = _normalize_axis(axis, x.ndim)
    m = x.data.max(axis=ax, keepdims=True)
    e = np.exp(x.data - m)
    data = e / e.sum(axis=ax, keepdims=True)

    def backward(g: Array) -> None:
        inner = (g * data).sum(axis=ax, keepdims=True)
        _accum(x, data * (g - inner))

    return _make(data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    ax = _normalize_axis(axis, x.ndim)
    m = x.data.max(axis=ax, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=ax, keepdims=True))
    data = shifted - lse

    def backward(g: Array) -> None:
        _accum(x, g - np.exp(data) * g.sum(axis=ax, keepdims=True))

    return _make(data, (x,), backward)


def masked_softmax(x: Tensor, mask: Array, axis: int = -1) -> Tensor:
    """Softmax over the positions where ``mask`` is True; masked entries get 0.

    Masked logits never influence the result (the row max is taken after
    masking), so perturbing them leaves the output bit-identical.
    """
    ax = _normalize_axis(axis, x.ndim)
    mask = np.broadcast_to(mask, x.shape)
    if not mask.any(axis=ax).all():
        raise ParameterError("masked_softmax: some row has no unmasked entry")
    filled = np.where(mask, x.data, -np.inf)
    m = filled.max(axis=ax, keepdims=True)
    e = np.exp(filled - m)
    data = e / e.sum(axis=ax, keepdims=True)

    def backward(g: Array) -> None:
        inner = (g * data).sum(axis=ax, keepdims=True)
        _accum(x, data * (g - inner))

    return _make(data, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ParameterError(
            f"layer_norm: gain/bias must have shape ({d},), got {gain.shape}/{bias.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def backward(g: Array) -> None:
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, d).sum(axis=0))
        if gain.requires_grad:
            _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx_hat = g * gain.data
            m1 = gx_hat.mean(axis=-1, keepdims=True)
            m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
            _accum(x, inv * (gx_hat - m1 - xhat * m2))

    return _make(data, (x, gain, bias), backward)


# --------------------------------------------------------------------------
# convolution and attention


def causal_depthwise_conv(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-channel 1-D convolution over time, left-padded so frame t sees only <= t.

    ``x`` is (batch, frames, channels); ``weight`` is (kernel, channels) with
    weight[-1] applied to the current frame.
    """
    if x.ndim != 3:
        raise ParameterError(f"causal_depthwise_conv: expected (B, T, D) input, got {x.shape}")
    k, d = weight.shape
    if d != x.shape[-1] or bias.shape != (d,):
        raise ParameterError(
            f"causal_depthwise_conv: weight {weight.shape} / bias {bias.shape} "
            f"do not match input {x.shape}"
        )
    b, t, _ = x.shape
    xp = np.pad(x.data, ((0, 0), (k - 1, 0), (0, 0)))
    data = np.zeros_like(x.data) + bias.data
    for j in range(k):
        data = data + weight.data[j] * xp[:, j : j + t, :]
    _tally(b * t * k * d)

    def backward(g: Array) -> None:
        if bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 1)))
        if weight.requires_grad:
            gw = np.empty_like(weight.data)
            for j in range(k):
                gw[j] = (g * xp[:, j : j + t, :]).sum(axis=(0, 1))
            _accum(weight, gw)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[:, j : j + t, :] += weight.data[j] * g
            _accum(x, gxp[:, k - 1 :, :])

    return _make(data, (x, weight, bias), backward)


def causal_conv(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Full 1-D convolution over time with left padding (frame t sees only <= t).

    ``x`` is (batch, frames, in_channels); ``weight`` is (kernel, in_channels,
    out_channels) with weight[-1] applied to the current frame.
    """
    if x.ndim != 3 or weight.ndim != 3:
        raise ParameterError(
            f"causal_conv: expected (B, T, Cin) input and (K, Cin, Cout) weight, "
            f"got {x.shape} and {weight.shape}"
        )
    k, cin, cout = weight.shape
    if cin != x.shape[-1] or bias.shape != (cout,):
        raise ParameterError(
            f"causal_conv: weight {weight.shape} / bias {bias.shape} do not match "
            f"input {x.shape}"
        )
    b, t, _ = x.shape
    xp = np.pad(x.data, ((0, 0), (k - 1, 0), (0, 0)))
    data = np.zeros((b, t, cout), dtype=x.dtype) + bias.data
    for j in range(k):
        data = data + np.matmul(xp[:, j : j + t, :], weight.data[j])
    _tally(b * t * k * cin * cout)

    def backward(g: Array) -> None:
        if bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 1)))
        if weight.requires_grad:
            gw = np.empty_like(weight.data)
            for j in range(k):
                gw[j] = np.einsum("bti,bto->io", xp[:, j : j + t, :], g)
            _accum(weight, gw)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[:, j : j + t, :] += np.matmul(g, weight.data[j].T)
            _accum(x, gxp[:, k - 1 :, :])

    return _make(data, (x, weight, bias), backward)


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask: Array) -> Tensor:
    """Scaled-dot-product attention restricted to mask-allowed (query, key) pairs.

    Inputs are (batch, heads, frames, head_dim); ``mask`` is a boolean
    (frames, frames) array, True where the query row may attend. MACs are
    tallied for allowed pairs only, matching a windowed streaming execution.

    Only the diagonal band that holds every allowed pair is computed. With
    ``left``/``right`` the farthest any row reaches behind/ahead of itself
    and ``W = left + right + 1``, the queries go in blocks of W rows and
    block n scores keys [nW - left, nW + W + right), zero-padded at both
    ends: T * (W + left + right) pairs instead of T^2. Each block's mask is
    gathered from ``mask`` itself, so a mask that is not a band stays exact.
    When T <= W the band is the whole matrix: one block, keys [0, T), no
    padding. Past that every block has the same shape whatever T is, and
    the sums over keys (output and softmax normalizer, one contraction) run
    in key order, so frames already emitted stay bit-identical when the
    sequence grows, across the one-block / many-block boundary too.
    """
    if q.ndim != 4 or q.shape != k.shape or q.shape != v.shape:
        raise ParameterError(
            f"masked_attention: q/k/v must share a (B, H, T, dh) shape, "
            f"got {q.shape}/{k.shape}/{v.shape}"
        )
    b, h, t, dh = q.shape
    if mask.shape != (t, t):
        raise ParameterError(f"masked_attention: mask must be ({t}, {t}), got {mask.shape}")
    if not mask.any(axis=1).all():
        raise ParameterError("masked_attention: some query attends to nothing")
    # first and last allowed key of each row (argmax needs at least one key)
    frames = np.arange(t)
    first = mask.argmax(axis=1) if t else frames
    last = t - 1 - np.ascontiguousarray(mask[:, ::-1]).argmax(axis=1) if t else frames
    left = int((frames - first).max(initial=0))
    right = int((last - frames).max(initial=0))
    w = left + right + 1
    # blocks, rows per block, padding keys before the first row, keys per block
    if t > w:
        n, pad, span = -(-t // w), left, 2 * w - 1
    else:
        n, w, pad, span = 1, t, 0, t
    rows, cols = n * w, (n - 1) * w + span  # padded query and key frames

    def pad_frames(x: Array, before: int, total: int) -> Array:
        if total == t:
            return x
        out = np.zeros((b, h, total, dh), dtype=x.dtype)
        out[:, :, before : before + t] = x
        return out

    def diagonal_blocks(x: Array, shape, axis: int) -> Array:
        # view whose block i starts w frames after block i-1 along ``axis``;
        # axis 0 steps a (rows, cols) mask down its diagonal
        if n == 1:
            return np.expand_dims(x, axis)
        s = x.strides
        step = w * (s[0] + s[1]) if axis == 0 else w * s[axis]
        return as_strided(x, shape, s[:axis] + (step,) + s[axis:], writeable=False)

    def unblock(gx: Array) -> Array:
        # gx holds per-block key gradients; block i's key j is padded frame
        # i*w + j, so every key sits in two neighbouring blocks: one add each
        if n == 1:
            return gx[:, :, 0]
        out = np.zeros((b, h, n + 1, w, dh), dtype=gx.dtype)
        out[:, :, :n] += gx[:, :, :, :w]
        out[:, :, 1:, : w - 1] += gx[:, :, :, w:]
        return out.reshape(b, h, -1, dh)[:, :, pad : pad + t]

    qb = pad_frames(q.data, 0, rows).reshape(b, h, n, w, dh)
    kb = diagonal_blocks(pad_frames(k.data, pad, cols), (b, h, n, span, dh), 2)
    # values carry a column of ones, so the one contraction over keys also
    # yields each row's softmax normalizer, summed in the same key order;
    # padding keys get weight exactly 0, so their (unit) values never count
    values = np.ones((b, h, cols, dh + 1), dtype=v.dtype)
    values[:, :, pad : pad + t, :dh] = v.data
    vb = diagonal_blocks(values, (b, h, n, span, dh + 1), 2)
    # padding query rows attend to their whole block so that their softmax
    # stays finite; their outputs are dropped and their gradients are zero
    padded = np.ones((rows, cols), dtype=bool)
    padded[:t] = False
    padded[:t, pad : pad + t] = mask
    allowed = diagonal_blocks(padded, (n, w, span), 0)

    inv = float(1.0 / np.sqrt(dh))
    scores = np.matmul(qb, np.swapaxes(kb, -1, -2)) * inv
    filled = np.where(allowed, scores, -np.inf)
    e = np.exp(filled - filled.max(axis=-1, keepdims=True, initial=-np.inf))
    # einsum sums over keys in order, so keys a row may not see (padding, or
    # frames a longer sequence adds) contribute exact zeros wherever they sit
    weighted = np.einsum("bhnwk,bhnkd->bhnwd", e, vb)
    norm = weighted[..., dh:]
    data = (weighted[..., :dh] / norm).reshape(b, h, rows, dh)[:, :, :t]
    _tally(2 * b * h * dh * np.count_nonzero(mask))

    def backward(g: Array) -> None:
        gb = pad_frames(g, 0, rows).reshape(b, h, n, w, dh)
        p = e / norm
        if v.requires_grad:
            _accum(v, unblock(np.matmul(np.swapaxes(p, -1, -2), gb)))
        if q.requires_grad or k.requires_grad:
            gp = np.matmul(gb, np.swapaxes(vb[..., :dh], -1, -2))
            inner = (gp * p).sum(axis=-1, keepdims=True)
            gs = p * (gp - inner) * inv
            if q.requires_grad:
                _accum(q, np.matmul(gs, kb).reshape(b, h, rows, dh)[:, :, :t])
            if k.requires_grad:
                _accum(k, unblock(np.matmul(np.swapaxes(gs, -1, -2), qb)))

    return _make(data, (q, k, v), backward)


# --------------------------------------------------------------------------
# gather / scatter (selection indices are constants under differentiation)


def take_rows(x: Tensor, idx: Array) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    data = x.data[idx]

    def backward(g: Array) -> None:
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        _accum(x, gx)

    return _make(data, (x,), backward)


def scatter_rows(values: Tensor, idx: Array, size: int) -> Tensor:
    """Place rows of ``values`` at positions ``idx`` of a zero (size, ...) tensor."""
    idx = np.asarray(idx, dtype=np.int64)
    data = np.zeros((size,) + values.shape[1:], dtype=values.dtype)
    np.add.at(data, idx, values.data)

    def backward(g: Array) -> None:
        _accum(values, g[idx])

    return _make(data, (values,), backward)


def take_entries(x: Tensor, rows: Array, cols: Array) -> Tensor:
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    data = x.data[rows, cols]

    def backward(g: Array) -> None:
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, cols), g)
        _accum(x, gx)

    return _make(data, (x,), backward)


def take_index_last(x: Tensor, idx: Array) -> Tensor:
    """Pick one entry along the last axis per position: out[...] = x[..., idx[...]]."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != x.shape[:-1]:
        raise ParameterError(
            f"take_index_last: index shape {idx.shape} must match {x.shape[:-1]}"
        )
    data = np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0]

    def backward(g: Array) -> None:
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx[..., None], g[..., None], axis=-1)
        _accum(x, gx)

    return _make(data, (x,), backward)


# --------------------------------------------------------------------------
# selection


def top_k(values, k: int) -> tuple[Array, Array]:
    """Indices and values of the k largest entries of a vector, descending.

    Ties break toward the lowest index. Not differentiable by design: routing
    selections are constants under differentiation.
    """
    v = values.data if isinstance(values, Tensor) else np.asarray(values)
    if v.ndim != 1:
        raise ParameterError(f"top_k: expected a vector, got shape {v.shape}")
    if k <= 0 or k > v.shape[0]:
        raise ParameterError(f"top_k: k={k} invalid for length {v.shape[0]}")
    order = np.argsort(-v, kind="stable")
    idx = order[:k]
    return idx.astype(np.int64), v[idx]
