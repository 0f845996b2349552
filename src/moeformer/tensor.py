"""Dense tensors with reverse-mode automatic differentiation.

numpy arrays hold the numeric buffers; the computation graph is the implicit
DAG of parent links each op records on its output. ``Tensor.backward`` walks
that DAG once in reverse topological order and accumulates gradients, so every
node's backward rule runs exactly once; an interior node's gradient is dropped
as soon as its rule has run, and only leaves keep theirs.

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


_no_grad_depth = 0


@contextlib.contextmanager
def no_grad():
    """Context manager under which ops record no graph: outputs carry no
    parents and no backward rule, so nothing is kept alive for a backward
    pass. For inference only; ``backward`` cannot reach through such outputs.
    Nests, and recording resumes on exit even when the body raises."""
    global _no_grad_depth
    _no_grad_depth += 1
    try:
        yield
    finally:
        _no_grad_depth -= 1


# --------------------------------------------------------------------------
# tensor core


class Tensor:
    """A dense array plus the graph links needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_slice",
                 "grad_slot")

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
        # (buffer, index, axis, span) while ``grad`` is a buffer that slice
        # backward rules of this backward pass own (see ``_accum_slice``)
        self._grad_slice: tuple | None = None
        # where an optimizer keeps this leaf's gradient (``training.Adam``
        # sets it); see ``_grad_out``
        self.grad_slot: Array | None = None

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # operator sugar; scalars fold into single nodes
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / float(other))
        raise ParameterError("tensor division is only supported by python scalars")

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
            # every consumer of node has run: its gradient is complete
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = None
            node._grad_slice = None


def _make(data: Array, parents: tuple[Tensor, ...], backward: Callable[[Array], None]) -> Tensor:
    # constant-fold: subgraphs with no trainable leaves record no parents
    if _no_grad_depth or not any(p.requires_grad for p in parents):
        return Tensor(data)
    out = Tensor(data, requires_grad=True)
    out._parents = parents
    out._backward = backward
    return out


def _accum(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _grad_out(t: Tensor, dtype) -> Array | None:
    """The buffer a leaf's first gradient contribution of a backward pass
    may be written into with ``out=``: its ``grad_slot``, when ``t`` has no
    gradient yet and the dtypes agree. Otherwise None, and the contribution
    goes through ``_accum`` as a fresh array."""
    slot = t.grad_slot
    if slot is not None and t.grad is None and slot.dtype == dtype:
        return slot
    return None


def _accum_slice(t: Tensor, axis: int, index: tuple, g: Array) -> None:
    """Accumulate ``g``, the gradient of ``t[index]`` (a basic slice along
    ``axis``), into ``t.grad`` with the result, bit for bit, of adding a
    zero array that holds ``g`` at ``index``.

    The first slice contribution allocates that zero array and keeps it as a
    buffer owned by ``t`` for this backward pass; a later slice that repeats
    or does not overlap the previous one adds into it in place, so k
    disjoint slices of one input cost one full-size buffer. Adding a padded
    slice's zeros turns -0.0 into +0.0; only the previous slice's entries
    can still hold -0.0, so they get that +0.0 added explicitly.
    """
    if not t.requires_grad:
        return
    span = range(*index[axis].indices(t.shape[axis]))
    g = g.astype(t.dtype, copy=False)
    owned = t._grad_slice
    if owned is not None and owned[0] is t.grad:
        buf, prev, prev_axis, prev_span = owned
        if prev != index and prev_axis == axis and _disjoint(prev_span, span):
            region = buf[prev]
            region += 0.0
            prev = index
        if prev == index:
            target = buf[index]
            target += g
            t._grad_slice = (buf, index, axis, span)
            return
    gx = np.zeros_like(t.data)
    gx[index] = g
    t.grad = gx if t.grad is None else t.grad + gx
    t._grad_slice = (t.grad, index, axis, span)


def _disjoint(a: range, b: range) -> bool:
    if a.step == b.step == 1:
        return a.stop <= b.start or b.stop <= a.start
    return set(a).isdisjoint(b)


# --------------------------------------------------------------------------
# arithmetic


def _same_shape(op: str, a, b) -> None:
    if not (isinstance(a, Tensor) and isinstance(b, Tensor)):
        raise ParameterError(
            f"{op}: operands must be Tensors, got {type(a).__name__} and {type(b).__name__}")
    if a.shape != b.shape:
        raise ParameterError(f"{op}: shapes differ, {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """``a + b`` for same-shape operands (a bias goes through ``linear``)."""
    _same_shape("add", a, b)

    def backward(g: Array) -> None:
        _accum(a, g)
        _accum(b, g)

    return _make(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """``a * b`` for same-shape operands."""
    _same_shape("mul", a, b)

    def backward(g: Array) -> None:
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _make(a.data * b.data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    def backward(g: Array) -> None:
        _accum(a, g * c)

    return _make(a.data * c, (a,), backward)


def add_scaled(x: Tensor, h: Tensor, c: float) -> Tensor:
    """``x + h * c`` for same-shape operands, as one node (a scaled residual)."""
    if x.shape != h.shape:
        raise ParameterError(f"add_scaled: shapes differ, {x.shape} and {h.shape}")
    data = np.multiply(h.data, c)
    np.add(x.data, data, out=data)

    def backward(g: Array) -> None:
        _accum(x, g)
        if h.requires_grad:
            _accum(h, g * c)

    return _make(data, (x, h), backward)


def _rows_times(rows: Array, w: Array, out: Array | None = None) -> Array:
    """``rows @ w`` for a (M, k) ``rows`` and a (k, n) ``w``, as one GEMM,
    into ``out`` when given (a lone row ignores it).

    A lone row is computed as row 0 of a two-row product: on its own,
    OpenBLAS sends it down the gemv path, which rounds differently from the
    same row inside a larger gemm (an expert that receives one routed frame,
    a one-frame streaming prefix).
    """
    if rows.shape[0] == 1:
        return np.matmul(np.repeat(rows, 2, axis=0), w)[:1]
    return np.matmul(rows, w, out=out)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for a (..., k) ``a`` of at least one axis and a (k, n) ``b``.

    The leading axes of ``a`` are flattened to M rows and each product is
    one GEMM: ``(M, k) @ (k, n)`` forward, ``(M, n) @ (n, k)`` for the input
    gradient and ``(k, M) @ (M, n)`` for the weight gradient. The BLAS
    exactness limits apply to those M rows: a row's forward result matches
    its value in a taller product only where the BLAS row results do not
    depend on M (a lone row runs inside a two-row product, see
    ``_rows_times``); with OpenBLAS that holds at the desk encoder's widths
    (96<->384, 64<->256, 96->96, 64->64) but not for wider inner dimensions
    (at 576->144, M <= 12 differs from M = 64). The gradients multiply by
    transposed operands, which OpenBLAS runs on an M-dependent path up to
    about 18 rows, so they match per-sequence products to rounding only.
    """
    if a.ndim < 1 or b.ndim != 2:
        raise ParameterError(
            f"matmul: left operand must be at least 1-D and right 2-D, "
            f"got {a.shape} @ {b.shape}")
    k, n = b.shape
    if a.shape[-1] != k:
        raise ParameterError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    data = _rows_times(a.data.reshape(-1, k), b.data).reshape(a.shape[:-1] + (n,))
    _tally(data.size * k)

    def backward(g: Array) -> None:
        g2 = g.reshape(-1, n)
        if a.requires_grad:
            _accum(a, np.matmul(g2, b.data.T).reshape(a.shape))
        if b.requires_grad:
            a2 = a.data.reshape(-1, k)
            out = _grad_out(b, np.result_type(a2, g2))
            _accum(b, np.matmul(a2.T, g2, out=out))

    return _make(data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``matmul(x, w) + b`` for a (n,) bias ``b``, as one node.

    The product comes from this module's ``matmul`` (whatever wraps that
    name sees the GEMM and its backward) and the bias is added into the
    product's buffer. The backward sums the bias gradient over the leading
    axes, into the bias's ``grad_slot`` when it can, then runs the product's
    own backward rule: the product never enters the tape. Bit for bit a
    ``matmul`` node followed by a broadcasting add.
    """
    if b.shape != w.shape[-1:]:
        raise ParameterError(f"linear: bias {b.shape} does not match weight {w.shape}")
    product = matmul(x, w)
    data = product.data
    data += b.data

    def backward(g: Array) -> None:
        if b.requires_grad:
            if g.ndim == 1:
                _accum(b, g)
            else:
                lead = tuple(range(g.ndim - 1))
                _accum(b, np.add.reduce(g, axis=lead, out=_grad_out(b, g.dtype)))
        if product._backward is not None:
            product._backward(g)

    return _make(data, (x, w, b), backward)


def sum_(x: Tensor, axis: int | None = None) -> Tensor:
    data = x.data.sum(axis=axis)

    def backward(g: Array) -> None:
        gg = g if axis is None else np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(gg, x.shape).copy())

    return _make(data, (x,), backward)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    n = x.size if axis is None else x.shape[axis]
    return scale(sum_(x, axis=axis), 1.0 / n)


# --------------------------------------------------------------------------
# shape ops


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    data = x.data.reshape(shape)

    def backward(g: Array) -> None:
        _accum(x, g.reshape(x.shape))

    return _make(data, (x,), backward)


def split_heads(x: Tensor, heads: int) -> Tensor:
    """(B, T, d) -> (B, heads, T, d // heads): each head's channels as one
    axis, a view of ``x``; one node for a reshape and a transpose."""
    b, t, d = x.shape
    if heads < 1 or d % heads:
        raise ParameterError(f"split_heads: width {d} does not split into {heads} heads")
    data = x.data.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)

    def backward(g: Array) -> None:
        _accum(x, g.transpose(0, 2, 1, 3).reshape(x.shape))

    return _make(data, (x,), backward)


def merge_heads(x: Tensor) -> Tensor:
    """(B, heads, T, dh) -> (B, T, heads * dh), the inverse of ``split_heads``."""
    b, h, t, dh = x.shape
    data = x.data.transpose(0, 2, 1, 3).reshape(b, t, h * dh)

    def backward(g: Array) -> None:
        _accum(x, g.reshape(b, t, h, dh).transpose(0, 2, 1, 3))

    return _make(data, (x,), backward)


def slice_axis(x: Tensor, axis: int, start=None, stop=None, step=None) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ParameterError(f"slice_axis: axis {axis} invalid for shape {x.shape}")
    axis %= x.ndim
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop, step)
    index = tuple(index)
    data = x.data[index]

    def backward(g: Array) -> None:
        _accum_slice(x, axis, index, g)

    return _make(data, (x,), backward)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
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
    """``1.0 / (1.0 + np.exp(-x))`` in one fresh buffer."""
    # exp may overflow to inf for hugely negative inputs (diverged training);
    # the result still limits correctly to 0, so silence the warning
    s = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    np.add(s, 1.0, out=s)
    return np.true_divide(1.0, s, out=s)


def swish(x: Tensor) -> Tensor:
    s = _sigmoid_values(x.data)
    data = x.data * s

    def backward(g: Array) -> None:
        # g * (s * (1.0 + x * (1.0 - s))), one buffer
        gx = np.subtract(1.0, s)
        np.multiply(x.data, gx, out=gx)
        np.add(gx, 1.0, out=gx)
        np.multiply(s, gx, out=gx)
        _accum(x, np.multiply(g, gx, out=gx))

    return _make(data, (x,), backward)


def glu(x: Tensor) -> Tensor:
    """Gated linear unit over the last axis: ``a * sigmoid(b)`` for the two
    halves ``a``, ``b`` of ``x``, as one node. Equal, bit for bit, to two
    ``slice_axis`` nodes, a sigmoid node and a ``mul``; the input gradient
    adds both halves into zeros as the slices' backward did (-0.0 becomes
    +0.0)."""
    if x.ndim < 1 or x.shape[-1] % 2:
        raise ParameterError(f"glu: last axis must have even length, got {x.shape}")
    d = x.shape[-1] // 2
    a, b = x.data[..., :d], x.data[..., d:]
    s = _sigmoid_values(b)
    data = a * s

    def backward(g: Array) -> None:
        gx = np.empty_like(x.data)
        ga, gb = gx[..., :d], gx[..., d:]
        np.multiply(g, s, out=ga)
        # ((g * a) * s) * (1.0 - s)
        np.multiply(g, a, out=gb)
        np.multiply(gb, s, out=gb)
        np.multiply(gb, np.subtract(1.0, s), out=gb)
        gx += 0.0
        _accum(x, gx)

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


def _mean_last(x: Array) -> Array:
    """``x.mean(axis=-1, keepdims=True)``: the same sum and one division."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    return np.true_divide(m, x.shape[-1], out=m)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    The forward keeps two full-size buffers (the normalized input and the
    output) and the backward makes two, with the arithmetic of the plain
    expression ``(x - mu) / sqrt(var + eps) * gain + bias`` and its
    textbook gradient, operation for operation.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ParameterError(
            f"layer_norm: gain/bias must have shape ({d},), got {gain.shape}/{bias.shape}"
        )
    xhat = np.subtract(x.data, _mean_last(x.data))
    data = np.multiply(xhat, xhat)  # the squares, until the output overwrites them
    inv = _mean_last(data)
    np.add(inv, eps, out=inv)
    np.sqrt(inv, out=inv)
    np.true_divide(1.0, inv, out=inv)
    np.multiply(xhat, inv, out=xhat)
    np.multiply(xhat, gain.data, out=data)
    np.add(data, bias.data, out=data)

    def backward(g: Array) -> None:
        if bias.requires_grad:
            _accum(bias, np.add.reduce(g.reshape(-1, d), axis=0,
                                       out=_grad_out(bias, g.dtype)))
        t = np.multiply(g, xhat)
        if gain.requires_grad:
            _accum(gain, np.add.reduce(t.reshape(-1, d), axis=0,
                                       out=_grad_out(gain, t.dtype)))
        if x.requires_grad:
            # inv * ((gx_hat - mean(gx_hat)) - xhat * mean(gx_hat * xhat))
            gx = np.multiply(g, gain.data)
            m1 = _mean_last(gx)
            np.multiply(gx, xhat, out=t)
            m2 = _mean_last(t)
            np.multiply(xhat, m2, out=t)
            np.subtract(gx, m1, out=gx)
            np.subtract(gx, t, out=gx)
            _accum(x, np.multiply(inv, gx, out=gx))

    return _make(data, (x, gain, bias), backward)


# --------------------------------------------------------------------------
# convolution and attention


def _pad_frames_before(x: Array, count: int) -> Array:
    """(B, T, C) ``x`` after ``count`` zero frames, in one slice copy."""
    out = np.zeros((x.shape[0], x.shape[1] + count, x.shape[2]), dtype=x.dtype)
    out[:, count:] = x
    return out


def causal_depthwise_conv(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-channel 1-D convolution over time, left-padded so frame t sees only <= t.

    ``x`` is (batch, frames, channels); ``weight`` is (kernel, channels) with
    weight[-1] applied to the current frame. The taps are added after the
    bias in tap order, each product made in one scratch buffer per call.
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
    xp = _pad_frames_before(x.data, k - 1)
    data = np.zeros(x.shape, np.result_type(x.data, weight.data, bias.data))
    data += bias.data
    scratch = np.empty_like(data)
    for j in range(k):
        data += np.multiply(weight.data[j], xp[:, j : j + t, :], out=scratch)
    _tally(b * t * k * d)

    def backward(g: Array) -> None:
        if bias.requires_grad:
            _accum(bias, np.add.reduce(g, axis=(0, 1), out=_grad_out(bias, g.dtype)))
        scratch = np.empty(g.shape, np.result_type(g, xp, weight.data))
        if weight.requires_grad:
            gw = _grad_out(weight, weight.dtype)
            if gw is None:
                gw = np.empty_like(weight.data)
            for j in range(k):
                gw[j] = np.add.reduce(np.multiply(g, xp[:, j : j + t, :], out=scratch),
                                      axis=(0, 1))
            _accum(weight, gw)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[:, j : j + t, :] += np.multiply(weight.data[j], g, out=scratch)
            _accum(x, gxp[:, k - 1 :, :])

    return _make(data, (x, weight, bias), backward)


def causal_conv(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Full 1-D convolution over time with left padding (frame t sees only <= t).

    ``x`` is (batch, frames, in_channels); ``weight`` is (kernel, in_channels,
    out_channels) with weight[-1] applied to the current frame. Each tap is
    one ``(batch*frames, in_channels) @ (in_channels, out_channels)`` GEMM
    with ``matmul``'s one-row rule, added after the bias in tap order. A
    call copies each tap's frames into one reused (batch*frames, in_channels)
    buffer, forward and backward, and keeps only the padded input between.
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
    xp = _pad_frames_before(x.data, k - 1)

    def taps():
        # tap j's frames as (batch*frames, in_channels) rows, in one buffer
        rows = np.empty((b, t, cin), xp.dtype)
        for j in range(k):
            np.copyto(rows, xp[:, j : j + t, :])
            yield j, rows.reshape(-1, cin)

    dtype = np.result_type(x.data, weight.data, bias.data)
    data = np.zeros((b * t, cout), dtype)
    data += bias.data
    product = np.empty_like(data)
    for j, rows in taps():
        data += _rows_times(rows, weight.data[j], out=product)
    data = data.reshape(b, t, cout)
    _tally(b * t * k * cin * cout)

    def backward(g: Array) -> None:
        if bias.requires_grad:
            _accum(bias, np.add.reduce(g, axis=(0, 1), out=_grad_out(bias, g.dtype)))
        g2 = g.reshape(-1, cout)
        if weight.requires_grad:
            gw = _grad_out(weight, np.result_type(xp, g2))
            if gw is None:
                gw = np.empty_like(weight.data)
            for j, rows in taps():
                np.matmul(rows.T, g2, out=gw[j])
            _accum(weight, gw)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            gx = np.empty((b * t, cin), np.result_type(g2, weight.data))
            for j in range(k):
                gxp[:, j : j + t, :] += np.matmul(g2, weight.data[j].T, out=gx).reshape(b, t, cin)
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
    ends, as one GEMM per block. Row r of a block can reach only keys
    [r, r + W) of it, its window, so the weighted sum over keys runs over
    the window alone (a padding query row attends its whole window, so that
    its softmax stays finite; its output is dropped, its gradient zero). Each window's
    mask is gathered from ``mask`` itself, so a mask that is not a band stays
    exact. When T <= W the band is the whole matrix: one block, keys [0, T),
    no padding. Past that every block has the same shape whatever T is, and
    the sums over keys (output and softmax normalizer, one contraction) run
    in key order, so frames already emitted stay bit-identical when the
    sequence grows, across the one-block / many-block boundary too: keys
    outside a row's window would add exact zeros in order.
    """
    if q.ndim != 4 or q.shape != k.shape or q.shape != v.shape:
        raise ParameterError(
            f"masked_attention: q/k/v must share a (B, H, T, dh) shape, "
            f"got {q.shape}/{k.shape}/{v.shape}"
        )
    b, h, t, dh = q.shape
    if mask.shape != (t, t):
        raise ParameterError(f"masked_attention: mask must be ({t}, {t}), got {mask.shape}")
    # first and last allowed key of each row (argmax needs at least one key);
    # a row with none has its argmax at a False entry
    frames = np.arange(t)
    first = mask.argmax(axis=1) if t else frames
    if not mask[frames, first].all():
        raise ParameterError("masked_attention: some query attends to nothing")
    last = t - 1 - np.ascontiguousarray(mask[:, ::-1]).argmax(axis=1) if t else frames
    left = int((frames - first).max(initial=0))
    right = int((last - frames).max(initial=0))
    w = left + right + 1
    # blocks, rows per block, padding keys before the first row, keys per block
    one_block = t <= w
    if one_block:
        n, w, pad, span = 1, t, 0, t
    else:
        n, pad, span = -(-t // w), left, 2 * w - 1
    rows, cols = n * w, (n - 1) * w + span  # padded query and key frames

    def pad_frames(x: Array, before: int, total: int) -> Array:
        if total == t:
            return x
        out = np.zeros((b, h, total, dh), dtype=x.dtype)
        out[:, :, before : before + t] = x
        return out

    def query_blocks(x: Array) -> Array:
        return pad_frames(x, 0, rows).reshape(b, h, n, w, dh)

    def key_blocks(x: Array) -> Array:
        # view whose block i starts w frames after block i-1
        x = pad_frames(x, pad, cols)
        if one_block:
            return x[:, :, None]
        s = x.strides
        return as_strided(x, (b, h, n, span, dh), s[:2] + (w * s[2],) + s[2:],
                          writeable=False)

    def unblock(gx: Array) -> Array:
        # gx holds per-block key gradients; block i's key j is padded frame
        # i*w + j, so every key sits in two neighbouring blocks: one add each
        if one_block:
            return gx[:, :, 0]
        out = np.zeros((b, h, n + 1, w, dh), dtype=gx.dtype)
        out[:, :, :n] += gx[:, :, :, :w]
        out[:, :, 1:, : w - 1] += gx[:, :, :, w:]
        return out.reshape(b, h, -1, dh)[:, :, pad : pad + t]

    # (n, w, span) 0 where a score is attended, -inf elsewhere: one gather
    # from ``mask`` over the windows, for real query rows and real keys
    dtype = np.result_type(q.data, k.data)
    if one_block:
        shut = np.where(mask, 0.0, -np.inf).astype(dtype)
    else:
        shut = np.full((n, w, span), -np.inf, dtype)
        query = np.arange(rows).reshape(n, w, 1)
        key = query - left + np.arange(w)
        seen = np.take(mask, (query * t + key).clip(0, t * t - 1))
        seen &= (key >= 0) & (key < t)
        seen |= query >= t
        s = shut.strides
        window = as_strided(shut, (n, w, w), (s[0], s[1] + s[2], s[2]))
        np.copyto(window, 0.0, where=seen)

    inv = float(1.0 / np.sqrt(dh))
    # scale, fill, shift and exponentiate in the GEMM's own buffer; adding
    # +0.0 changes only a -0.0 score, to +0.0, and the shift makes either
    # one a zero that exp maps to 1: the weights of filling with -inf
    e = np.matmul(query_blocks(q.data), np.swapaxes(key_blocks(k.data), -1, -2))
    e *= inv
    e += shut
    e -= e.max(axis=-1, keepdims=True, initial=-np.inf)
    np.exp(e, out=e)
    # values carry a column of ones, so the one contraction over keys also
    # yields each row's softmax normalizer, summed in the same key order
    values = np.ones((b, h, cols, dh + 1), dtype=v.dtype)
    values[:, :, pad : pad + t, :dh] = v.data
    if one_block:
        weighted = np.einsum("bhnwk,bhnkd->bhnwd", e, values[:, :, None])
    else:
        # row r's keys [r, r + w) of its block: a diagonal view of the
        # weights and an overlapping view of the values
        s, sv = e.strides, values.strides
        diag = as_strided(e, (b, h, n, w, w), s[:3] + (s[3] + s[4], s[4]), writeable=False)
        win = as_strided(values, (b, h, n, w, w, dh + 1),
                         sv[:2] + (w * sv[2], sv[2], sv[2], sv[3]), writeable=False)
        weighted = np.einsum("bhnwj,bhnwjd->bhnwd", diag, win)
    norm = weighted[..., dh:].copy()
    data = (weighted[..., :dh] / norm).reshape(b, h, rows, dh)[:, :, :t]
    _tally(2 * b * h * dh * np.count_nonzero(mask))

    def backward(g: Array) -> None:
        # the blocks are rebuilt from the parents: the tape keeps only the
        # weights and their normalizer
        gb = pad_frames(g, 0, rows).reshape(b, h, n, w, dh)
        p = e / norm
        if v.requires_grad:
            _accum(v, unblock(np.matmul(np.swapaxes(p, -1, -2), gb)))
        if q.requires_grad or k.requires_grad:
            gp = np.matmul(gb, np.swapaxes(key_blocks(v.data), -1, -2))
            inner = (gp * p).sum(axis=-1, keepdims=True)
            gs = p * (gp - inner) * inv
            if q.requires_grad:
                _accum(q, np.matmul(gs, key_blocks(k.data)).reshape(b, h, rows, dh)[:, :, :t])
            if k.requires_grad:
                _accum(k, unblock(np.matmul(np.swapaxes(gs, -1, -2), query_blocks(q.data))))

    return _make(data, (q, k, v), backward)


# --------------------------------------------------------------------------
# gathers (selection indices are constants under differentiation)


def take_rows(x: Tensor, idx: Array) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    data = x.data[idx]

    def backward(g: Array) -> None:
        gx = np.zeros_like(x.data)
        _add_rows_at(gx, idx, g)
        _accum(x, gx)

    return _make(data, (x,), backward)


def _add_rows_at(out: Array, idx: Array, g: Array) -> None:
    """``np.add.at(out, idx, g)`` for in-range row indices, bit for bit.

    Unique rows take one indexed add. A repeated row gets its terms in index
    order, as ``np.add.at`` adds them: round k adds every row's k-th
    occurrence, and the rows of one round are unique.
    """
    rows = idx.reshape(-1) % max(out.shape[0], 1)
    g = g.reshape(rows.shape + out.shape[1:])
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    new_row = np.ones(rows.size, dtype=bool)
    new_row[1:] = sorted_rows[1:] != sorted_rows[:-1]
    if new_row.all():
        out[rows] += g
        return
    starts = np.flatnonzero(new_row)
    rank = np.arange(rows.size) - np.repeat(starts, np.diff(np.append(starts, rows.size)))
    for k in range(int(rank.max()) + 1):
        pick = order[rank == k]
        out[rows[pick]] += g[pick]


def combine_top2(x: Tensor, pos: Array, gates: Tensor) -> Tensor:
    """Each frame's two slot outputs weighted by its gates and summed, as
    one node: ``out[f] = x[pos[f, 0]] * gates[f, 0] + x[pos[f, 1]] * gates[f, 1]``.

    ``x`` holds the slot outputs as rows in any order and ``pos`` (frames, 2)
    the row of each. Bit for bit a ``take_rows`` of ``x`` by ``pos``, two
    reshapes, a broadcasting ``mul`` and a ``sum_`` over the slots; the
    gathered rows are not kept, the backward gathers them again.
    """
    pos = np.asarray(pos, dtype=np.int64)
    frames = pos.shape[0]
    if pos.shape != (frames, 2) or gates.shape != (frames, 2) or x.ndim != 2:
        raise ParameterError(
            f"combine_top2: need (frames, 2) positions and gates over rows of x, "
            f"got {pos.shape}, {gates.shape} and {x.shape}")
    weighted = x.data[pos]
    np.multiply(weighted, gates.data[:, :, None], out=weighted)
    # summing the slots starts from +0.0, as np.sum does
    data = np.add(weighted[:, 0], 0.0)
    data += weighted[:, 1]

    def backward(g: Array) -> None:
        if gates.requires_grad:
            _accum(gates, np.add.reduce(np.multiply(g[:, None, :], x.data[pos]), axis=2))
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            _add_rows_at(gx, pos, np.multiply(g[:, None, :], gates.data[:, :, None]))
            _accum(x, gx)

    return _make(data, (x, gates), backward)


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
