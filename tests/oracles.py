"""Independent numpy reference implementations used as test oracles.

Everything here is written against raw arrays, deliberately sharing no code
with the package's graph ops, except ``dense_moe_forward``,
``per_group_adapters``, ``padded_slice_axis``, ``batched_matmul``, the
broadcasting ``broadcast_add`` / ``broadcast_mul`` and the composite ops
(``sigmoid_node`` through ``banded_attention``): those are built from tensor ops
so that a graph using them still backpropagates.
"""

from __future__ import annotations

import numpy as np

from moeformer import tensor as T
from moeformer.moe import route_top2
from moeformer.synth import generators_for


def softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     mask: np.ndarray) -> np.ndarray:
    """Scaled-dot-product attention over all T x T pairs; pairs outside
    ``mask`` get zero weight. q/k/v are (..., T, dh), ``mask`` is (T, T)."""
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(q.shape[-1])
    return softmax_rows(np.where(mask, scores, -np.inf)) @ v


def swish(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def expert_ffn(x: np.ndarray, w1, b1, w2, b2) -> np.ndarray:
    return swish(x @ w1 + b1) @ w2 + b2


def top2_rows(gates: np.ndarray) -> np.ndarray:
    """Indices of the two largest entries per row, ties to the lowest index."""
    return np.argsort(-gates, axis=1, kind="stable")[:, :2]


def dense_zeroed_mixture(x: np.ndarray, gate_w: np.ndarray, experts) -> np.ndarray:
    """Evaluate ALL experts, zero the non-selected contributions, and sum.

    ``experts`` is a list of (w1, b1, w2, b2) tuples.
    """
    gates = softmax_rows(x @ gate_w)
    idx = top2_rows(gates)
    selected = np.zeros_like(gates)
    np.put_along_axis(selected, idx, 1.0, axis=1)
    y = np.zeros_like(x)
    for i, weights in enumerate(experts):
        y = y + (gates[:, i] * selected[:, i])[:, None] * expert_ffn(x, *weights)
    return y


def dense_moe_forward(layer, x):
    """Dense execution of ``MoELayer.forward``: every expert runs on every
    frame and the contributions of non-selected experts are zeroed.

    Same signature and return as the routed forward, so tests install it in
    its place (``monkeypatch.setattr(MoELayer, "forward", dense_moe_forward)``)
    to train a twin model on the dense path.
    """
    gates = layer.gate(x)
    decision = route_top2(gates)
    selected = np.zeros((decision.num_frames, layer.num_experts), dtype=x.dtype)
    np.put_along_axis(selected, decision.top2_idx, 1.0, axis=1)
    y = None
    for i, expert in enumerate(layer.experts):
        layer.evaluations += decision.num_frames
        weight = T.slice_axis(gates, 1, i, i + 1) * T.Tensor(selected[:, i : i + 1])
        term = broadcast_mul(expert.forward(x), weight)
        y = term if y is None else y + term
    return y, decision


def per_group_adapters(bank, x, group_ids):
    """``AdapterBank.forward`` one group at a time: gather the group's
    sequences, run its adapter, scatter the rows into a zero batch (one
    ``np.add.at``), and sum the scattered batches over the groups present."""
    out = None
    for g in np.unique(group_ids):
        rows = np.flatnonzero(group_ids == g)
        piece = bank.groups[g](T.take_rows(x, rows))
        data = np.zeros((x.shape[0],) + piece.shape[1:], dtype=piece.dtype)
        np.add.at(data, rows, piece.data)

        def backward(grad, piece=piece, rows=rows):
            T._accum(piece, grad[rows])

        scattered = T._make(data, (piece,), backward)
        out = scattered if out is None else out + scattered
    return out


def brute_force_aux_loss(gates: np.ndarray) -> float:
    """Recompute the load-balancing loss from raw gate rows alone."""
    s, n = gates.shape
    idx = top2_rows(gates)
    counts = np.bincount(idx.reshape(-1), minlength=n)
    mean_gates = gates.mean(axis=0)
    return float(np.sum((counts / s) * mean_gates) / n)


def layer_norm_rows(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                    eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def positional_encoding(num_frames: int, dim: int, dtype) -> np.ndarray:
    """The sinusoidal table computed for exactly ``num_frames`` rows."""
    pos = np.arange(num_frames, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / max(dim, 1))
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle)).astype(dtype)


def attention_window_mask(t: int, left: int, right: int) -> np.ndarray:
    rows, cols = np.indices((t, t))
    return (cols >= rows - left) & (cols <= rows + right)


def plain_attention(x: np.ndarray, wq, bq, wk, bk, wv, bv, wo, bo,
                    heads: int, mask: np.ndarray) -> np.ndarray:
    """Multi-headed masked self-attention over a single (T, d) sequence."""
    t, d = x.shape
    dh = d // heads
    q = (x @ wq + bq).reshape(t, heads, dh).transpose(1, 0, 2)
    k = (x @ wk + bk).reshape(t, heads, dh).transpose(1, 0, 2)
    v = (x @ wv + bv).reshape(t, heads, dh).transpose(1, 0, 2)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(dh)
    scores = np.where(mask, scores, -np.inf)
    probs = softmax_rows(scores)
    out = (probs @ v).transpose(1, 0, 2).reshape(t, d)
    return out @ wo + bo


def causal_depthwise(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Depthwise causal conv over a (T, d) sequence; w[-1] hits the current frame."""
    k = w.shape[0]
    t = x.shape[0]
    xp = np.pad(x, ((k - 1, 0), (0, 0)))
    out = np.zeros_like(x) + b
    for j in range(k):
        out = out + w[j] * xp[j : j + t]
    return out


def plain_conformer_layer(x: np.ndarray, p: dict, heads: int, mask: np.ndarray,
                          moe_end_experts=None, gate_w=None) -> np.ndarray:
    """Reference forward for one layer over a (T, d) sequence.

    ``p`` maps the layer's parameter names to raw arrays. With
    ``moe_end_experts``/``gate_w`` given, the end feed-forward becomes a
    dense zeroed top-2 mixture behind a full residual.
    """
    d = x.shape[-1]

    def ln(h, tag):
        return layer_norm_rows(h, p[f"{tag}.g"], p[f"{tag}.b"])

    def ffn(h, tag):
        return swish(h @ p[f"{tag}.w1"] + p[f"{tag}.b1"]) @ p[f"{tag}.w2"] + p[f"{tag}.b2"]

    x = x + 0.5 * ffn(ln(x, "ffn_start.ln"), "ffn_start")
    x = x + plain_attention(
        ln(x, "attn.ln"),
        p["attn.wq"], p["attn.bq"], p["attn.wk"], p["attn.bk"],
        p["attn.wv"], p["attn.bv"], p["attn.wo"], p["attn.bo"],
        heads, mask,
    )
    h = ln(x, "conv.ln") @ p["conv.pw1.w"] + p["conv.pw1.b"]
    gated = h[:, :d] / (1.0 + np.exp(-h[:, d:]))  # a * sigmoid(b)
    h = causal_depthwise(gated, p["conv.dw.w"], p["conv.dw.b"])
    h = swish(layer_norm_rows(h, p["conv.mid_ln.g"], p["conv.mid_ln.b"]))
    x = x + h @ p["conv.pw2.w"] + p["conv.pw2.b"]
    if moe_end_experts is None:
        x = x + 0.5 * ffn(ln(x, "ffn_end.ln"), "ffn_end")
    else:
        h = layer_norm_rows(x, p["moe_end.ln.g"], p["moe_end.ln.b"])
        x = x + dense_zeroed_mixture(h, gate_w, moe_end_experts)
    return layer_norm_rows(x, p["out_ln.g"], p["out_ln.b"])


def padded_slice_axis(x, axis, start=None, stop=None, step=None):
    """``tensor.slice_axis`` whose backward adds a zero array holding the
    slice's gradient: one full-size array per slice."""
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop, step)
    index = tuple(index)

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[index] = g
        T._accum(x, gx)

    return T._make(x.data[index], (x,), backward)


def batched_matmul(a, b):
    """``tensor.matmul`` with ``np.matmul``'s batching: a (B, T, k) left
    operand against a 2-D ``b`` runs as B products of T rows, and the weight
    gradient is a (B, k, n) stack of products summed over B. A left operand
    of one row is computed as row 0 of a two-row product, as
    ``tensor.matmul`` does. Same signature and return as ``tensor.matmul``,
    so tests install it in its place to train a twin model."""
    if b.ndim == 2 and a.size == a.shape[-1]:
        pair = np.repeat(a.data.reshape(1, -1), 2, axis=0)
        data = np.matmul(pair, b.data)[0].reshape(a.shape[:-1] + b.shape[-1:])
    else:
        data = np.matmul(a.data, b.data)
    T._tally(data.size * a.shape[-1])

    def backward(g):
        # a vector left operand acts as one row: promote it and its gradient
        a2, g2 = (a.data[None], g[..., None, :]) if a.ndim == 1 else (a.data, g)
        if a.requires_grad:
            ga = np.matmul(g2, np.swapaxes(b.data, -1, -2))
            T._accum(a, unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a2, -1, -2), g2)
            T._accum(b, unbroadcast(gb, b.shape))

    return T._make(data, (a, b), backward)


def unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the operand shape ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def broadcast_add(a, b):
    """``a + b`` with numpy broadcasting, each gradient summed back to its
    operand's shape (``tensor.add`` takes equal shapes only)."""

    def backward(g):
        T._accum(a, unbroadcast(g, a.shape))
        T._accum(b, unbroadcast(g, b.shape))

    return T._make(a.data + b.data, (a, b), backward)


def broadcast_mul(a, b):
    """``a * b`` with numpy broadcasting, each gradient summed back to its
    operand's shape (``tensor.mul`` takes equal shapes only)."""

    def backward(g):
        T._accum(a, unbroadcast(g * b.data, a.shape))
        T._accum(b, unbroadcast(g * a.data, b.shape))

    return T._make(a.data * b.data, (a, b), backward)


class PerTensorAdam:
    """Adam with bias correction and linear warmup, one tensor at a time:
    the reference for the flat-arena ``training.Adam``. Moments are
    per-parameter arrays; ``step`` rebinds each updated ``p.data``."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8, warmup_steps=0):
        self.params = [p for _, p in params]
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.warmup_steps = warmup_steps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def current_lr(self):
        if self.warmup_steps and self.t < self.warmup_steps:
            return self.lr * (self.t + 1) / self.warmup_steps
        return self.lr

    def step(self):
        lr = self.current_lr()
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * (g * g)
            update = (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + self.eps)
            p.data = p.data - (lr * update).astype(p.dtype)
        return lr


def per_tensor_clip(params, max_norm):
    """Global-norm gradient clipping, one tensor at a time (the reference
    for ``training.clip_gradients``); returns the pre-clip norm."""
    total = 0.0
    grads = [p.grad for p in params if p.grad is not None]
    for g in grads:
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


# --------------------------------------------------------------------------
# composite ops: each fused tensor op as the nodes it replaced


def sigmoid_node(x):
    """``tensor.sigmoid`` with its values in three buffers: 1 / (1 + exp(-x))."""
    with np.errstate(over="ignore"):
        data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g):
        T._accum(x, g * data * (1.0 - data))

    return T._make(data, (x,), backward)


def swish_node(x):
    """``tensor.swish`` with a five-temporary backward."""
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g):
        T._accum(x, g * (s * (1.0 + x.data * (1.0 - s))))

    return T._make(x.data * s, (x,), backward)


def layer_norm(x, gain, bias, eps=1e-5):
    """``tensor.layer_norm`` written with ``np.mean`` and one temporary per
    operation."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data
    d = x.shape[-1]

    def backward(g):
        if bias.requires_grad:
            T._accum(bias, g.reshape(-1, d).sum(axis=0))
        if gain.requires_grad:
            T._accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx_hat = g * gain.data
            m1 = gx_hat.mean(axis=-1, keepdims=True)
            m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
            T._accum(x, inv * (gx_hat - m1 - xhat * m2))

    return T._make(data, (x, gain, bias), backward)


def glu(x):
    """``tensor.glu`` as two slices, a sigmoid and a product."""
    d = x.shape[-1] // 2
    return T.slice_axis(x, -1, 0, d) * sigmoid_node(T.slice_axis(x, -1, d, 2 * d))


def _swap_axes_1_2(x):
    """A transpose node for axes (0, 2, 1, 3), its own inverse."""

    def backward(g):
        T._accum(x, g.transpose(0, 2, 1, 3))

    return T._make(x.data.transpose(0, 2, 1, 3), (x,), backward)


def split_heads(x, heads):
    """``tensor.split_heads`` as a reshape and a transpose."""
    b, t, d = x.shape
    return _swap_axes_1_2(T.reshape(x, (b, t, heads, d // heads)))


def merge_heads(x):
    """``tensor.merge_heads`` as a transpose and a reshape."""
    b, h, t, dh = x.shape
    return T.reshape(_swap_axes_1_2(x), (b, t, h * dh))


def add_scaled(x, h, c):
    """``tensor.add_scaled`` as a scale and an add."""
    return x + h * c


def linear(x, w, b):
    """``tensor.linear`` as a ``matmul`` node and a broadcasting add."""
    return broadcast_add(T.matmul(x, w), b)


def combine_top2(x, pos, gates):
    """``tensor.combine_top2`` as a gather of the slot rows, two reshapes, a
    broadcasting product with the gates and a sum over the slots."""
    frames = pos.shape[0]
    rows = T.reshape(T.take_rows(x, pos.reshape(-1)), (frames, 2, -1))
    return T.sum_(broadcast_mul(rows, T.reshape(gates, (frames, 2, 1))), axis=1)


def causal_depthwise_conv(x, weight, bias):
    """``tensor.causal_depthwise_conv`` with two fresh temporaries per tap."""
    k = weight.shape[0]
    t = x.shape[1]
    xp = np.pad(x.data, ((0, 0), (k - 1, 0), (0, 0)))
    data = np.zeros_like(x.data) + bias.data
    for j in range(k):
        data = data + weight.data[j] * xp[:, j : j + t, :]
    T._tally(x.shape[0] * t * weight.size)

    def backward(g):
        if bias.requires_grad:
            T._accum(bias, g.sum(axis=(0, 1)))
        if weight.requires_grad:
            gw = np.empty_like(weight.data)
            for j in range(k):
                gw[j] = (g * xp[:, j : j + t, :]).sum(axis=(0, 1))
            T._accum(weight, gw)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[:, j : j + t, :] += weight.data[j] * g
            T._accum(x, gxp[:, k - 1 :, :])

    return T._make(data, (x, weight, bias), backward)


def causal_conv(x, weight, bias):
    """``tensor.causal_conv`` with a copy of every tap kept for the backward
    and a fresh array per tap product."""
    k, cin, cout = weight.shape
    b, t, _ = x.shape
    xp = np.pad(x.data, ((0, 0), (k - 1, 0), (0, 0)))
    taps = [xp[:, j : j + t, :].reshape(-1, cin) for j in range(k)]
    data = np.zeros((b * t, cout), dtype=x.dtype) + bias.data
    for j in range(k):
        data = data + T._rows_times(taps[j], weight.data[j])
    data = data.reshape(b, t, cout)
    T._tally(b * t * weight.size)

    def backward(g):
        if bias.requires_grad:
            T._accum(bias, g.sum(axis=(0, 1)))
        g2 = g.reshape(-1, cout)
        if weight.requires_grad:
            gw = np.empty_like(weight.data)
            for j in range(k):
                np.matmul(taps[j].T, g2, out=gw[j])
            T._accum(weight, gw)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[:, j : j + t, :] += np.matmul(g2, weight.data[j].T).reshape(b, t, cin)
            T._accum(x, gxp[:, k - 1 :, :])

    return T._make(data, (x, weight, bias), backward)


def banded_attention(q, k, v, mask):
    """``tensor.masked_attention`` contracting every query row with all
    2W - 1 keys of its block, from a padded (rows, cols) copy of ``mask``,
    and keeping every block operand for the backward."""
    b, h, t, dh = q.shape
    frames = np.arange(t)
    first = mask.argmax(axis=1) if t else frames
    last = t - 1 - np.ascontiguousarray(mask[:, ::-1]).argmax(axis=1) if t else frames
    left = int((frames - first).max(initial=0))
    right = int((last - frames).max(initial=0))
    w = left + right + 1
    if t > w:
        n, pad, span = -(-t // w), left, 2 * w - 1
    else:
        n, w, pad, span = 1, t, 0, t
    rows, cols = n * w, (n - 1) * w + span

    def pad_frames(x, before, total):
        if total == t:
            return x
        out = np.zeros((b, h, total, dh), dtype=x.dtype)
        out[:, :, before : before + t] = x
        return out

    def diagonal_blocks(x, shape, axis):
        if n == 1:
            return np.expand_dims(x, axis)
        s = x.strides
        step = w * (s[0] + s[1]) if axis == 0 else w * s[axis]
        return np.lib.stride_tricks.as_strided(x, shape, s[:axis] + (step,) + s[axis:],
                                               writeable=False)

    def unblock(gx):
        if n == 1:
            return gx[:, :, 0]
        out = np.zeros((b, h, n + 1, w, dh), dtype=gx.dtype)
        out[:, :, :n] += gx[:, :, :, :w]
        out[:, :, 1:, : w - 1] += gx[:, :, :, w:]
        return out.reshape(b, h, -1, dh)[:, :, pad : pad + t]

    qb = pad_frames(q.data, 0, rows).reshape(b, h, n, w, dh)
    kb = diagonal_blocks(pad_frames(k.data, pad, cols), (b, h, n, span, dh), 2)
    values = np.ones((b, h, cols, dh + 1), dtype=v.dtype)
    values[:, :, pad : pad + t, :dh] = v.data
    vb = diagonal_blocks(values, (b, h, n, span, dh + 1), 2)
    padded = np.ones((rows, cols), dtype=bool)
    padded[:t] = False
    padded[:t, pad : pad + t] = mask
    allowed = diagonal_blocks(padded, (n, w, span), 0)

    inv = float(1.0 / np.sqrt(dh))
    scores = np.matmul(qb, np.swapaxes(kb, -1, -2)) * inv
    filled = np.where(allowed, scores, -np.inf)
    e = np.exp(filled - filled.max(axis=-1, keepdims=True, initial=-np.inf))
    weighted = np.einsum("bhnwk,bhnkd->bhnwd", e, vb)
    norm = weighted[..., dh:]
    data = (weighted[..., :dh] / norm).reshape(b, h, rows, dh)[:, :, :t]

    def backward(g):
        gb = pad_frames(g, 0, rows).reshape(b, h, n, w, dh)
        p = e / norm
        if v.requires_grad:
            T._accum(v, unblock(np.matmul(np.swapaxes(p, -1, -2), gb)))
        if q.requires_grad or k.requires_grad:
            gp = np.matmul(gb, np.swapaxes(vb[..., :dh], -1, -2))
            inner = (gp * p).sum(axis=-1, keepdims=True)
            gs = p * (gp - inner) * inv
            if q.requires_grad:
                T._accum(q, np.matmul(gs, kb).reshape(b, h, rows, dh)[:, :, :t])
            if k.requires_grad:
                T._accum(k, unblock(np.matmul(np.swapaxes(gs, -1, -2), qb)))

    return T._make(data, (q, k, v), backward)


# --------------------------------------------------------------------------
# synthetic data, one token at a time


def sample_sequence(spec, rng, num_tokens=None):
    """``synth.sample_sequence`` with one mean and one noise draw per token."""
    gen = generators_for(spec)
    language = int(rng.integers(spec.num_languages))
    if num_tokens is None:
        num_tokens = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
    tokens = rng.integers(spec.tokens_per_language, size=num_tokens)
    fpt = spec.frames_per_token
    d = spec.feature_dim
    features = np.empty((num_tokens * fpt, d), dtype=np.float32)
    labels = np.empty(num_tokens * fpt, dtype=np.int64)
    for i, tok in enumerate(tokens):
        mean = gen.token_mean(language, int(tok))
        block = mean + spec.noise_scale * rng.standard_normal((fpt, d))
        features[i * fpt : (i + 1) * fpt] = block.astype(np.float32)
        labels[i * fpt : (i + 1) * fpt] = spec.label_of(language, int(tok))
    return features, labels, language


def generate_batch(spec, rng, batch_size=1):
    """``synth.generate_batch`` over the per-token ``sample_sequence``."""
    num_tokens = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
    seqs = [sample_sequence(spec, rng, num_tokens) for _ in range(batch_size)]
    feats, labels, langs = zip(*seqs)
    return np.stack(feats), np.stack(labels), np.asarray(langs, dtype=np.int64)
