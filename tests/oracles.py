"""Independent numpy reference implementations used as test oracles.

Everything here is written against raw arrays, deliberately sharing no code
with the package's graph ops.
"""

from __future__ import annotations

import numpy as np


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
