"""Conformer encoder stacks with configurable expert placement.

A layer runs start feed-forward (half residual), masked multi-headed
self-attention, a convolution module, end feed-forward (half residual), and
a closing layer norm. Wherever the config places expert routing, that
feed-forward is swapped for a mixture-of-experts block behind a full
residual. The encoder runs an input block and a 2x time-stacking step,
then pairs a strictly causal stack (causal convolution, left-context
attention) with a non-causal cascade whose attention may look a bounded
number of frames ahead.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import INPUT_KERNEL, ConformerLayerConfig, EncoderConfig, plan
from .errors import ParameterError
from .moe import ExpertFFN, MoELayer, RoutingDecision, _grouped_dispatch
from .tensor import Tensor

Array = np.ndarray


# --------------------------------------------------------------------------
# frontend utilities (plain numpy; gradients never reach raw features)


def frame_stack(features, stack: int, downsample: int):
    """Concatenate each kept frame with its previous ``stack - 1`` frames.

    Frames before the sequence start are zeros; after stacking, every
    ``downsample``-th frame is kept, so the output has ceil(T / downsample)
    frames of width ``stack * d``. Accepts (T, d) or (B, T, d).
    """
    if stack < 1 or downsample < 1:
        raise ParameterError("frame_stack: stack and downsample must be >= 1")
    x = features.data if isinstance(features, Tensor) else np.asarray(features)
    t = x.shape[-2]
    idx = np.arange(0, t, downsample)
    pad = [(0, 0)] * (x.ndim - 2) + [(stack - 1, 0), (0, 0)]
    padded = np.pad(x, pad)
    pieces = [padded[..., idx + (stack - 1) - j, :] for j in range(stack)]
    return np.concatenate(pieces, axis=-1)


def positional_encoding(num_frames: int, dim: int, dtype=np.float32) -> Array:
    """Fixed sinusoidal position table, added once at the encoder input."""
    pos = np.arange(num_frames, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / max(dim, 1))
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(dtype)


def attention_window_mask(num_frames: int, left: int, right: int) -> Array:
    """(T, T) booleans, True where query frame i may attend key frame j:
    ``i - left <= j <= i + right``, written one diagonal at a time."""
    mask = np.zeros((num_frames, num_frames), dtype=bool)
    flat = mask.reshape(-1)
    step = num_frames + 1
    for offset in range(max(-left, 1 - num_frames), min(right, num_frames - 1) + 1):
        # entries (i, i + offset): flat index i * step + offset
        if offset >= 0:
            flat[offset : (num_frames - offset) * num_frames : step] = True
        else:
            flat[-offset * num_frames :: step] = True
    return mask


# --------------------------------------------------------------------------
# parameter initialization


class _ParamFactory:
    """Draws parameters in a fixed order so a seed fully determines the model,
    and names each one as it draws it: ``named`` is the model's parameter
    list, in draw order."""

    def __init__(self, rng: np.random.Generator, dtype):
        self.rng = rng
        self.dtype = dtype
        self.named: list[tuple[str, Tensor]] = []

    def _add(self, name: str, data: Array) -> Tensor:
        p = Tensor(data, requires_grad=True)
        self.named.append((name, p))
        return p

    def uniform(self, name: str, fan_in: int, *shape) -> Tensor:
        bound = 1.0 / np.sqrt(fan_in)
        return self._add(name, self.rng.uniform(-bound, bound, size=shape).astype(self.dtype))

    def zeros(self, name: str, *shape) -> Tensor:
        return self._add(name, np.zeros(shape, dtype=self.dtype))

    def linear(self, prefix: str, d_in: int, d_out: int, w: str = "w", b: str = "b"):
        return self.uniform(prefix + w, d_in, d_in, d_out), self.zeros(prefix + b, d_out)

    def norm(self, prefix: str, dim: int) -> _Norm:
        return _Norm(self._add(prefix + "g", np.ones(dim, dtype=self.dtype)),
                     self.zeros(prefix + "b", dim))


# --------------------------------------------------------------------------
# sublayers


class _Linear:
    def __init__(self, w: Tensor, b: Tensor):
        self.w, self.b = w, b

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)


class _Norm:
    def __init__(self, g: Tensor, b: Tensor):
        self.g, self.b = g, b

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.g, self.b)


class FFNBlock:
    """Pre-normed feed-forward applied with a half residual."""

    def __init__(self, ln: _Norm, w1, b1, w2, b2):
        self.ln = ln
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    def __call__(self, x: Tensor) -> Tensor:
        h = self.ln(x)
        h = T.linear(T.swish(T.linear(h, self.w1, self.b1)), self.w2, self.b2)
        return T.add_scaled(x, h, 0.5)


class MoEBlock:
    """Pre-normed expert-routed feed-forward behind a full residual."""

    def __init__(self, ln: _Norm, moe: MoELayer):
        self.ln = ln
        self.moe = moe

    def __call__(self, x: Tensor) -> tuple[Tensor, RoutingDecision]:
        b, t, d = x.shape
        h = self.ln(x)
        y, decision = self.moe.forward(T.reshape(h, (b * t, d)))
        return x + T.reshape(y, (b, t, d)), decision


class AttentionBlock:
    def __init__(self, ln: _Norm, q: _Linear, k: _Linear, v: _Linear, o: _Linear,
                 heads: int):
        self.ln = ln
        self.q, self.k, self.v, self.o = q, k, v, o
        self.heads = heads

    def __call__(self, x: Tensor, mask: Array) -> Tensor:
        hidden = self.ln(x)
        q, k, v = (T.split_heads(proj(hidden), self.heads) for proj in (self.q, self.k, self.v))
        return x + self.o(T.merge_heads(T.masked_attention(q, k, v, mask)))


class ConvBlock:
    """Pointwise expand, gated linear unit, causal depthwise conv, norm,
    swish, pointwise project; residual around the whole module."""

    def __init__(self, ln: _Norm, pw1: _Linear, dw_w, dw_b, mid_ln: _Norm, pw2: _Linear):
        self.ln = ln
        self.pw1 = pw1
        self.dw_w, self.dw_b = dw_w, dw_b
        self.mid_ln = mid_ln
        self.pw2 = pw2

    def __call__(self, x: Tensor) -> Tensor:
        gated = T.glu(self.pw1(self.ln(x)))
        h = T.causal_depthwise_conv(gated, self.dw_w, self.dw_b)
        h = T.swish(self.mid_ln(h))
        return x + self.pw2(h)


class ConformerLayer:
    def __init__(self, cfg: ConformerLayerConfig, start, attn: AttentionBlock,
                 conv: ConvBlock, end, out_ln: _Norm):
        self.cfg = cfg
        self.start = start  # FFNBlock | MoEBlock
        self.attn = attn
        self.conv = conv
        self.end = end
        self.out_ln = out_ln

    def forward(self, x: Tensor, mask: Array, decisions: list[RoutingDecision]) -> Tensor:
        """One layer; each expert-routed sublayer appends its routing record
        to ``decisions``."""

        def feed_forward(block, x):
            if isinstance(block, MoEBlock):
                x, decision = block(x)
                decisions.append(decision)
                return x
            return block(x)

        x = feed_forward(self.start, x)
        x = self.attn(x, mask)
        x = self.conv(x)
        x = feed_forward(self.end, x)
        return self.out_ln(x)

    def moe_blocks(self) -> list[MoEBlock]:
        return [s for s in (self.start, self.end) if isinstance(s, MoEBlock)]


class AdapterGroup:
    def __init__(self, down: _Linear, up: _Linear):
        self.down = down
        self.up = up

    def __call__(self, x: Tensor) -> Tensor:
        return x + self.up(T.swish(self.down(x)))


class AdapterBank:
    """One residual adapter per group; the caller selects by group id."""

    def __init__(self, groups: list[AdapterGroup]):
        self.groups = groups
        self.usage = np.zeros(len(groups), dtype=np.int64)

    def forward(self, x: Tensor, group_ids: Array) -> Tensor:
        """Each sequence through its group's adapter, one batch per group."""
        group_ids = np.asarray(group_ids)
        if group_ids.shape != (x.shape[0],):
            raise ParameterError(
                f"adapters: need one group id per sequence, got {group_ids.shape} "
                f"for batch {x.shape[0]}"
            )
        if group_ids.min() < 0 or group_ids.max() >= len(self.groups):
            raise ParameterError(
                f"adapters: group id out of range 0..{len(self.groups) - 1}"
            )
        counts = np.bincount(group_ids, minlength=len(self.groups))
        self.usage += counts * x.shape[1]
        rows, pos = _grouped_dispatch(x, group_ids, counts,
                                      lambda g, seqs: self.groups[g](seqs))
        return T.take_rows(rows, pos)


# --------------------------------------------------------------------------
# encoder assembly


def _build_layer(cfg: ConformerLayerConfig, make: _ParamFactory, prefix: str) -> ConformerLayer:
    d = cfg.model_dim

    def two_layer(p: str, hidden: int):
        return (*make.linear(p, d, hidden, "w1", "b1"), *make.linear(p, hidden, d, "w2", "b2"))

    def ffn_or_moe(placed: bool, site: str):
        if not placed:
            p = f"{prefix}ffn_{site}."
            return FFNBlock(make.norm(p + "ln.", d), *two_layer(p, cfg.ffn_mult * d))
        p = f"{prefix}moe_{site}."
        ln = make.norm(p + "ln.", d)
        gate = make.zeros(p + "gate_w", d, cfg.num_experts)  # uniform routing at step 0
        experts = [ExpertFFN(*two_layer(f"{p}expert{i}.", cfg.expert_mult * d))
                   for i in range(cfg.num_experts)]
        return MoEBlock(ln, MoELayer(gate, experts))

    start = ffn_or_moe(cfg.moe_sites[0], "start")
    p = prefix + "attn."
    attn = AttentionBlock(
        make.norm(p + "ln.", d),
        *(_Linear(*make.linear(p, d, d, f"w{tag}", f"b{tag}")) for tag in "qkvo"),
        heads=cfg.heads,
    )
    p = prefix + "conv."
    conv = ConvBlock(
        make.norm(p + "ln.", d),
        _Linear(*make.linear(p + "pw1.", d, 2 * d)),
        make.uniform(p + "dw.w", cfg.conv_kernel, cfg.conv_kernel, d),
        make.zeros(p + "dw.b", d),
        make.norm(p + "mid_ln.", d),
        _Linear(*make.linear(p + "pw2.", d, d)),
    )
    end = ffn_or_moe(cfg.moe_sites[1], "end")
    return ConformerLayer(cfg, start, attn, conv, end, make.norm(prefix + "out_ln.", d))


class EncoderModel:
    """A built encoder: parameter tensors plus the forward graph over them."""

    def __init__(self, config: EncoderConfig, seed: int, dtype=np.float32):
        config.validate()
        self.config = config
        self.seed = seed
        self.dtype = dtype
        make = _ParamFactory(np.random.default_rng(seed), dtype)

        fe = config.frontend
        ib = config.input_block
        self.input_proj = _Linear(*make.linear("frontend.proj.", fe.stacked_dim, ib.out_dim))
        self.input_convs = [
            (make.uniform(f"frontend.conv{i}.w", INPUT_KERNEL * ib.out_dim,
                          INPUT_KERNEL, ib.out_dim, ib.out_dim),
             make.zeros(f"frontend.conv{i}.b", ib.out_dim))
            for i in range(ib.num_convs)
        ]

        # one width-matching projection (or None) and one layer per stage
        self.stages = plan(config)
        self.projs: list[_Linear | None] = []
        self.layers: list[ConformerLayer] = []
        for stage in self.stages:
            self.projs.append(
                _Linear(*make.linear(f"{stage.stack}.proj{stage.index}.", *stage.proj))
                if stage.proj else None)
            self.layers.append(_build_layer(stage.layer, make, f"{stage.stack}.{stage.index}."))

        self.adapter_banks: list[AdapterBank] = []
        if config.adapters is not None:
            a = config.adapters
            for i, layer_cfg in enumerate(config.non_causal):
                d = layer_cfg.model_dim
                groups = []
                for g in range(a.num_groups):
                    p = f"adapters.{i}.group{g}."
                    down = _Linear(*make.linear(p + "down.", d, a.dim))
                    up = _Linear(make.zeros(p + "up.w", a.dim, d),  # identity at init
                                 make.zeros(p + "up.b", d))
                    groups.append(AdapterGroup(down, up))
                self.adapter_banks.append(AdapterBank(groups))
        self._params = make.named
        self._positions = positional_encoding(0, fe.stacked_dim, dtype)
        self._positions.flags.writeable = False

    # -- parameter access ---------------------------------------------------

    def parameters(self) -> list[tuple[str, Tensor]]:
        """(name, tensor) for every parameter, in draw order."""
        return list(self._params)

    def num_params(self) -> int:
        return sum(p.size for _, p in self.parameters())

    def moe_layers(self) -> list[MoELayer]:
        return [block.moe for layer in self.layers for block in layer.moe_blocks()]

    def reset_moe_evaluations(self) -> None:
        for moe in self.moe_layers():
            moe.reset_evaluations()

    # -- forward -------------------------------------------------------------

    def position_table(self, num_frames: int) -> Array:
        """``positional_encoding(num_frames, ...)`` for this model's input, as
        a read-only slice of one table that grows (at least doubling) when a
        longer input arrives. Its rows do not depend on the table's length,
        so a slice equals the direct computation bit for bit."""
        table = self._positions
        if num_frames > table.shape[0]:
            table = positional_encoding(max(num_frames, 2 * table.shape[0]),
                                        table.shape[1], self.dtype)
            table.flags.writeable = False
            self._positions = table
        return table[:num_frames]

    def forward(self, features, mode: str = "cascaded", language_ids=None):
        """Encode raw features.

        ``features`` is (B, T, d) or (T, d) numpy. Returns (encodings,
        decisions); decisions is the ordered list of per-MoE-sublayer routing
        records.
        """
        if mode not in ("causal_only", "cascaded"):
            raise ParameterError(f"unknown forward mode {mode!r}")
        feats = np.asarray(features, dtype=self.dtype)
        squeeze = feats.ndim == 2
        if squeeze:
            feats = feats[None]
        if feats.shape[-1] != self.config.frontend.feature_dim:
            raise ParameterError(
                f"expected feature width {self.config.frontend.feature_dim}, "
                f"got {feats.shape[-1]}"
            )

        fe = self.config.frontend
        stacked = frame_stack(feats, fe.stack, fe.downsample)
        t = stacked.shape[1]
        x = Tensor(stacked + self.position_table(t))

        x = self.input_proj(x)
        for w, b in self.input_convs:
            x = T.swish(T.causal_conv(x, w, b))
        x = _time_stack2(x)

        decisions: list[RoutingDecision] = []
        masks: dict[tuple[int, int, int], Array] = {}

        def mask_for(cfg: ConformerLayerConfig, frames: int) -> Array:
            key = (frames, cfg.left_context, cfg.right_context)
            if key not in masks:
                masks[key] = attention_window_mask(frames, cfg.left_context,
                                                   cfg.right_context)
            return masks[key]

        for stage, proj, layer in zip(self.stages, self.projs, self.layers):
            if mode == "causal_only" and not layer.cfg.causal:
                break
            if proj is not None:
                x = proj(x)
            x = layer.forward(x, mask_for(layer.cfg, x.shape[1]), decisions)
            if self.adapter_banks and not layer.cfg.causal:
                if language_ids is None:
                    raise ParameterError("adapters are enabled but no group ids were given")
                x = self.adapter_banks[stage.index].forward(x, language_ids)
        return (x if not squeeze else _squeeze_batch(x)), decisions


def _time_stack2(x: Tensor) -> Tensor:
    """Concatenate neighboring frame pairs: halves the rate, doubles the width.

    A trailing unpaired frame is dropped so already-emitted outputs never
    change when the input grows.
    """
    half = x.shape[1] // 2
    newer = T.slice_axis(x, 1, 1, 2 * half, 2)
    older = T.slice_axis(x, 1, 0, 2 * half, 2)
    return T.concat([newer, older], axis=-1)


def _squeeze_batch(x: Tensor) -> Tensor:
    return T.reshape(x, x.shape[1:])


def build_encoder(config: EncoderConfig, seed: int, dtype=np.float32) -> EncoderModel:
    """Deterministically construct an encoder; same config and seed give
    identical parameter tensors."""
    return EncoderModel(config, seed, dtype)
