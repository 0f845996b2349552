"""Conformer encoder stacks with configurable expert placement.

A layer runs start feed-forward (half residual), masked multi-headed
self-attention, a convolution module, end feed-forward (half residual), and
a closing layer norm. Wherever the config places expert routing, that
feed-forward is swapped for a mixture-of-experts block behind a full
residual. The encoder pairs a strictly causal stack (causal convolution,
left-context attention, a mid-stack time-stacking step) with a non-causal
cascade whose attention may look a bounded number of frames ahead.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import ConformerLayerConfig, EncoderConfig, plan
from .errors import ParameterError
from .moe import ExpertFFN, MoELayer, RoutingDecision
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


def spec_augment(features: Array, rng: np.random.Generator,
                 num_freq_masks: int = 2, max_freq_width: int = 27,
                 num_time_masks: int = 2, max_time_width: int = 50) -> Array:
    """Zero random frequency bands and time spans of a (T, d) feature matrix.

    Mask widths are uniform on [0, min(cap, axis length)]; zero-width masks
    leave the input untouched. Deterministic under a seeded generator.
    """
    if features.ndim != 2:
        raise ParameterError(f"spec_augment: expected (T, d) features, got {features.shape}")
    t, d = features.shape
    out = features.copy()
    for _ in range(num_freq_masks):
        width = int(rng.integers(0, min(max_freq_width, d) + 1))
        start = int(rng.integers(0, d - width + 1)) if width else 0
        out[:, start : start + width] = 0.0
    for _ in range(num_time_masks):
        width = int(rng.integers(0, min(max_time_width, t) + 1)) if t else 0
        start = int(rng.integers(0, t - width + 1)) if width else 0
        out[start : start + width, :] = 0.0
    return out


def attention_window_mask(num_frames: int, left: int, right: int) -> Array:
    rows, cols = np.indices((num_frames, num_frames))
    return (cols >= rows - left) & (cols <= rows + right)


# --------------------------------------------------------------------------
# parameter initialization


def _linear_init(rng, fan_in: int, shape, dtype) -> Array:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class _ParamFactory:
    """Draws parameters in a fixed order so a seed fully determines the model."""

    def __init__(self, rng: np.random.Generator, dtype):
        self.rng = rng
        self.dtype = dtype

    def linear(self, d_in: int, d_out: int):
        w = Tensor(_linear_init(self.rng, d_in, (d_in, d_out), self.dtype), requires_grad=True)
        b = Tensor(np.zeros(d_out, dtype=self.dtype), requires_grad=True)
        return w, b

    def conv_full(self, kernel: int, c_in: int, c_out: int):
        w = Tensor(
            _linear_init(self.rng, kernel * c_in, (kernel, c_in, c_out), self.dtype),
            requires_grad=True,
        )
        b = Tensor(np.zeros(c_out, dtype=self.dtype), requires_grad=True)
        return w, b

    def conv_depthwise(self, kernel: int, channels: int):
        w = Tensor(_linear_init(self.rng, kernel, (kernel, channels), self.dtype),
                   requires_grad=True)
        b = Tensor(np.zeros(channels, dtype=self.dtype), requires_grad=True)
        return w, b

    def norm(self, dim: int):
        g = Tensor(np.ones(dim, dtype=self.dtype), requires_grad=True)
        b = Tensor(np.zeros(dim, dtype=self.dtype), requires_grad=True)
        return g, b

    def zeros(self, *shape):
        return Tensor(np.zeros(shape, dtype=self.dtype), requires_grad=True)


# --------------------------------------------------------------------------
# sublayers


class _Linear:
    def __init__(self, w: Tensor, b: Tensor):
        self.w, self.b = w, b

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.w) + self.b

    def parameters(self):
        yield "w", self.w
        yield "b", self.b


class _Norm:
    def __init__(self, g: Tensor, b: Tensor):
        self.g, self.b = g, b

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.g, self.b)

    def parameters(self):
        yield "g", self.g
        yield "b", self.b


class FFNBlock:
    """Pre-normed feed-forward applied with a half residual."""

    def __init__(self, ln: _Norm, w1, b1, w2, b2):
        self.ln = ln
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    def __call__(self, x: Tensor) -> Tensor:
        h = self.ln(x)
        h = T.matmul(T.swish(T.matmul(h, self.w1) + self.b1), self.w2) + self.b2
        return x + h * 0.5

    def parameters(self):
        for name, p in self.ln.parameters():
            yield f"ln.{name}", p
        yield "w1", self.w1
        yield "b1", self.b1
        yield "w2", self.w2
        yield "b2", self.b2


class MoEBlock:
    """Pre-normed expert-routed feed-forward behind a (default full) residual."""

    def __init__(self, ln: _Norm, moe: MoELayer, residual_scale: float):
        self.ln = ln
        self.moe = moe
        self.residual_scale = residual_scale

    def __call__(self, x: Tensor) -> tuple[Tensor, RoutingDecision]:
        b, t, d = x.shape
        h = self.ln(x)
        y, decision = self.moe.forward(T.reshape(h, (b * t, d)))
        y = T.reshape(y, (b, t, d))
        if self.residual_scale != 1.0:
            y = y * self.residual_scale
        return x + y, decision

    def parameters(self):
        for name, p in self.ln.parameters():
            yield f"ln.{name}", p
        for name, p in self.moe.parameters():
            yield name, p


class AttentionBlock:
    def __init__(self, ln: _Norm, wq, bq, wk, bk, wv, bv, wo, bo, heads: int):
        self.ln = ln
        self.q = _Linear(wq, bq)
        self.k = _Linear(wk, bk)
        self.v = _Linear(wv, bv)
        self.o = _Linear(wo, bo)
        self.heads = heads

    def __call__(self, x: Tensor, mask: Array) -> Tensor:
        b, t, d = x.shape
        h = self.heads
        dh = d // h

        def split(z):
            return T.transpose(T.reshape(z, (b, t, h, dh)), (0, 2, 1, 3))

        hidden = self.ln(x)
        out = T.masked_attention(split(self.q(hidden)), split(self.k(hidden)),
                                 split(self.v(hidden)), mask)
        out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, t, d))
        return x + self.o(out)

    def parameters(self):
        for name, p in self.ln.parameters():
            yield f"ln.{name}", p
        for tag, lin in (("q", self.q), ("k", self.k), ("v", self.v), ("o", self.o)):
            yield f"w{tag}", lin.w
            yield f"b{tag}", lin.b


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
        d = x.shape[-1]
        h = self.pw1(self.ln(x))
        gated = T.slice_axis(h, -1, 0, d) * T.sigmoid(T.slice_axis(h, -1, d, 2 * d))
        h = T.causal_depthwise_conv(gated, self.dw_w, self.dw_b)
        h = T.swish(self.mid_ln(h))
        return x + self.pw2(h)

    def parameters(self):
        for name, p in self.ln.parameters():
            yield f"ln.{name}", p
        for name, p in self.pw1.parameters():
            yield f"pw1.{name}", p
        yield "dw.w", self.dw_w
        yield "dw.b", self.dw_b
        for name, p in self.mid_ln.parameters():
            yield f"mid_ln.{name}", p
        for name, p in self.pw2.parameters():
            yield f"pw2.{name}", p


class ConformerLayer:
    def __init__(self, cfg: ConformerLayerConfig, start, attn: AttentionBlock,
                 conv: ConvBlock, end, out_ln: _Norm):
        self.cfg = cfg
        self.start = start  # FFNBlock | MoEBlock
        self.attn = attn
        self.conv = conv
        self.end = end
        self.out_ln = out_ln

    def forward(self, x: Tensor, mask: Array,
                decisions: list[RoutingDecision] | None) -> Tensor:
        if isinstance(self.start, MoEBlock):
            x, d = self.start(x)
            if decisions is not None:
                decisions.append(d)
        else:
            x = self.start(x)
        x = self.attn(x, mask)
        x = self.conv(x)
        if isinstance(self.end, MoEBlock):
            x, d = self.end(x)
            if decisions is not None:
                decisions.append(d)
        else:
            x = self.end(x)
        return self.out_ln(x)

    def moe_blocks(self) -> list[MoEBlock]:
        return [s for s in (self.start, self.end) if isinstance(s, MoEBlock)]

    def parameters(self):
        start_tag = "moe_start" if isinstance(self.start, MoEBlock) else "ffn_start"
        end_tag = "moe_end" if isinstance(self.end, MoEBlock) else "ffn_end"
        for name, p in self.start.parameters():
            yield f"{start_tag}.{name}", p
        for name, p in self.attn.parameters():
            yield f"attn.{name}", p
        for name, p in self.conv.parameters():
            yield f"conv.{name}", p
        for name, p in self.end.parameters():
            yield f"{end_tag}.{name}", p
        for name, p in self.out_ln.parameters():
            yield f"out_ln.{name}", p


class AdapterGroup:
    def __init__(self, down: _Linear, up: _Linear):
        self.down = down
        self.up = up

    def __call__(self, x: Tensor) -> Tensor:
        return x + self.up(T.swish(self.down(x)))

    def parameters(self):
        for name, p in self.down.parameters():
            yield f"down.{name}", p
        for name, p in self.up.parameters():
            yield f"up.{name}", p


class AdapterBank:
    """One residual adapter per group; the caller selects by group id."""

    def __init__(self, groups: list[AdapterGroup]):
        self.groups = groups
        self.usage = np.zeros(len(groups), dtype=np.int64)

    def forward(self, x: Tensor, group_ids: Array) -> Tensor:
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
        out = None
        for g in np.unique(group_ids):
            rows = np.nonzero(group_ids == g)[0]
            self.usage[g] += rows.size * x.shape[1]
            piece = self.groups[int(g)](T.take_rows(x, rows))
            scattered = T.scatter_rows(piece, rows, x.shape[0])
            out = scattered if out is None else out + scattered
        return out if out is not None else x

    def parameters(self):
        for i, group in enumerate(self.groups):
            for name, p in group.parameters():
                yield f"group{i}.{name}", p


# --------------------------------------------------------------------------
# encoder assembly


def _build_layer(cfg: ConformerLayerConfig, make: _ParamFactory) -> ConformerLayer:
    d = cfg.model_dim

    def ffn_or_moe(placed: bool):
        ln = _Norm(*make.norm(d))
        if not placed:
            w1, b1 = make.linear(d, cfg.ffn_mult * d)
            w2, b2 = make.linear(cfg.ffn_mult * d, d)
            return FFNBlock(ln, w1, b1, w2, b2)
        gate = make.zeros(d, cfg.num_experts)  # uniform routing at step 0
        experts = []
        for _ in range(cfg.num_experts):
            w1, b1 = make.linear(d, cfg.expert_mult * d)
            w2, b2 = make.linear(cfg.expert_mult * d, d)
            experts.append(ExpertFFN(w1, b1, w2, b2))
        return MoEBlock(ln, MoELayer(gate, experts), cfg.moe_residual_scale)

    start = ffn_or_moe(cfg.moe_sites[0])
    attn = AttentionBlock(
        _Norm(*make.norm(d)),
        *make.linear(d, d), *make.linear(d, d), *make.linear(d, d), *make.linear(d, d),
        heads=cfg.heads,
    )
    conv = ConvBlock(
        _Norm(*make.norm(d)),
        _Linear(*make.linear(d, 2 * d)),
        *make.conv_depthwise(cfg.conv_kernel, d),
        _Norm(*make.norm(d)),
        _Linear(*make.linear(d, d)),
    )
    end = ffn_or_moe(cfg.moe_sites[1])
    return ConformerLayer(cfg, start, attn, conv, end, _Norm(*make.norm(d)))


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
        self.input_proj = _Linear(*make.linear(fe.stacked_dim, ib.out_dim))
        self.input_convs = [
            make.conv_full(ib.kernel, ib.out_dim, ib.out_dim) for _ in range(ib.num_convs)
        ]

        # one width-matching projection (or None) and one layer per stage
        self.stages = plan(config)
        self.projs: list[_Linear | None] = []
        self.layers: list[ConformerLayer] = []
        for stage in self.stages:
            self.projs.append(_Linear(*make.linear(*stage.proj)) if stage.proj else None)
            self.layers.append(_build_layer(stage.layer, make))

        self.adapter_banks: list[AdapterBank] = []
        if config.adapters is not None:
            a = config.adapters
            for layer_cfg in config.non_causal:
                groups = []
                for _ in range(a.num_groups):
                    down = _Linear(*make.linear(layer_cfg.model_dim, a.dim))
                    up_w = make.zeros(a.dim, layer_cfg.model_dim)  # identity at init
                    up_b = make.zeros(layer_cfg.model_dim)
                    groups.append(AdapterGroup(down, _Linear(up_w, up_b)))
                self.adapter_banks.append(AdapterBank(groups))

    # -- parameter access ---------------------------------------------------

    def parameters(self):
        yield "frontend.proj.w", self.input_proj.w
        yield "frontend.proj.b", self.input_proj.b
        for i, (w, b) in enumerate(self.input_convs):
            yield f"frontend.conv{i}.w", w
            yield f"frontend.conv{i}.b", b
        for stage, proj, layer in zip(self.stages, self.projs, self.layers):
            if proj is not None:
                for name, p in proj.parameters():
                    yield f"{stage.stack}.proj{stage.index}.{name}", p
            for name, p in layer.parameters():
                yield f"{stage.stack}.{stage.index}.{name}", p
        for i, bank in enumerate(self.adapter_banks):
            for name, p in bank.parameters():
                yield f"adapters.{i}.{name}", p

    def num_params(self) -> int:
        return sum(p.size for _, p in self.parameters())

    def moe_layers(self) -> list[MoELayer]:
        return [block.moe for layer in self.layers for block in layer.moe_blocks()]

    def reset_moe_evaluations(self) -> None:
        for moe in self.moe_layers():
            moe.reset_evaluations()

    # -- forward -------------------------------------------------------------

    def forward(self, features, mode: str = "cascaded", language_ids=None,
                collect_routing: bool = False):
        """Encode raw features.

        ``features`` is (B, T, d) or (T, d) numpy. Returns (encodings,
        decisions); decisions is the ordered list of per-MoE-sublayer routing
        records when ``collect_routing`` is set, else an empty list.
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
        x = Tensor(stacked + positional_encoding(t, stacked.shape[-1], self.dtype))

        x = self.input_proj(x)
        for w, b in self.input_convs:
            x = T.swish(T.causal_conv(x, w, b))

        decisions: list[RoutingDecision] = []
        sink = decisions if collect_routing else None
        masks: dict[tuple[int, int, int], Array] = {}

        def mask_for(cfg: ConformerLayerConfig, frames: int) -> Array:
            key = (frames, cfg.left_context, cfg.right_context)
            if key not in masks:
                masks[key] = attention_window_mask(frames, cfg.left_context,
                                                   cfg.right_context)
            return masks[key]

        for stage, proj, layer in zip(self.stages, self.projs, self.layers):
            if stage.time_stack == "before":
                x = _time_stack2(x)
            if mode == "causal_only" and not layer.cfg.causal:
                break
            if proj is not None:
                x = proj(x)
            x = layer.forward(x, mask_for(layer.cfg, x.shape[1]), sink)
            if self.adapter_banks and not layer.cfg.causal:
                if language_ids is None:
                    raise ParameterError("adapters are enabled but no group ids were given")
                x = self.adapter_banks[stage.index].forward(x, language_ids)
            if stage.time_stack == "after":
                x = _time_stack2(x)
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
