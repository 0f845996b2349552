"""Architecture and experiment configuration.

EncoderConfig describes the whole encoder geometry: a frame-stacking
frontend, a causal stack (input block, optional mid-stack time stacking,
Conformer layers), a non-causal cascade with bounded right context, expert
placement, and optional per-group residual adapters. ``plan`` walks it once
into ordered stage records (widths, projections, frame rate, time stacking)
that model construction, the forward pass and parameter/MAC accounting all
consume.

Configs round-trip through flat ``key=value`` text files; see
``ENCODER_KEYS`` for the documented key list.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import ConfigError

MOE_PLACEMENTS = ("none", "start", "end", "both")
MOE_SELECTORS = ("all", "odd", "first_only")


@dataclass
class ConformerLayerConfig:
    model_dim: int
    ffn_mult: int = 4
    heads: int = 4
    conv_kernel: int = 7
    causal: bool = False
    left_context: int = 16
    right_context: int = 0
    moe_placement: str = "none"
    num_experts: int = 0
    expert_mult: int = 4
    moe_residual_scale: float = 1.0

    def validate(self) -> None:
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.model_dim <= 0 or self.model_dim % self.heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} must be a positive multiple of heads {self.heads}"
            )
        if self.conv_kernel < 1 or self.ffn_mult < 1:
            raise ConfigError("conv_kernel and ffn_mult must be >= 1")
        if self.left_context < 0 or self.right_context < 0:
            raise ConfigError("context windows must be >= 0")
        if self.causal and self.right_context != 0:
            raise ConfigError("a causal layer cannot have right context")
        if self.moe_placement not in MOE_PLACEMENTS:
            raise ConfigError(f"moe_placement must be one of {MOE_PLACEMENTS}")
        if self.moe_placement != "none" and self.num_experts < 2:
            raise ConfigError("expert routing needs num_experts >= 2")

    @property
    def moe_sites(self) -> tuple[bool, bool]:
        """Whether the start and the end feed-forward are expert-routed."""
        return (self.moe_placement in ("start", "both"),
                self.moe_placement in ("end", "both"))


@dataclass
class FrontendConfig:
    feature_dim: int
    stack: int = 1
    downsample: int = 1

    def validate(self) -> None:
        if self.feature_dim < 1 or self.stack < 1 or self.downsample < 1:
            raise ConfigError("frontend feature_dim, stack, and downsample must be >= 1")

    @property
    def stacked_dim(self) -> int:
        return self.feature_dim * self.stack


@dataclass
class InputBlockConfig:
    out_dim: int
    num_convs: int = 3
    kernel: int = 3

    def validate(self) -> None:
        if self.out_dim < 1 or self.num_convs < 0 or self.kernel < 1:
            raise ConfigError("input block dims must be positive")


@dataclass
class AdapterConfig:
    dim: int
    num_groups: int

    def validate(self) -> None:
        if self.dim < 1 or self.num_groups < 1:
            raise ConfigError("adapter dim and num_groups must be >= 1")


@dataclass
class EncoderConfig:
    frontend: FrontendConfig
    input_block: InputBlockConfig
    causal: list[ConformerLayerConfig]
    non_causal: list[ConformerLayerConfig]
    stack_after: int = 0  # causal conformer layers evaluated before time stacking
    moe_selector: str = "all"
    adapters: AdapterConfig | None = None

    def validate(self) -> None:
        if not self.causal and not self.non_causal:
            raise ConfigError("an encoder needs at least one Conformer layer")
        self.frontend.validate()
        self.input_block.validate()
        for layer in self.causal:
            layer.validate()
            if not layer.causal:
                raise ConfigError("causal stack layers must have causal=True")
            if layer.moe_placement != "none":
                raise ConfigError("expert routing in the causal stack is not supported")
        for layer in self.non_causal:
            layer.validate()
            if layer.causal:
                raise ConfigError("non-causal stack layers must have causal=False")
        if not 0 <= self.stack_after <= len(self.causal):
            raise ConfigError(
                f"stack_after {self.stack_after} out of range for {len(self.causal)} causal layers"
            )
        if self.moe_selector not in MOE_SELECTORS:
            raise ConfigError(f"moe_selector must be one of {MOE_SELECTORS}")
        if self.adapters is not None:
            self.adapters.validate()

    @property
    def total_downsample(self) -> int:
        """Raw feature frames consumed per final encoder frame."""
        return self.frontend.downsample * 2

    @property
    def right_context_total(self) -> int:
        return sum(l.right_context for l in self.non_causal)

    @property
    def output_dim(self) -> int:
        last = plan(self)[-1]
        return last.layer.model_dim * (2 if last.time_stack == "after" else 1)


class Stage(NamedTuple):
    """One Conformer layer of the encoder walk, in execution order."""

    stack: str                     # "causal" or "noncausal" (parameter-name prefix)
    index: int                     # position within its stack
    layer: ConformerLayerConfig    # MoE selector already applied
    proj: tuple[int, int] | None   # width-matching projection ahead of the layer
    rate: int                      # frames per output frame: 2 before time stacking, 1 after
    time_stack: str | None = None  # "before"/"after": the 2x time stacking runs here


def plan(config: EncoderConfig) -> list[Stage]:
    """The encoder geometry, walked once for model construction, the
    forward pass and the accounting.

    The input block feeds the causal stack, then the non-causal cascade.
    The 2x time stacking (double width, half rate) runs ahead of the layer
    at position ``stack_after`` of that sequence; when every layer comes
    before it (no non-causal layers), it runs after the last one. Non-causal
    layers keep their expert placement when the selector picks them (``all``
    every layer, ``odd`` odd-indexed layers, ``first_only`` layer 0) and
    fall back to a plain feed-forward pair otherwise.
    """
    stages = []
    width = config.input_block.out_dim
    for stack, layers in (("causal", config.causal), ("noncausal", config.non_causal)):
        for i, layer in enumerate(layers):
            if stack == "noncausal" and layer.moe_placement != "none" and not (
                config.moe_selector == "all"
                or (config.moe_selector == "odd" and i % 2 == 1)
                or (config.moe_selector == "first_only" and i == 0)
            ):
                layer = replace(layer, moe_placement="none", num_experts=0)
            n = len(stages)
            if n == config.stack_after:
                width *= 2
            proj = (width, layer.model_dim) if width != layer.model_dim else None
            width = layer.model_dim
            stages.append(Stage(stack, i, layer, proj, 2 if n < config.stack_after else 1,
                                "before" if n == config.stack_after else None))
    if config.stack_after == len(stages):
        stages[-1] = stages[-1]._replace(time_stack="after")
    return stages


# --------------------------------------------------------------------------
# flat key=value files

ENCODER_KEYS = """\
encoder.feature_dim          raw feature width
encoder.frame_stack          frames concatenated by the frontend (current + previous)
encoder.frame_downsample     keep every n-th stacked frame
encoder.input_dim            input block projection width
encoder.input_convs          number of causal conv layers in the input block
encoder.input_kernel         input block conv kernel
encoder.causal_dims          comma list of causal layer widths
encoder.causal_heads         attention heads (causal stack)
encoder.causal_kernel        depthwise conv kernel (causal stack)
encoder.causal_left_context  attention left window, frames
encoder.stack_after          causal layers run before the time-stacking step
encoder.noncausal_dims       comma list of non-causal layer widths
encoder.noncausal_heads      attention heads (non-causal stack)
encoder.noncausal_kernel     depthwise conv kernel (non-causal stack)
encoder.noncausal_left_context   attention left window, frames
encoder.right_context_total  future frames split as evenly as possible per layer
encoder.right_contexts       alternative: explicit comma list per layer
encoder.ffn_mult             feed-forward expansion
encoder.moe_placement        none | start | end | both
encoder.moe_selector         all | odd | first_only
encoder.num_experts          experts per routed layer
encoder.expert_mult          expert feed-forward expansion
encoder.moe_residual_scale   residual scale around the routed block
encoder.adapter_dim          residual adapter bottleneck (0 disables)
encoder.adapter_groups       adapter groups (one per language)
"""


def parse_kv_file(path) -> dict[str, str]:
    """Read a flat key=value file; '#' starts a comment, blank lines ignored."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    return parse_kv_text(text, source=str(path))


def parse_kv_text(text: str, source: str = "config text") -> dict[str, str]:
    """Parse flat key=value lines; ``source`` names the text in error messages."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


class _KeyReader:
    """Typed accessor over a flat dict that tracks which keys were consumed."""

    def __init__(self, raw: dict[str, str], prefix: str):
        self.raw = raw
        self.prefix = prefix
        self.seen: set[str] = set()

    def _get(self, name: str):
        key = self.prefix + name
        self.seen.add(key)
        return self.raw.get(key)

    def has(self, name: str) -> bool:
        return (self.prefix + name) in self.raw

    def str_(self, name: str, default: str | None = None) -> str:
        v = self._get(name)
        if v is None:
            if default is None:
                raise ConfigError(f"missing required config key {self.prefix + name}")
            return default
        return v

    def int_(self, name: str, default: int | None = None) -> int:
        v = self._get(name)
        if v is None:
            if default is None:
                raise ConfigError(f"missing required config key {self.prefix + name}")
            return default
        try:
            return int(v)
        except ValueError as exc:
            raise ConfigError(f"{self.prefix + name}: expected integer, got {v!r}") from exc

    def float_(self, name: str, default: float | None = None) -> float:
        v = self._get(name)
        if v is None:
            if default is None:
                raise ConfigError(f"missing required config key {self.prefix + name}")
            return default
        try:
            return float(v)
        except ValueError as exc:
            raise ConfigError(f"{self.prefix + name}: expected number, got {v!r}") from exc

    def int_list(self, name: str, default: list[int] | None = None) -> list[int]:
        v = self._get(name)
        if v is None:
            if default is None:
                raise ConfigError(f"missing required config key {self.prefix + name}")
            return default
        try:
            return [int(p) for p in v.split(",") if p.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"{self.prefix + name}: expected comma list of ints") from exc

    def unknown_keys(self) -> list[str]:
        mine = {k for k in self.raw if k.startswith(self.prefix)}
        return sorted(mine - self.seen)


def split_right_context(total: int, layers: int) -> list[int]:
    """Distribute a total future-frame budget as evenly as possible."""
    if layers == 0:
        return []
    base, extra = divmod(total, layers)
    return [base + (1 if i < extra else 0) for i in range(layers)]


def encoder_from_flat(raw: dict[str, str], prefix: str = "encoder.") -> EncoderConfig:
    r = _KeyReader(raw, prefix)
    frontend = FrontendConfig(
        feature_dim=r.int_("feature_dim"),
        stack=r.int_("frame_stack", 1),
        downsample=r.int_("frame_downsample", 1),
    )
    input_block = InputBlockConfig(
        out_dim=r.int_("input_dim"),
        num_convs=r.int_("input_convs", 3),
        kernel=r.int_("input_kernel", 3),
    )
    ffn_mult = r.int_("ffn_mult", 4)

    causal_dims = r.int_list("causal_dims")
    causal = [
        ConformerLayerConfig(
            model_dim=d,
            ffn_mult=ffn_mult,
            heads=r.int_("causal_heads", 4),
            conv_kernel=r.int_("causal_kernel", 7),
            causal=True,
            left_context=r.int_("causal_left_context", 16),
            right_context=0,
        )
        for d in causal_dims
    ]

    nc_dims = r.int_list("noncausal_dims", [])
    if r.has("right_contexts"):
        rights = r.int_list("right_contexts")
        if len(rights) != len(nc_dims):
            raise ConfigError("right_contexts length must match noncausal_dims")
    else:
        rights = split_right_context(r.int_("right_context_total", 0), len(nc_dims))
    placement = r.str_("moe_placement", "none")
    num_experts = r.int_("num_experts", 0)
    non_causal = [
        ConformerLayerConfig(
            model_dim=d,
            ffn_mult=ffn_mult,
            heads=r.int_("noncausal_heads", 4),
            conv_kernel=r.int_("noncausal_kernel", 7),
            causal=False,
            left_context=r.int_("noncausal_left_context", 16),
            right_context=rc,
            moe_placement=placement,
            num_experts=num_experts if placement != "none" else 0,
            expert_mult=r.int_("expert_mult", 4),
            moe_residual_scale=r.float_("moe_residual_scale", 1.0),
        )
        for d, rc in zip(nc_dims, rights)
    ]

    adapter_dim = r.int_("adapter_dim", 0)
    adapters = None
    if adapter_dim > 0:
        adapters = AdapterConfig(dim=adapter_dim, num_groups=r.int_("adapter_groups"))
    stack_after = r.int_("stack_after", 0)
    moe_selector = r.str_("moe_selector", "all")

    unknown = r.unknown_keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    cfg = EncoderConfig(
        frontend=frontend,
        input_block=input_block,
        causal=causal,
        non_causal=non_causal,
        stack_after=stack_after,
        moe_selector=moe_selector,
        adapters=adapters,
    )
    cfg.validate()
    return cfg


def encoder_to_flat(cfg: EncoderConfig, prefix: str = "encoder.") -> str:
    """Serialize an EncoderConfig to the flat key=value text form.

    Only geometries expressible in the flat schema round-trip: uniform
    per-stack heads/kernels/contexts and uniform expert placement, which is
    everything this package constructs.
    """
    lines = [
        f"{prefix}feature_dim={cfg.frontend.feature_dim}",
        f"{prefix}frame_stack={cfg.frontend.stack}",
        f"{prefix}frame_downsample={cfg.frontend.downsample}",
        f"{prefix}input_dim={cfg.input_block.out_dim}",
        f"{prefix}input_convs={cfg.input_block.num_convs}",
        f"{prefix}input_kernel={cfg.input_block.kernel}",
        f"{prefix}stack_after={cfg.stack_after}",
    ]
    ffn_mult = (cfg.causal + cfg.non_causal)[0].ffn_mult
    lines.append(f"{prefix}ffn_mult={ffn_mult}")
    if cfg.causal:
        c0 = cfg.causal[0]
        lines += [
            f"{prefix}causal_dims={','.join(str(l.model_dim) for l in cfg.causal)}",
            f"{prefix}causal_heads={c0.heads}",
            f"{prefix}causal_kernel={c0.conv_kernel}",
            f"{prefix}causal_left_context={c0.left_context}",
        ]
    if cfg.non_causal:
        n0 = cfg.non_causal[0]
        lines += [
            f"{prefix}noncausal_dims={','.join(str(l.model_dim) for l in cfg.non_causal)}",
            f"{prefix}noncausal_heads={n0.heads}",
            f"{prefix}noncausal_kernel={n0.conv_kernel}",
            f"{prefix}noncausal_left_context={n0.left_context}",
            f"{prefix}right_contexts={','.join(str(l.right_context) for l in cfg.non_causal)}",
            f"{prefix}moe_placement={n0.moe_placement}",
            f"{prefix}moe_selector={cfg.moe_selector}",
            f"{prefix}num_experts={n0.num_experts}",
            f"{prefix}expert_mult={n0.expert_mult}",
            f"{prefix}moe_residual_scale={n0.moe_residual_scale:g}",
        ]
    if cfg.adapters is not None:
        lines += [
            f"{prefix}adapter_dim={cfg.adapters.dim}",
            f"{prefix}adapter_groups={cfg.adapters.num_groups}",
        ]
    return "\n".join(lines) + "\n"
