"""Architecture and experiment configuration.

EncoderConfig describes the whole encoder geometry: a frame-stacking
frontend, an input block followed by the 2x time stacking, a causal stack of
Conformer layers, a non-causal cascade with bounded right context, expert
placement, and optional per-group residual adapters. ``plan`` walks it once
into ordered stage records (stack, width, projection) that model
construction, the forward pass and parameter/MAC accounting all consume.

Configs round-trip through flat ``key=value`` text files. ``ENCODER_KEYS``
is the encoder's key table (type, default, description), which the reader,
the writer and the README all follow; ``dataclass_from_flat`` reads any
other section from its dataclass fields. A value that no geometry varies is
a constant, not a key: the layers of both stacks share one head count, conv
kernel and left context, and every input block conv has ``INPUT_KERNEL``
taps.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace
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

    def validate(self) -> None:
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.model_dim <= 0 or self.model_dim % self.heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} must be a positive multiple of heads {self.heads}"
            )
        if self.conv_kernel < 1 or self.ffn_mult < 1 or self.expert_mult < 1:
            raise ConfigError("conv_kernel, ffn_mult and expert_mult must be >= 1")
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


INPUT_KERNEL = 3  # kernel of every causal conv of the input block


@dataclass
class InputBlockConfig:
    out_dim: int
    num_convs: int = 3

    def validate(self) -> None:
        if self.out_dim < 1 or self.num_convs < 0:
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
        return plan(self)[-1].layer.model_dim


class Stage(NamedTuple):
    """One Conformer layer of the encoder walk, in execution order."""

    stack: str                     # "causal" or "noncausal" (parameter-name prefix)
    index: int                     # position within its stack
    layer: ConformerLayerConfig    # MoE selector already applied
    proj: tuple[int, int] | None   # width-matching projection ahead of the layer


def plan(config: EncoderConfig) -> list[Stage]:
    """The encoder geometry, walked once for model construction, the
    forward pass and the accounting.

    The input block, then the 2x time stacking (double width, half rate),
    feed the causal stack, then the non-causal cascade, so every layer runs
    at the output frame rate and the first one takes ``2 * input_dim``
    features. Non-causal layers keep their expert placement when the
    selector picks them (``all`` every layer, ``odd`` odd-indexed layers,
    ``first_only`` layer 0) and fall back to a plain feed-forward pair
    otherwise.
    """
    stages = []
    width = 2 * config.input_block.out_dim
    for stack, layers in (("causal", config.causal), ("noncausal", config.non_causal)):
        for i, layer in enumerate(layers):
            if stack == "noncausal" and layer.moe_placement != "none" and not (
                config.moe_selector == "all"
                or (config.moe_selector == "odd" and i % 2 == 1)
                or (config.moe_selector == "first_only" and i == 0)
            ):
                layer = replace(layer, moe_placement="none", num_experts=0)
            proj = (width, layer.model_dim) if width != layer.model_dim else None
            width = layer.model_dim
            stages.append(Stage(stack, i, layer, proj))
    return stages


# --------------------------------------------------------------------------
# flat key=value files

REQUIRED = MISSING  # a key table default: the key must be given


class Key(NamedTuple):  # one row of a key table
    type: str        # "int", "float", "str" or "list[int]"
    default: object  # REQUIRED or the value
    doc: str = ""


# type -> (parse, what a value must look like)
_TYPES = {
    "int": (int, "integer"),
    "float": (float, "number"),
    "str": (str, "text"),
    "list[int]": (lambda text: [int(p) for p in text.split(",")] if text.strip() else [],
                  "comma list of ints"),
}

# The encoder schema, in the order ``encoder_to_flat`` writes it. ffn_mult,
# heads, conv_kernel and left_context apply to every layer of both stacks.
ENCODER_KEYS = {
    "feature_dim": Key("int", REQUIRED, "raw feature width"),
    "frame_stack": Key("int", 1, "frames concatenated by the frontend (current + previous)"),
    "frame_downsample": Key("int", 1, "keep every n-th stacked frame"),
    "input_dim": Key("int", REQUIRED, "input block projection width"),
    "input_convs": Key("int", 3, "number of causal conv layers in the input block"),
    "ffn_mult": Key("int", 4, "feed-forward expansion"),
    "heads": Key("int", 4, "attention heads"),
    "conv_kernel": Key("int", 7, "depthwise conv kernel"),
    "left_context": Key("int", 16, "attention left window, frames"),
    "causal_dims": Key("list[int]", REQUIRED, "comma list of causal layer widths"),
    "noncausal_dims": Key("list[int]", (), "comma list of non-causal layer widths"),
    "right_contexts": Key("list[int]", (), "comma list of future frames per non-causal layer "
                          "(all 0 if empty)"),
    "moe_placement": Key("str", "none", "one of " + ", ".join(MOE_PLACEMENTS)),
    "moe_selector": Key("str", "all", "one of " + ", ".join(MOE_SELECTORS)),
    "num_experts": Key("int", 0, "experts per routed layer"),
    "expert_mult": Key("int", 4, "expert feed-forward expansion"),
    "adapter_dim": Key("int", 0, "residual adapter bottleneck (0 disables)"),
    "adapter_groups": Key("int", 0, "adapter groups (one per language)"),
}


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


def read_flat(raw: dict[str, str], prefix: str, keys: dict[str, Key]) -> dict:
    """Read every key of the table ``keys`` under ``prefix``, parsed by its
    type, with table defaults for absent keys. A missing required key, an
    unparsable value or a ``prefix`` key the table does not name is a
    ConfigError."""
    values = {}
    for name, key in keys.items():
        text = raw.get(prefix + name)
        if text is None:
            if key.default is REQUIRED:
                raise ConfigError(f"missing required config key {prefix + name}")
            values[name] = key.default
            continue
        parse, what = _TYPES[key.type]
        try:
            values[name] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{prefix + name}: expected {what}, got {text!r}") from exc
    unknown = sorted(k for k in raw if k.startswith(prefix) and k[len(prefix):] not in keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return values


def dataclass_from_flat(cls, raw: dict[str, str], prefix: str,
                        renames: dict[str, str] | None = None):
    """Build and validate the dataclass ``cls`` from its ``prefix`` keys: one
    key per field, with the field's default and (string) type annotation,
    named after the field unless ``renames`` maps the field name to another."""
    renames = renames or {}
    names = {f.name: renames.get(f.name, f.name) for f in fields(cls)}
    values = read_flat(raw, prefix, {names[f.name]: Key(f.type, f.default)
                                     for f in fields(cls)})
    obj = cls(**{field: values[key] for field, key in names.items()})
    obj.validate()
    return obj


def encoder_from_flat(raw: dict[str, str], prefix: str = "encoder.") -> EncoderConfig:
    v = read_flat(raw, prefix, ENCODER_KEYS)
    nc_dims = v["noncausal_dims"]
    rights = v["right_contexts"] or [0] * len(nc_dims)
    if len(rights) != len(nc_dims):
        raise ConfigError("right_contexts length must match noncausal_dims")
    adapters = None
    if v["adapter_dim"] < 0:
        raise ConfigError(f"{prefix}adapter_dim must be >= 0 (0 disables adapters)")
    if v["adapter_dim"] > 0:
        adapters = AdapterConfig(dim=v["adapter_dim"], num_groups=v["adapter_groups"])
    elif v["adapter_groups"] != 0:
        raise ConfigError(f"{prefix}adapter_groups needs {prefix}adapter_dim >= 1")

    def layer(d, **kw):
        return ConformerLayerConfig(
            model_dim=d, ffn_mult=v["ffn_mult"], heads=v["heads"],
            conv_kernel=v["conv_kernel"], left_context=v["left_context"], **kw)

    placement = v["moe_placement"]
    cfg = EncoderConfig(
        frontend=FrontendConfig(v["feature_dim"], v["frame_stack"], v["frame_downsample"]),
        input_block=InputBlockConfig(v["input_dim"], v["input_convs"]),
        causal=[layer(d, causal=True) for d in v["causal_dims"]],
        non_causal=[
            layer(d, right_context=rc, moe_placement=placement,
                  num_experts=v["num_experts"] if placement != "none" else 0,
                  expert_mult=v["expert_mult"])
            for d, rc in zip(nc_dims, rights)
        ],
        moe_selector=v["moe_selector"],
        adapters=adapters,
    )
    cfg.validate()
    return cfg


def encoder_to_flat(cfg: EncoderConfig, prefix: str = "encoder.") -> str:
    """Serialize an EncoderConfig to flat key=value text: one line per
    ``ENCODER_KEYS`` entry, in table order.

    Only geometries expressible in the flat schema round-trip: one
    feed-forward expansion, head count, conv kernel and left context for
    every layer of both stacks, and uniform expert placement, which is
    everything the config files construct. Any other geometry (say, one
    layer with other heads) is a ConfigError, never a text that reads back
    as another encoder.
    """
    first = (cfg.causal + cfg.non_causal)[0]
    v = {name: key.default for name, key in ENCODER_KEYS.items()}
    v.update(feature_dim=cfg.frontend.feature_dim, frame_stack=cfg.frontend.stack,
             frame_downsample=cfg.frontend.downsample, input_dim=cfg.input_block.out_dim,
             input_convs=cfg.input_block.num_convs, ffn_mult=first.ffn_mult,
             heads=first.heads, conv_kernel=first.conv_kernel, left_context=first.left_context,
             causal_dims=[l.model_dim for l in cfg.causal],
             noncausal_dims=[l.model_dim for l in cfg.non_causal],
             right_contexts=[l.right_context for l in cfg.non_causal],
             moe_selector=cfg.moe_selector,
             adapter_dim=cfg.adapters.dim if cfg.adapters else 0,
             adapter_groups=cfg.adapters.num_groups if cfg.adapters else 0)
    if cfg.non_causal:
        n0 = cfg.non_causal[0]
        v.update(moe_placement=n0.moe_placement, num_experts=n0.num_experts,
                 expert_mult=n0.expert_mult)
    lines = [f"{prefix}{name}=" + (",".join(map(str, value)) if isinstance(value, (list, tuple))
                                   else str(value))
             for name, value in v.items()]
    text = "\n".join(lines) + "\n"
    if encoder_from_flat(parse_kv_text(text), prefix) != cfg:
        raise ConfigError("the encoder has per-layer settings that flat keys cannot hold; "
                          "its text would read back as another encoder")
    return text
