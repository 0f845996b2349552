"""Closed-form parameter and FLOP accounting for encoder configs.

Counts distinguish total stored parameters from inference-activated ones:
a routed layer stores its gate plus all N expert feed-forwards but evaluates
the gate plus exactly two experts per frame; adapter banks store every group
but evaluate one. The executable-consistency tests hold these formulas to
exact agreement with built models, and the MAC tallies to exact agreement
with instrumented forward passes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import INPUT_KERNEL, ConformerLayerConfig, EncoderConfig, plan

# published total of the dense baseline (configs/reference/b1.cfg), the
# calibration point of ``fitted_remainder``
BASELINE_PUBLISHED = 180_000_000


@dataclass
class ComponentCount:
    total: int = 0
    inference: int = 0

    def add(self, total: int, inference: int | None = None):
        self.total += total
        self.inference += total if inference is None else inference


@dataclass
class ParamReport:
    components: dict[str, ComponentCount]
    flops_sparse: int
    flops_dense: int

    @property
    def total_params(self) -> int:
        return sum(c.total for c in self.components.values())

    @property
    def inference_params(self) -> int:
        return sum(c.inference for c in self.components.values())


def _norm_params(d: int) -> int:
    return 2 * d


def _linear_params(d_in: int, d_out: int) -> int:
    return d_in * d_out + d_out


def _ffn_params(d: int, mult: int) -> int:
    return _linear_params(d, mult * d) + _linear_params(mult * d, d)


def _attention_params(d: int) -> int:
    return _norm_params(d) + 4 * _linear_params(d, d)


def _conv_module_params(d: int, kernel: int) -> int:
    return (
        _norm_params(d)
        + _linear_params(d, 2 * d)          # pointwise expand
        + kernel * d + d                    # depthwise kernel + bias
        + _norm_params(d)
        + _linear_params(d, d)              # pointwise project
    )


def _layer_counts(cfg: ConformerLayerConfig, stack: ComponentCount,
                  gates: ComponentCount, experts: ComponentCount) -> None:
    d = cfg.model_dim
    for routed in cfg.moe_sites:
        stack.add(_norm_params(d))  # the sublayer's pre-norm
        if not routed:
            stack.add(_ffn_params(d, cfg.ffn_mult))
        else:
            gates.add(d * cfg.num_experts)
            expert_size = _ffn_params(d, cfg.expert_mult)
            experts.add(cfg.num_experts * expert_size, 2 * expert_size)
    stack.add(_attention_params(d))
    stack.add(_conv_module_params(d, cfg.conv_kernel))
    stack.add(_norm_params(d))  # closing norm


def count_params(config: EncoderConfig) -> ParamReport:
    """Exact integer parameter counts per component, plus per-frame MACs."""
    config.validate()
    components = {
        name: ComponentCount()
        for name in ("frontend", "causal_stack", "non_causal_stack",
                     "gates", "experts", "adapters")
    }
    fe, ib = config.frontend, config.input_block
    components["frontend"].add(_linear_params(fe.stacked_dim, ib.out_dim))
    components["frontend"].add(ib.num_convs * (INPUT_KERNEL * ib.out_dim**2 + ib.out_dim))

    for stage in plan(config):
        bucket = components["causal_stack" if stage.layer.causal else "non_causal_stack"]
        if stage.proj is not None:
            bucket.add(_linear_params(*stage.proj))
        _layer_counts(stage.layer, bucket, components["gates"], components["experts"])

    if config.adapters is not None:
        a = config.adapters
        for layer in config.non_causal:
            group = 2 * layer.model_dim * a.dim + a.dim + layer.model_dim
            components["adapters"].add(a.num_groups * group, group)

    sparse, dense = flops_per_frame(config)
    return ParamReport(components=components, flops_sparse=sparse, flops_dense=dense)


# --------------------------------------------------------------------------
# multiply-accumulate accounting


def _layer_macs(cfg: ConformerLayerConfig, frames: int, pairs: int, dense: bool) -> int:
    """MACs of one Conformer layer over ``frames`` frames whose attention
    scores ``pairs`` (query, key) pairs."""
    d = cfg.model_dim
    macs = 0
    for routed in cfg.moe_sites:
        if not routed:
            macs += frames * 2 * cfg.ffn_mult * d * d
        else:
            active = cfg.num_experts if dense else 2
            macs += frames * (d * cfg.num_experts + active * 2 * cfg.expert_mult * d * d)
    macs += frames * 4 * d * d + 2 * d * pairs     # attention projections + scores
    macs += frames * (3 * d * d + cfg.conv_kernel * d)  # conv module
    return macs


def _encoder_macs(config: EncoderConfig, dense: bool, frames, pairs,
                  causal_only: bool = False) -> int:
    """Input block plus every planned stage: ``frames(rate)`` is the frame
    count at ``rate`` frames per output frame (2 for the input block, ahead
    of the time stacking, and 1 for every stage), ``pairs(frames, layer)``
    a stage's attention pairs."""
    config.validate()
    fe, ib = config.frontend, config.input_block
    macs = frames(2) * (fe.stacked_dim * ib.out_dim + ib.num_convs * INPUT_KERNEL * ib.out_dim**2)
    n = frames(1)
    for stage in plan(config):
        if causal_only and not stage.layer.causal:
            break
        if stage.proj is not None:
            macs += n * stage.proj[0] * stage.proj[1]
        macs += _layer_macs(stage.layer, n, pairs(n, stage.layer), dense)
        if config.adapters is not None and not stage.layer.causal:
            macs += n * 2 * stage.layer.model_dim * config.adapters.dim
    return macs


def flops_per_frame(config: EncoderConfig) -> tuple[int, int]:
    """Steady-state multiply-accumulates per final output frame.

    Returns (sparse, dense_equivalent): sparse evaluates 2 experts per routed
    layer, dense evaluates all N. The input block runs ahead of the time
    stacking, at twice the output frame rate, and is weighted accordingly;
    attention scores a full window per frame.
    """
    return tuple(
        _encoder_macs(config, dense, frames=lambda rate: rate,
                      pairs=lambda n, l: n * (l.left_context + 1 + l.right_context))
        for dense in (False, True))


def _window_pairs(frames: int, cfg: ConformerLayerConfig) -> int:
    """Mask-allowed (query, key) pairs over ``frames`` frames, edges included."""
    return sum(min(t, cfg.left_context) + 1 + min(frames - 1 - t, cfg.right_context)
               for t in range(frames))


def total_macs(config: EncoderConfig, num_raw_frames: int, batch: int = 1,
               dense: bool = False, mode: str = "cascaded") -> int:
    """Exact MAC count of one forward pass, boundary effects included.

    Matches the instrumented tally of ``EncoderModel.forward`` on the same
    shapes (attention MACs are counted for mask-allowed pairs only).
    """
    t_pre = -(-num_raw_frames // config.frontend.downsample)  # ceil
    macs = _encoder_macs(
        config, dense, frames=lambda rate: t_pre * rate // 2,
        pairs=_window_pairs,
        causal_only=mode != "cascaded")
    return batch * macs


# --------------------------------------------------------------------------
# published-size reproduction


def fitted_remainder(baseline_config: EncoderConfig) -> int:
    """Additive constant for parameters outside the encoder (decoders,
    output embeddings): ``BASELINE_PUBLISHED`` less the counted total of the
    dense baseline ``baseline_config``."""
    return BASELINE_PUBLISHED - count_params(baseline_config).total_params


def report_lines(report: ParamReport, remainder: int = 0) -> list[str]:
    lines = ["component            total     inference"]
    for name, c in report.components.items():
        lines.append(f"{name:<18} {c.total:>10} {c.inference:>10}")
    lines.append(
        f"{'encoder':<18} {report.total_params:>10} {report.inference_params:>10}"
    )
    if remainder:
        lines.append(
            f"{'with remainder':<18} {report.total_params + remainder:>10} "
            f"{report.inference_params + remainder:>10}"
        )
    lines.append(f"flops/frame sparse={report.flops_sparse} dense={report.flops_dense}")
    return lines


def report_kv(report: ParamReport, remainder: int = 0) -> list[str]:
    lines = []
    for name, c in report.components.items():
        lines.append(f"params.{name}.total={c.total}")
        lines.append(f"params.{name}.inference={c.inference}")
    lines.append(f"params.total={report.total_params}")
    lines.append(f"params.inference={report.inference_params}")
    if remainder:
        lines.append(f"params.remainder={remainder}")
        lines.append(f"params.total_with_remainder={report.total_params + remainder}")
        lines.append(
            f"params.inference_with_remainder={report.inference_params + remainder}"
        )
    lines.append(f"flops.sparse={report.flops_sparse}")
    lines.append(f"flops.dense={report.flops_dense}")
    return lines
