"""Evaluation: frame accuracy, per-layer routing analytics (expert loads,
routing-language mutual information, over-capacity history), and the
adapter-versus-experts parity experiment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import count_params
from .config import EncoderConfig
from .errors import ConfigError
from .moe import RoutingDecision, over_capacity_ratio, routing_records
from .synth import SyntheticTaskSpec, frame_targets, generate_batch
from .tensor import no_grad
from .training import TrainConfig, TrainedModel, train

# over-capacity ratio bins of the report's histogram
OVERCAP_BINS = (0.0, 0.01, 0.05, 0.1, 0.2, 0.35, 1.0)
# largest relative gap between the paired models' inference budgets
BUDGET_TOLERANCE = 0.02


def mutual_information_bits(joint_counts: np.ndarray) -> float:
    """MI of the empirical joint distribution, in bits; 0 for degenerate margins."""
    total = joint_counts.sum()
    if total <= 0:
        return 0.0
    p = joint_counts / total
    pl = p.sum(axis=1, keepdims=True)
    pe = p.sum(axis=0, keepdims=True)
    mask = p > 0
    ratio = np.where(mask, p / np.where(mask, pl * pe, 1.0), 1.0)
    return float(np.sum(np.where(mask, p * np.log2(ratio), 0.0)))


class LayerRouting:
    """Routing behavior of one expert layer, accumulated over an evaluation."""

    def __init__(self, num_languages: int, num_experts: int):
        self.counts = np.zeros(num_experts, dtype=np.int64)           # top-2 selections
        self.joint_top1 = np.zeros((num_languages, num_experts))      # top-1 counts
        self.joint_weighted = np.zeros((num_languages, num_experts))  # gate-weighted mass
        self.overcap_batches: list[np.ndarray] = []  # over_capacity_ratio of each batch
        self.num_frames = 0

    def add(self, decision: RoutingDecision, frame_langs: np.ndarray) -> None:
        """Fold in one batch's decision; ``frame_langs`` is each frame's language."""
        self.counts += decision.counts
        self.num_frames += decision.num_frames
        self.overcap_batches.append(over_capacity_ratio(decision))
        idx, gates = decision.top2_idx, decision.top2_gates.data
        np.add.at(self.joint_top1, (frame_langs, idx[:, 0]), 1)
        np.add.at(self.joint_weighted, (frame_langs, idx[:, 0]), gates[:, 0])
        np.add.at(self.joint_weighted, (frame_langs, idx[:, 1]), gates[:, 1])

    @property
    def load_fractions(self) -> np.ndarray:
        return self.counts / max(self.num_frames, 1)

    @property
    def mi_top1(self) -> float:
        return mutual_information_bits(self.joint_top1)

    @property
    def mi_weighted(self) -> float:
        return mutual_information_bits(self.joint_weighted)

    @property
    def overcap_max(self) -> float:
        return max((float(r.max()) for r in self.overcap_batches), default=0.0)


@dataclass
class RoutingReport:
    layers: list[LayerRouting]
    activated_evaluations: int
    num_frames: int
    language_counts: np.ndarray

    @property
    def mi_top1(self) -> float:
        return max((l.mi_top1 for l in self.layers), default=0.0)

    @property
    def overcap_max(self) -> float:
        return max((l.overcap_max for l in self.layers), default=0.0)

    def overcap_histogram(self):
        """Histogram of per-batch per-expert over-capacity ratios, all layers."""
        ratios = [r for l in self.layers for batch in l.overcap_batches for r in batch]
        return np.histogram(ratios, bins=OVERCAP_BINS)

    def lines(self) -> list[str]:
        out = [
            f"frames={self.num_frames} activated_expert_frames={self.activated_evaluations}",
            "language_counts=" + ",".join(str(int(c)) for c in self.language_counts),
        ]
        for i, layer in enumerate(self.layers):
            loads = ",".join(f"{v:.4f}" for v in layer.load_fractions)
            out.append(
                f"layer={i} loads={loads} mi_top1={layer.mi_top1:.4f} "
                f"mi_weighted={layer.mi_weighted:.4f} overcap_max={layer.overcap_max:.4f}"
            )
        if self.layers:
            counts, edges = self.overcap_histogram()
            cells = ",".join(
                f"[{lo:g},{hi:g}):{n}" for lo, hi, n in zip(edges[:-1], edges[1:], counts)
            )
            out.append(f"overcap_histogram={cells}")
        return out


@dataclass
class EvalResult:
    accuracy: float
    routing: RoutingReport


def _forward_batches(model: TrainedModel, task: SyntheticTaskSpec, num_batches: int,
                     batch_size: int, seed: int, permutation: np.ndarray | None = None):
    """Yield ``(labels, langs, logits, decisions)`` for each evaluation batch,
    its forward run without a tape. The model is handed the language ids as
    ``permutation[langs]``; with no ``permutation``, only if it has adapters."""
    if permutation is None and model.encoder.config.adapters is not None:
        permutation = np.arange(task.num_languages)
    rng = np.random.default_rng([seed, 4])
    for _ in range(num_batches):
        feats, labels, langs = generate_batch(task, rng, batch_size)
        ids = None if permutation is None else permutation[langs]
        with no_grad():
            logits, decisions = model.logits(feats, language_ids=ids)
        yield labels, langs, logits, decisions


def evaluate(model: TrainedModel, task: SyntheticTaskSpec, num_batches: int = 16,
             batch_size: int = 16, seed: int = 1234) -> EvalResult:
    """Frame accuracy plus routing analytics over freshly sampled batches.

    The forward records no autodiff graph (``no_grad``).
    """
    model.encoder.reset_moe_evaluations()
    layers: list[LayerRouting] | None = None
    language_counts = np.zeros(task.num_languages, dtype=np.int64)
    correct = 0
    total = 0
    downsample = model.encoder.config.total_downsample
    for labels, langs, logits, decisions in _forward_batches(model, task, num_batches,
                                                             batch_size, seed):
        targets = frame_targets(labels, downsample)
        correct += int((logits.data.argmax(axis=-1) == targets).sum())
        total += targets.size
        frames_per_seq = targets.shape[1]
        language_counts += frames_per_seq * np.bincount(langs, minlength=task.num_languages)
        if layers is None:
            layers = [LayerRouting(task.num_languages, d.num_experts) for d in decisions]
        frame_langs = np.repeat(langs, frames_per_seq)
        for layer, decision in zip(layers, decisions):
            layer.add(decision, frame_langs)

    report = RoutingReport(
        layers=layers or [],
        activated_evaluations=sum(m.evaluations for m in model.encoder.moe_layers()),
        num_frames=total,
        language_counts=language_counts,
    )
    return EvalResult(accuracy=correct / total if total else 0.0, routing=report)


def routing_stream(model: TrainedModel, task: SyntheticTaskSpec, num_batches: int = 4,
                   batch_size: int = 16, seed: int = 1234) -> list[str]:
    """Line-delimited per-batch routing records for every expert layer; the
    forward records no autodiff graph."""
    batches = _forward_batches(model, task, num_batches, batch_size, seed)
    return [f"batch={batch} {line}"
            for batch, (_, _, _, decisions) in enumerate(batches)
            for li, decision in enumerate(decisions)
            for line in routing_records(li, decision)]


# --------------------------------------------------------------------------
# adapter parity experiment


def _ignores_language_ids(model: TrainedModel, task: SyntheticTaskSpec,
                          permutation: np.ndarray, num_batches: int,
                          batch_size: int) -> bool:
    """True when handing the model permuted language ids changes neither its
    routing decisions nor its logits, bit for bit, on any of the batches
    ``evaluate`` samples by default."""
    given = _forward_batches(model, task, num_batches, batch_size, 1234,
                             np.arange(task.num_languages))
    relabelled = _forward_batches(model, task, num_batches, batch_size, 1234, permutation)
    for (*_, logits, decisions), (*_, other, permuted) in zip(given, relabelled):
        if not (np.array_equal(logits.data, other.data)
                and all(np.array_equal(a.top2_idx, b.top2_idx)
                        for a, b in zip(decisions, permuted))):
            return False
    return True


@dataclass
class CompareReport:
    adapter_accuracy: float
    moe_accuracy: float
    adapter_inference_params: int
    moe_inference_params: int
    adapter_total_params: int
    moe_total_params: int
    adapter_usage: np.ndarray
    moe_routing: RoutingReport
    language_id_independent: bool

    @property
    def budget_gap(self) -> float:
        return (
            abs(self.adapter_inference_params - self.moe_inference_params)
            / self.adapter_inference_params
        )

    def lines(self) -> list[str]:
        out = [
            f"adapter.accuracy={self.adapter_accuracy:.4f}",
            f"moe.accuracy={self.moe_accuracy:.4f}",
            f"adapter.inference_params={self.adapter_inference_params}",
            f"moe.inference_params={self.moe_inference_params}",
            f"adapter.total_params={self.adapter_total_params}",
            f"moe.total_params={self.moe_total_params}",
            f"budget_gap={self.budget_gap:.4f}",
            f"moe.language_id_independent={int(self.language_id_independent)}",
            "adapter.usage=" + ",".join(str(int(u)) for u in self.adapter_usage),
        ]
        out.extend("moe." + line for line in self.moe_routing.lines())
        return out


def compare_adapter_vs_moe(task: SyntheticTaskSpec, adapter_config: EncoderConfig,
                           moe_config: EncoderConfig, train_cfg: TrainConfig,
                           eval_batches: int = 16,
                           eval_batch_size: int = 16) -> CompareReport:
    """Train an oracle-adapter model (ground-truth language ids) against an
    expert-routed model (no ids) at matched inference-parameter budgets.

    The budgets must agree within ``BUDGET_TOLERANCE`` (checked with the
    closed-form counter) or the pairing is rejected.
    """
    if moe_config.adapters is not None:
        raise ConfigError("the expert-routed config must not carry adapters")
    if adapter_config.adapters is None:
        raise ConfigError("the adapter config must carry adapters")
    adapter_report = count_params(adapter_config)
    moe_report = count_params(moe_config)
    gap = abs(adapter_report.inference_params - moe_report.inference_params)
    if gap / adapter_report.inference_params > BUDGET_TOLERANCE:
        raise ConfigError(
            f"inference budgets differ by {100 * gap / adapter_report.inference_params:.2f}% "
            f"({adapter_report.inference_params} vs {moe_report.inference_params}); "
            f"tolerance is {100 * BUDGET_TOLERANCE:.0f}%"
        )

    adapter_model, _ = train(adapter_config, task, train_cfg)
    moe_model, _ = train(moe_config, task, train_cfg)

    adapter_eval = evaluate(adapter_model, task, eval_batches, eval_batch_size)
    moe_eval = evaluate(moe_model, task, eval_batches, eval_batch_size)

    # ablation: permuting the language ids must not change the expert model
    permutation = np.roll(np.arange(task.num_languages), 1)
    id_independent = _ignores_language_ids(moe_model, task, permutation,
                                           eval_batches, eval_batch_size)

    usage = np.zeros(task.num_languages, dtype=np.int64)
    for bank in adapter_model.encoder.adapter_banks:
        usage += bank.usage

    return CompareReport(
        adapter_accuracy=adapter_eval.accuracy,
        moe_accuracy=moe_eval.accuracy,
        adapter_inference_params=adapter_report.inference_params,
        moe_inference_params=moe_report.inference_params,
        adapter_total_params=adapter_report.total_params,
        moe_total_params=moe_report.total_params,
        adapter_usage=usage,
        moe_routing=moe_eval.routing,
        language_id_independent=id_independent,
    )
