"""Mixture-of-experts layer: softmax gating, top-2 routing, weighted
combination, the load-balancing auxiliary loss, and over-capacity statistics.

Each frame is scored by a linear gate and forwarded through the two experts
with the highest gate probabilities; their outputs are summed with the raw
softmax weights (no renormalization over the selected pair). Selection
indices are constants under differentiation; the gate probabilities stay on
the graph, so routing remains trainable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ParameterError
from .tensor import Tensor


@dataclass
class RoutingDecision:
    """Per-frame top-2 selections plus the batch aggregates the losses need.

    ``top2_idx[s]`` holds the two selected expert ids in descending gate
    order; ``top2_gates`` the matching probabilities (graph tensors).
    ``counts[i]`` is how many frames selected expert i in either slot, so
    ``counts.sum() == 2 * num_frames``. ``gates`` is the full (frames x
    experts) probability matrix; its column means are the differentiable
    load signal.
    """

    top2_idx: np.ndarray
    top2_gates: Tensor
    gates: Tensor
    counts: np.ndarray
    num_frames: int

    @property
    def num_experts(self) -> int:
        return int(self.gates.shape[-1])

    @property
    def mean_gates(self) -> np.ndarray:
        return self.gates.data.mean(axis=0)

    @property
    def load_fractions(self) -> np.ndarray:
        return self.counts / max(self.num_frames, 1)


class ExpertFFN:
    """One expert: two linear maps with a swish between."""

    def __init__(self, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    def forward(self, x: Tensor) -> Tensor:
        return T.matmul(T.swish(T.matmul(x, self.w1) + self.b1), self.w2) + self.b2


class MoELayer:
    """Gate matrix plus identically shaped expert feed-forward networks."""

    def __init__(self, gate_w: Tensor, experts: list[ExpertFFN]):
        if len(experts) < 2:
            raise ConfigError("top-2 routing needs at least 2 experts")
        self.gate_w = gate_w
        self.experts = experts
        # rows the expert FFNs actually ran on since the last reset; the
        # activated-parameter contract keeps this at exactly 2 per frame
        self.evaluations = 0

    @property
    def num_experts(self) -> int:
        return len(self.experts)

    @property
    def model_dim(self) -> int:
        return int(self.gate_w.shape[0])

    def reset_evaluations(self) -> None:
        self.evaluations = 0

    def _run_expert(self, i: int, rows: Tensor) -> Tensor:
        self.evaluations += rows.shape[0]
        return self.experts[i].forward(rows)

    def gate(self, x: Tensor) -> Tensor:
        """Per-frame probability over experts: softmax of the gate projection."""
        if x.ndim != 2 or x.shape[1] != self.model_dim:
            raise ParameterError(
                f"gate: expected (frames, {self.model_dim}) input, got {x.shape}"
            )
        return T.softmax(T.matmul(x, self.gate_w), axis=1)

    def forward(self, x: Tensor) -> tuple[Tensor, RoutingDecision]:
        """Route each frame through its two selected experts only.

        One grouped dispatch over the (frame, slot) expert ids runs each
        selected expert once on all of its frames; the outputs, back in
        (frame, slot) order, are scaled by their gate probability and the two
        slots summed. Experts that no frame selected never execute (and
        receive no gradient).
        """
        gates = self.gate(x)
        decision = route_top2(gates)
        frames = decision.num_frames
        if frames == 0:
            return T.Tensor(np.zeros_like(x.data)), decision
        out = _grouped_dispatch(x, decision.top2_idx.reshape(-1), decision.counts,
                                self._run_expert, slots=2)
        out = T.reshape(out, (frames, 2, -1))
        weight = T.reshape(decision.top2_gates, (frames, 2, 1))
        return T.sum_(out * weight, axis=1), decision


def _grouped_dispatch(x: Tensor, owner: np.ndarray, counts: np.ndarray, run,
                      slots: int = 1) -> Tensor:
    """Send entry r, a copy of row ``r // slots`` of ``x``, through module
    ``owner[r]``; returns the outputs in entry order.

    A stable sort of ``owner`` puts each module's entries in one contiguous
    run, in ascending entry order; one gather builds the sorted input,
    ``run(i, rows)`` runs module i on its whole run at once, and one inverse
    gather restores the entry order. ``counts[i]`` is the number of entries
    module i owns; a module that owns none never runs.
    """
    order = np.argsort(owner, kind="stable")
    grouped = T.take_rows(x, order // slots)
    ends = np.cumsum(counts)
    outs = [run(i, T.slice_axis(grouped, 0, ends[i] - counts[i], ends[i]))
            for i in np.flatnonzero(counts)]
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    return T.take_rows(T.concat(outs, axis=0), inverse)


def route_top2(gates: Tensor) -> RoutingDecision:
    """Select the two largest gates per frame; ties break to the lower index."""
    if gates.ndim != 2:
        raise ParameterError(f"route_top2: expected (frames, experts), got {gates.shape}")
    num_frames, num_experts = gates.shape
    if num_experts < 2:
        raise ConfigError("route_top2: need at least 2 experts")
    # stable argsort of the negated gates = descending order, lowest index first on ties
    idx = np.argsort(-gates.data, axis=1, kind="stable")[:, :2].astype(np.int64)
    rows = np.arange(num_frames, dtype=np.int64)
    flat_rows = np.repeat(rows, 2)
    top2_gates = T.reshape(T.take_entries(gates, flat_rows, idx.reshape(-1)), (num_frames, 2))
    counts = np.bincount(idx.reshape(-1), minlength=num_experts).astype(np.int64)
    return RoutingDecision(
        top2_idx=idx,
        top2_gates=top2_gates,
        gates=gates,
        counts=counts,
        num_frames=num_frames,
    )


def aux_load_balance_loss(decision: RoutingDecision) -> Tensor:
    """Load-balancing penalty: mean over experts of (selection fraction) x
    (mean gate probability).

    The selection counts are constants under differentiation; the gradient
    flows through the mean gate values, which approximate the squared load.
    Uniform routing gives the minimum 2/N^2; total collapse gives 1/N.
    """
    if decision.num_frames == 0:
        raise ParameterError("aux_load_balance_loss: decision covers zero frames")
    n = decision.num_experts
    fractions = decision.counts.astype(decision.gates.dtype) / decision.num_frames
    mean_gates = T.mean(decision.gates, axis=0)
    return T.sum_(mean_gates * Tensor(fractions)) / n


def over_capacity_ratio(decision: RoutingDecision) -> np.ndarray:
    """Per-expert selections beyond the fair share, per frame of the batch.

    Each of S frames makes two selections, so an expert's fair share is
    2S/N; the ratio is its excess over that share divided by S. (GShard's
    capacity factor scales such a threshold because it drops the excess;
    no frame is ever dropped here, so the fair share is the one threshold.)
    """
    s = decision.num_frames
    return np.maximum(0.0, decision.counts - 2.0 * s / decision.num_experts) / max(s, 1)


def routing_records(layer_index: int, decision: RoutingDecision) -> list[str]:
    """Line-delimited routing statistics, one record per expert."""
    ratios = over_capacity_ratio(decision)
    mean_gates = decision.mean_gates
    lines = []
    for i in range(decision.num_experts):
        lines.append(
            f"layer={layer_index} expert={i} count={int(decision.counts[i])} "
            f"mean_gate={mean_gates[i]:.6f} overcap={ratios[i]:.6f}"
        )
    return lines
