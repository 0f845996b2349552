"""Span tracing of moeformer from outside the program.

``install`` replaces the public functions and public methods of the traced
modules with wrappers that record one span per call: name, start, end,
parent span and iteration id. Where one traced module imported a function
of another by name (``training.generate_batch``), that imported name is
patched too, so the program's own calls are seen. No file of the program
changes; ``install`` returns a function that puts every original back.

Tensor ops additionally record their multiply-accumulates (the same
per-shape rule ``tensor._tally`` applies) and wrap the backward rule they
attach to their output, so backward time is split by op kind as well.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

# tensor-module functions grouped into the op kinds the benchmark reports
OP_KINDS = {
    "matmul": "matmul",
    "masked_attention": "masked_attention",
    "layer_norm": "layer_norm",
    "causal_conv": "causal_conv",
    "causal_depthwise_conv": "causal_depthwise_conv",
    "swish": "swish",
    "softmax": "softmax",
    "log_softmax": "softmax",
    "masked_softmax": "softmax",
    "add": "elementwise",
    "sub": "elementwise",
    "mul": "elementwise",
    "scale": "elementwise",
    "sigmoid": "elementwise",
    "sum_": "elementwise",
    "mean": "elementwise",
    "reshape": "shape",
    "transpose": "shape",
    "slice_axis": "shape",
    "concat": "shape",
    "take_rows": "gather_scatter",
    "scatter_rows": "gather_scatter",
    "take_entries": "gather_scatter",
    "take_index_last": "gather_scatter",
    "top_k": "gather_scatter",
}
KINDS = tuple(dict.fromkeys(OP_KINDS.values()))
MAC_KINDS = ("matmul", "masked_attention", "causal_conv", "causal_depthwise_conv")

# context managers: a span would cover only their creation, not their body
_SKIP = {"count_macs"}


def _matmul_macs(a, b, out):
    return out.data.size * a.shape[-1]


def _conv_macs(x, w, bias, out):
    batch, frames, _ = x.shape
    return batch * frames * int(np.prod(w.shape))


def _attention_macs(q, k, v, mask, out):
    batch, heads, _, head_dim = q.shape
    return 2 * batch * heads * head_dim * int(mask.sum())


_MACS = {
    "matmul": _matmul_macs,
    "causal_conv": _conv_macs,
    "causal_depthwise_conv": _conv_macs,
    "masked_attention": _attention_macs,
}


class Tracer:
    """In-memory span store; spans are parallel arrays indexed by span id.

    ``work`` holds a count recorded at the span's boundary: MACs for tensor
    ops, frames for expert-layer calls. ``current`` is the iteration id the
    caller sets at iteration boundaries (-1 during set-up).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.iteration = array("q")
        self.work = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current = -1
        # (key, iteration) -> count, for counts that are not one per span
        self.counts: dict[tuple[str, int], float] = defaultdict(float)
        # id(MoELayer) -> per-expert selections and frames over the run
        self.loads: dict[int, tuple[np.ndarray, int]] = {}

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def begin(self, name_id: int) -> int:
        span = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.iteration.append(self.current)
        self.work.append(0)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def finish(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "iteration": np.array(self.iteration, dtype=np.int64),
            "work": np.array(self.work, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _wrap(tracer: Tracer, fn, name: str, post=None, name_of=None):
    name_id = tracer.name_id(name)
    begin, finish = tracer.begin, tracer.finish

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = begin(name_id if name_of is None else tracer.name_id(name_of(args)))
        try:
            out = fn(*args, **kwargs)
        finally:
            finish(span)
        if post is not None:
            post(span, fn, args, kwargs, out)
        return out

    return traced


def _tensor_post(tracer: Tracer, kind: str, fn):
    """Record MACs and tape nodes of one tensor op, and time its backward rule."""
    bwd_id = tracer.name_id(f"tensor.{kind}.bwd")
    macs = _MACS.get(kind)
    signature = inspect.signature(fn)

    def post(span, fn, args, kwargs, out):
        if macs is not None:
            if kwargs:
                args = tuple(signature.bind(*args, **kwargs).arguments.values())
            tracer.work[span] = macs(*args, out)
            if kind == "masked_attention":
                b, h, t, dh = args[0].shape
                tracer.counts["attention.executed_macs", tracer.current] += 2 * b * h * t * t * dh
        backward = getattr(out, "_backward", None)
        if backward is None:
            return
        tracer.counts["graph_nodes", tracer.current] += 1

        def timed_backward(g, backward=backward):
            span = tracer.begin(bwd_id)
            try:
                backward(g)
            finally:
                tracer.finish(span)

        out._backward = timed_backward

    return post


def _moe_forward_post(tracer: Tracer):
    def post(span, fn, args, kwargs, out):
        layer, x = args[0], args[1]
        tracer.work[span] = x.shape[0]
        decision = out[1]
        counts, frames = tracer.loads.get(id(layer), (0, 0))
        tracer.loads[id(layer)] = (counts + decision.counts, frames + decision.num_frames)

    return post


def _expert_post(tracer: Tracer):
    def post(span, fn, args, kwargs, out):
        tracer.work[span] = args[1].shape[0]

    return post


def _layer_name(args) -> str:
    return "encoder.causal_layer" if args[0].cfg.causal else "encoder.noncausal_layer"


def _special(tracer: Tracer, name: str, fn):
    """(post, name_of) for spans that record more than their duration."""
    module, _, attr = name.partition(".")
    if module == "tensor" and attr in OP_KINDS:
        return _tensor_post(tracer, OP_KINDS[attr], fn), None
    if name == "moe.MoELayer.forward":
        return _moe_forward_post(tracer), None
    if name == "moe.ExpertFFN.forward":
        return _expert_post(tracer), None
    if name == "encoder.ConformerLayer.forward":
        return None, _layer_name
    return None, None


def _traceable(obj, module) -> bool:
    return (inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not inspect.isgeneratorfunction(obj))


def install(tracer: Tracer, modules) -> Callable[[], None]:
    """Wrap every public function and method of ``modules``; returns undo."""
    patches: list[tuple[object, str, object]] = []
    wrappers: dict[int, object] = {}

    def patch(owner, attr, original, name):
        post, name_of = _special(tracer, name, original)
        wrapper = _wrap(tracer, original, name, post, name_of)
        patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        wrappers[id(original)] = wrapper

    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or attr in _SKIP:
                continue
            if _traceable(obj, module):
                patch(module, attr, obj, f"{short}.{attr}")
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for method, fn in list(vars(obj).items()):
                    public = not method.startswith("_") or method == "__call__"
                    if public and _traceable(fn, module):
                        patch(obj, method, fn, f"{short}.{attr}.{method}")
    for module in modules:
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                patches.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo


# --------------------------------------------------------------------------
# span aggregation


class SpanTable:
    """Per-name totals over the spans of the kept iterations."""

    def __init__(self, tracer: Tracer, kept) -> None:
        a = tracer.arrays()
        self.tracer = tracer
        self.kept = set(kept)
        n = a["name"].size
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                              minlength=n)
        keep = np.isin(a["iteration"], np.fromiter(self.kept, dtype=np.int64))
        self._a, self._duration, self._self, self._keep = a, duration, duration - covered, keep

    def _mask(self, name: str, parent: str | None = None):
        ids = self.tracer.ids
        if name not in ids:
            return np.zeros_like(self._keep)
        mask = self._keep & (self._a["name"] == ids[name])
        if parent is not None:
            parents = self._a["parent"][mask]
            parent_names = np.where(parents >= 0, self._a["name"][np.maximum(parents, 0)], -1)
            sub = parent_names == ids.get(parent, -2)
            mask[np.nonzero(mask)[0][~sub]] = False
        return mask

    def seconds(self, name: str, parent: str | None = None) -> float:
        return float(self._duration[self._mask(name, parent)].sum())

    def self_seconds(self, name: str) -> float:
        return float(self._self[self._mask(name)].sum())

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def work(self, name: str) -> int:
        return int(self._a["work"][self._mask(name)].sum())

    def children_seconds(self, name: str) -> float:
        """Time covered by direct children of every span called ``name``."""
        ids = self.tracer.ids
        if name not in ids:
            return 0.0
        is_named = self._a["name"] == ids[name]
        parents = self._a["parent"]
        child = self._keep & (parents >= 0)
        child[child] = is_named[parents[child]]
        return float(self._duration[child].sum())

    def work_by_iteration(self, names) -> dict[int, int]:
        ids = [self.tracer.ids[n] for n in names if n in self.tracer.ids]
        mask = np.isin(self._a["name"], ids)
        out: dict[int, int] = defaultdict(int)
        for it, w in zip(self._a["iteration"][mask], self._a["work"][mask]):
            out[int(it)] += int(w)
        return out

    def count(self, key: str) -> float:
        return sum(v for (k, it), v in self.tracer.counts.items() if k == key and it in self.kept)
