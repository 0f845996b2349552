"""Metrics of one benchmark run: the end-to-end set (tracing off) and the
per-layer set (from the spans of a traced run)."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time

import reference
import tracing
from moeformer import accounting, checkpoint, encoder, evaluation, moe, synth, tensor, training
from moeformer.accounting import count_params
from tracing import KINDS, MAC_KINDS, OP_KINDS, SpanTable
from workloads import HOP_S, TrainDesk

SETUP_REPEATS = 11  # at least this many set-ups are timed ...
SETUP_SECONDS = 2.0  # ... and set-ups repeat until this much time has passed
TRACED_MODULES = (tensor, moe, encoder, training, evaluation, synth, checkpoint, accounting)


def time_setups(workload, setups_ok: list) -> float:
    """Set the workload up repeatedly; returns ``setup_s``, the median of the
    set-up times, each scaled by the set-up reference kernel timed after it."""
    seconds = []
    setup_reference = reference.for_setup()
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(seconds) < SETUP_REPEATS or time.perf_counter() < deadline:
        gc.collect()  # no collection of the previous set-up's cycles inside the timing
        start = time.perf_counter()
        setups_ok.append(workload.setup())
        seconds.append(time.perf_counter() - start)
        setup_reference.sample()
    return statistics.median(setup_reference.scaled(seconds))


def end_to_end(setup_s: float, phase, iteration_reference) -> dict:
    """The end-to-end metrics; times are scaled to the reference host speed."""
    scaled = iteration_reference.scaled([it.seconds for it in phase.iterations])
    kept = list(zip(phase.kept, scaled[1:]))
    return {
        "setup_s": (setup_s, "s"),
        "iter_ms.p50": (1000.0 * statistics.median(s for _, s in kept), "ms"),
        "frames_per_s": (sum(it.frames for it, _ in kept) / sum(s for _, s in kept),
                         "frames/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def latency_tail(phase) -> dict:
    """The p90 and the real-time factor; they swing more from run to run on a
    shared machine than the end-to-end bounds allow, so they are diagnostics."""
    kept = phase.kept
    ms = [1000.0 * it.seconds for it in kept]
    if phase.utterance_rtf:
        rtf = statistics.median(phase.utterance_rtf)
    else:
        rtf = statistics.median(it.seconds / (it.frames * HOP_S) for it in kept)
    return {
        "iter_ms.p90": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "rtf": (rtf, "s/s"),
    }


def per_layer(workload, untraced, traced, tracer) -> dict:
    """Per-iteration layer metrics from the traced phase's spans."""
    kept_ids = range(1, len(traced.iterations))
    n = max(len(kept_ids), 1)
    spans = SpanTable(tracer, kept_ids)

    def ms(seconds: float) -> float:
        return 1000.0 * seconds / n

    out: dict[str, tuple[float, str]] = latency_tail(untraced)

    ops_of = {kind: [f"tensor.{op}" for op, k in OP_KINDS.items() if k == kind] for kind in KINDS}
    for kind in KINDS:
        fwd_s = sum(spans.self_seconds(op) for op in ops_of[kind])
        out[f"tensor.{kind}.fwd_ms"] = (ms(fwd_s), "ms")
        out[f"tensor.{kind}.bwd_ms"] = (ms(spans.seconds(f"tensor.{kind}.bwd")), "ms")
        out[f"tensor.{kind}.calls"] = (sum(spans.calls(op) for op in ops_of[kind]) / n, "count")
        if kind in MAC_KINDS:
            macs = sum(spans.work(op) for op in ops_of[kind])
            out[f"tensor.{kind}.macs"] = (macs / n, "MAC")
            out[f"tensor.{kind}.gmacs_per_s"] = (macs / fwd_s / 1e9 if fwd_s else 0.0, "GMAC/s")
    executed = spans.count("attention.executed_macs")
    useful = spans.work("tensor.masked_attention")
    out["tensor.masked_attention.useful_ratio"] = (useful / executed if executed else 0.0, "ratio")
    out["tensor.graph_nodes"] = (spans.count("graph_nodes") / n, "count")

    moe_fwd = spans.seconds("moe.MoELayer.forward")
    gate = spans.seconds("moe.MoELayer.gate")
    route = spans.seconds("moe.route_top2")
    experts = spans.seconds("moe.ExpertFFN.forward")
    moe_calls = spans.calls("moe.MoELayer.forward")
    routed_frames = spans.work("moe.MoELayer.forward")
    fair_share = [
        counts.max() * len(counts) / (2.0 * frames)
        for counts, frames in tracer.loads.values() if frames
    ]
    out.update({
        "moe.forward_ms": (ms(moe_fwd), "ms"),
        "moe.gate_ms": (ms(gate), "ms"),
        "moe.route_ms": (ms(route), "ms"),
        "moe.experts_ms": (ms(experts), "ms"),
        "moe.dispatch_ms": (ms(moe_fwd - gate - route - experts), "ms"),
        "moe.experts_run_per_call": (
            spans.calls("moe.ExpertFFN.forward") / moe_calls if moe_calls else 0.0, "count"),
        "moe.expert_evals_per_frame": (
            spans.work("moe.ExpertFFN.forward") / routed_frames if routed_frames else 0.0,
            "count"),
        "moe.load_max_over_fair": (max(fair_share, default=0.0), "ratio"),
    })

    enc_fwd = spans.seconds("encoder.EncoderModel.forward")
    causal = spans.seconds("encoder.causal_layer")
    noncausal = spans.seconds("encoder.noncausal_layer")
    out.update({
        "encoder.forward_ms": (ms(enc_fwd), "ms"),
        "encoder.self_ms": (ms(enc_fwd - causal - noncausal), "ms"),
        "encoder.causal_layers_ms": (ms(causal), "ms"),
        "encoder.noncausal_layers_ms": (ms(noncausal), "ms"),
        "encoder.attention_ms": (ms(spans.seconds("encoder.AttentionBlock.__call__")), "ms"),
        "encoder.conv_ms": (ms(spans.seconds("encoder.ConvBlock.__call__")), "ms"),
        "encoder.ffn_ms": (ms(spans.seconds("encoder.FFNBlock.__call__")), "ms"),
        "encoder.moe_block_ms": (ms(spans.seconds("encoder.MoEBlock.__call__")), "ms"),
        "encoder.mask_ms": (ms(spans.seconds("encoder.attention_window_mask")), "ms"),
        "encoder.prefix_mismatch_frames": (traced.prefix_mismatch_frames, "frames"),
    })

    # step time not covered by the spans under ``train`` (its own loop body)
    traced_step_s = 0.0
    if isinstance(workload, TrainDesk):
        traced_step_s = sum(it.seconds for it in traced.kept)
    out.update({
        "training.forward_ms": (
            ms(spans.seconds("training.TrainedModel.logits", parent="training.train")), "ms"),
        "training.loss_ms": (ms(spans.seconds("training.cross_entropy")
                                + spans.seconds("moe.aux_load_balance_loss")), "ms"),
        "training.backward_ms": (ms(spans.seconds("tensor.Tensor.backward")), "ms"),
        "training.clip_ms": (ms(spans.seconds("training.clip_gradients")), "ms"),
        "training.adam_ms": (ms(spans.seconds("training.Adam.step")), "ms"),
        "training.self_ms": (ms(traced_step_s - spans.children_seconds("training.train")), "ms"),
        "training.loss_final": (
            traced.loss_at_check_step if math.isfinite(traced.loss_at_check_step) else 0.0,
            "nats"),
        "synth.generate_batch_ms": (ms(spans.seconds("synth.generate_batch")), "ms"),
    })

    eval_fwd = spans.seconds("training.TrainedModel.logits", parent="evaluation.evaluate")
    out.update({
        "evaluation.forward_ms": (ms(eval_fwd), "ms"),
        "evaluation.analytics_ms": (ms(
            spans.seconds("evaluation.evaluate") - eval_fwd
            - spans.seconds("synth.generate_batch", parent="evaluation.evaluate")), "ms"),
        "evaluation.accuracy": (statistics.fmean(traced.accuracy) if traced.accuracy else 0.0,
                                "ratio"),
    })

    setup_spans = SpanTable(tracer, [-1])
    out.update({
        "checkpoint.save_ms": (1000.0 * setup_spans.seconds("checkpoint.save_checkpoint"), "ms"),
        "checkpoint.load_ms": (1000.0 * setup_spans.seconds("checkpoint.load_into"), "ms"),
        "checkpoint.bytes": (getattr(workload, "checkpoint_bytes", 0), "bytes"),
    })

    traced_macs = spans.work_by_iteration([op for kind in MAC_KINDS for op in ops_of[kind]])
    macs_match = all(it.macs_tally == it.macs_expected for it in untraced.iterations) and all(
        traced_macs.get(i, 0) == it.macs_expected for i, it in enumerate(traced.iterations))
    macs = statistics.fmean(it.macs_expected for it in traced.kept)
    untraced_iter_s = statistics.median(it.seconds for it in untraced.kept)
    params = count_params(workload.encoder_cfg)
    out.update({
        "accounting.macs": (macs, "MAC"),
        "accounting.macs_match": (int(macs_match), "bool"),
        "accounting.achieved_gmacs_per_s": (macs / untraced_iter_s / 1e9, "GMAC/s"),
        "accounting.inference_param_ratio": (
            params.inference_params / params.total_params, "ratio"),
        "trace.overhead_ratio": (
            statistics.median(it.seconds for it in traced.kept) / untraced_iter_s, "ratio"),
    })
    return out


def measure(workload, seconds: float, trace: bool, spans_path=None):
    """Run one workload and check it; returns the result the last line prints."""
    setups_ok = []
    if not trace:
        setup_s = time_setups(workload, setups_ok)
        iteration_reference = reference.for_iterations()
        phase = workload.run(seconds, reference=iteration_reference)
        metrics = end_to_end(setup_s, phase, iteration_reference)
        failed = phase.failed
        attempted = len(phase.iterations)
    else:
        setups_ok.append(workload.setup())
        iteration_reference = reference.for_iterations()
        untraced = workload.run(seconds / 2, reference=iteration_reference)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer, TRACED_MODULES)
        try:
            setups_ok.append(workload.setup())
            traced = workload.run(seconds / 2, tracer)
        finally:
            undo()
        failed = untraced.failed + traced.failed
        attempted = len(untraced.iterations) + len(traced.iterations)
        metrics = per_layer(workload, untraced, traced, tracer)
        if spans_path is not None:
            tracer.save(spans_path)
    failed += setups_ok.count(False)
    attempted += len(setups_ok)
    if trace:
        metrics["reference.scale"] = (iteration_reference.scale(), "ratio")
        metrics["failed_ratio"] = (failed / attempted, "ratio")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
