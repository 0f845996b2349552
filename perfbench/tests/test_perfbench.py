"""Self-tests of the benchmark on tiny shapes; they run in seconds.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from moeformer import moe  # noqa: E402

QUICK = ROOT / "configs" / "desk" / "quick.cfg"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int = 3):
    """The named workload on the quick config's geometry and short inputs."""
    if name == "train_desk":
        return workloads.TrainDesk(seed, config_path=QUICK, check_step=3)
    if name == "eval_experts16":
        return workloads.EvalExperts16(seed, config_path=QUICK, num_experts=6, batch_size=4)
    return workloads.StreamLong(seed, config_path=QUICK, tokens=40, chunk_frames=40)


NAMES = [w["name"] for w in SPEC["workloads"]]


def test_benchmark_json_lists_every_workload():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_untraced_reports_every_end_to_end_metric(name):
    result = report.measure(tiny(name), seconds=0.2, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 3
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced_reports_every_layer_metric(name, tmp_path):
    spans = tmp_path / "spans.npz"
    result = report.measure(tiny(name), seconds=0.4, trace=True, spans_path=spans)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["accounting.macs_match"] == 1
    assert metrics["moe.expert_evals_per_frame"] == 2.0
    assert metrics["failed_ratio"] == 0.0
    assert metrics["tensor.matmul.fwd_ms"] > 0 and metrics["encoder.forward_ms"] > 0
    assert spans.stat().st_size > 0
    names = list(np.load(spans)["names"])
    assert "tensor.matmul" in names and "encoder.EncoderModel.forward" in names


def test_tracing_is_removed_after_a_traced_run():
    original = moe.MoELayer.forward
    report.measure(tiny("eval_experts16"), seconds=0.2, trace=True)
    assert moe.MoELayer.forward is original


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_inputs(name):
    first, again, other = tiny(name, 5), tiny(name, 5), tiny(name, 6)
    for w in (first, again, other):
        w.setup()
    a, b, c = first.inputs(3), again.inputs(3), other.inputs(3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_training_loss_repeats_for_a_seed():
    losses = []
    for _ in range(2):
        w = tiny("train_desk")
        w.setup()
        losses.append(w.run(0.0).loss_at_check_step)
    assert np.isfinite(losses[0]) and losses[0] == losses[1]


def test_failed_check_raises_failed_ratio(monkeypatch):
    forward = moe.MoELayer.forward

    def miscounting_forward(self, x):
        out = forward(self, x)
        self.evaluations += 1  # one expert evaluation too many
        return out

    monkeypatch.setattr(moe.MoELayer, "forward", miscounting_forward)
    result = report.measure(tiny("eval_experts16"), seconds=0.2, trace=True)
    assert not result["correct"]
    assert result["metrics"]["failed_ratio"]["value"] > 0


def test_stream_tolerance_failure_counts(monkeypatch):
    monkeypatch.setattr(workloads, "STREAM_TOLERANCE", -1.0)
    result = report.measure(tiny("stream_long"), seconds=0.0, trace=False)
    assert result["failed"] > 0 and not result["correct"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_runs_count_the_same_macs(name):
    w = tiny(name)
    w.setup()
    untraced = w.run(0.05)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, report.TRACED_MODULES)
    try:
        w.setup()
        traced = w.run(0.05, tracer)
    finally:
        undo()
    mac_ops = [f"tensor.{op}" for op, kind in tracing.OP_KINDS.items()
               if kind in tracing.MAC_KINDS]
    by_iteration = tracing.SpanTable(tracer, []).work_by_iteration(mac_ops)
    shared = min(len(untraced.iterations), len(traced.iterations))
    assert shared >= 2
    for i in range(shared):
        expected = untraced.iterations[i].macs_expected
        assert expected == traced.iterations[i].macs_expected
        assert untraced.iterations[i].macs_tally == expected
        assert by_iteration[i] == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
