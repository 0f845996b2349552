"""CLI tests over the bundled example configs: every subcommand exits 0 on
the happy path and 1 with a one-line diagnostic on errors."""

import struct
from pathlib import Path

import numpy as np
import pytest

from moeformer import cli
from moeformer.checkpoint import FORMAT_VERSION, MAGIC, save_checkpoint
from moeformer.cli import main

REPO = Path(__file__).resolve().parent.parent
QUICK = REPO / "configs" / "desk" / "quick.cfg"
COMPARE_QUICK = REPO / "configs" / "desk" / "compare_quick.cfg"
REFERENCE = REPO / "configs" / "reference"


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick_run")
    code = main(["train", "--config", str(QUICK), "--out", str(out), "--batches", "2"])
    assert code == 0
    return out


def test_train_writes_artifacts(trained_dir):
    assert (trained_dir / "metrics.txt").exists()
    assert (trained_dir / "checkpoint.bin").exists()
    assert (trained_dir / "routing.txt").exists()
    first = (trained_dir / "metrics.txt").read_text().splitlines()[0]
    assert first.startswith("step=0 ") and "loss=" in first


def test_eval_exits_zero(trained_dir, tmp_path, capsys):
    code = main([
        "eval", "--config", str(QUICK), "--checkpoint",
        str(trained_dir / "checkpoint.bin"), "--batches", "2", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out
    assert (tmp_path / "eval.txt").exists()


def test_route_stats_exits_zero(trained_dir, capsys):
    code = main([
        "route-stats", "--config", str(QUICK), "--checkpoint",
        str(trained_dir / "checkpoint.bin"), "--batches", "1",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all("expert=" in l and "overcap=" in l for l in lines)


def test_count_params_on_every_reference_config(capsys):
    for cfg in sorted(REFERENCE.glob("*.cfg")):
        code = main([
            "count-params", "--config", str(cfg),
            "--baseline-config", str(REFERENCE / "b1.cfg"),
        ])
        assert code == 0, cfg
    out = capsys.readouterr().out
    assert "params.total_with_remainder=" in out


def test_compare_adapter_exits_zero(capsys):
    code = main([
        "compare-adapter", "--config", str(COMPARE_QUICK), "--batches", "2",
        "--batch-size", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "moe.language_id_independent=1" in out
    assert "budget_gap=" in out


def test_missing_config_is_single_line_error(capsys):
    code = main(["train", "--config", "/nonexistent/nowhere.cfg"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_non_utf8_config_is_single_line_error(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(b"encoder.feature_dim=\xff\n")
    code = main(["train", "--config", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "UTF-8" in err


def test_unknown_key_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(QUICK.read_text() + "encoder.bogus_key=1\n")
    code = main(["train", "--config", str(bad)])
    assert code == 1
    assert "bogus_key" in capsys.readouterr().err


def test_eval_with_mismatched_encoder_config_fails(trained_dir, tmp_path, capsys):
    mismatched = tmp_path / "mismatch.cfg"
    text = QUICK.read_text().replace("encoder.ffn_mult=2", "encoder.ffn_mult=4")
    mismatched.write_text(text)
    code = main([
        "eval", "--config", str(mismatched), "--checkpoint",
        str(trained_dir / "checkpoint.bin"), "--batches", "1",
    ])
    assert code == 1
    assert "mismatch" in capsys.readouterr().err


def test_corrupt_checkpoint_fails_cleanly(tmp_path, capsys):
    stub = tmp_path / "corrupt.bin"
    stub.write_bytes(b"MOEF" + b"\x01\x00\x00\x00" + b"\x00" * 3)
    code = main(["eval", "--config", str(QUICK), "--checkpoint", str(stub)])
    assert code == 1
    assert "truncated" in capsys.readouterr().err


def test_seed_zero_is_passed_through(trained_dir, monkeypatch):
    seeds = []

    def spy(real):
        def wrapped(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "evaluate", spy(cli.evaluate))
    monkeypatch.setattr(cli, "routing_stream", spy(cli.routing_stream))
    checkpoint = str(trained_dir / "checkpoint.bin")
    for command in ("eval", "route-stats"):
        for extra in (["--seed", "0"], []):
            code = main([command, "--config", str(QUICK), "--checkpoint", checkpoint,
                         "--batches", "1", "--batch-size", "2"] + extra)
            assert code == 0
    assert seeds == [0, 1234, 0, 1234]


def test_bad_config_echo_is_single_line_error(tmp_path, capsys):
    # without encoder keys in --config, eval rebuilds the encoder from the echo
    task_only = tmp_path / "task.cfg"
    task_only.write_text("".join(
        line for line in QUICK.read_text().splitlines(keepends=True)
        if not line.startswith("encoder.")))
    no_equals = tmp_path / "no_equals.bin"
    save_checkpoint([("head.w", np.zeros((2, 2)))], no_equals,
                    config_text="garbage-without-equals")
    not_utf8 = tmp_path / "not_utf8.bin"
    not_utf8.write_bytes(MAGIC + struct.pack("<IQI", FORMAT_VERSION, 0, 2) + b"\xff\xfe"
                         + struct.pack("<I", 0))
    for checkpoint, detail in ((no_equals, "expected key=value"), (not_utf8, "UTF-8")):
        code = main(["eval", "--config", str(task_only), "--checkpoint", str(checkpoint)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert detail in err
