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


def test_ignored_options_are_rejected(capsys):
    # train reads its batch size from train.batch_size; count-params draws nothing
    for argv in (["train", "--config", str(QUICK), "--batch-size", "4"],
                 ["count-params", "--config", str(REFERENCE / "b1.cfg"), "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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


@pytest.mark.parametrize("heads", [0, -4])
def test_bad_heads_is_single_line_error(tmp_path, capsys, heads):
    bad = tmp_path / "heads.cfg"
    bad.write_text(QUICK.read_text().replace("encoder.causal_heads=2",
                                             f"encoder.causal_heads={heads}"))
    code = main(["count-params", "--config", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "heads" in err


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


def _single_line_error(capsys, *details):
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err
    assert all(detail in err for detail in details), err


@pytest.mark.parametrize("argv, flag", [
    (["train", "--seed", "-1"], "--seed"),
    (["eval", "--seed", "-1"], "--seed"),
    (["route-stats", "--seed", "-1"], "--seed"),
    (["eval", "--batch-size", "0"], "--batch-size"),
    (["route-stats", "--batch-size", "0"], "--batch-size"),
    (["eval", "--batches", "0"], "--batches"),
    (["eval", "--batches", "-2"], "--batches"),
])
def test_bad_option_is_single_line_error(trained_dir, capsys, argv, flag):
    command, *options = argv
    extra = [] if command == "train" else ["--checkpoint", str(trained_dir / "checkpoint.bin")]
    code = main([command, "--config", str(QUICK)] + extra + options)
    assert code == 1
    _single_line_error(capsys, flag)


@pytest.mark.parametrize("key, value", [("train.seed", -1), ("task.seed", -3)])
def test_negative_config_seed_is_single_line_error(tmp_path, capsys, key, value):
    bad = tmp_path / "seed.cfg"
    bad.write_text(QUICK.read_text().replace(f"{key}=0", f"{key}={value}"))
    code = main(["train", "--config", str(bad)])
    assert code == 1
    _single_line_error(capsys, "seed")


@pytest.mark.parametrize("key, value", [
    ("train.clip_norm", "-1"), ("train.warmup", "-5"), ("train.beta1", "1.5"),
    ("train.beta2", "1"), ("train.capacity_factor", "0"), ("train.lr", "0"),
    ("train.eps", "0"),
])
def test_out_of_range_training_value_is_refused_before_training(tmp_path, capsys,
                                                                monkeypatch, key, value):
    calls = []
    monkeypatch.setattr(cli, "train", lambda *args: calls.append(args))
    bad = tmp_path / "train.cfg"
    bad.write_text(QUICK.read_text() + f"{key}={value}\n")
    code = main(["train", "--config", str(bad)])
    assert code == 1 and calls == []
    _single_line_error(capsys, key.split(".")[1])


def test_encoder_without_causal_stack_trains_and_evaluates_from_its_echo(tmp_path, capsys):
    # an empty causal stack once dropped causal_dims from the checkpoint's echo
    keep = [line for line in QUICK.read_text().splitlines()
            if not line.startswith("encoder.causal_")]
    config = tmp_path / "no_causal.cfg"
    config.write_text("\n".join(keep).replace("train.steps=120", "train.steps=2")
                      + "\nencoder.causal_dims=\n")
    task_only = tmp_path / "task.cfg"
    task_only.write_text("\n".join(l for l in keep if not l.startswith("encoder.")) + "\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out), "--batches", "1"]) == 0
    code = main(["eval", "--config", str(task_only), "--checkpoint",
                 str(out / "checkpoint.bin"), "--batches", "1", "--batch-size", "2"])
    assert code == 0, capsys.readouterr().err
    assert "accuracy=" in capsys.readouterr().out


def _config(path, values=None, drop=()):
    """Write QUICK to ``path`` without the lines that start with a prefix in
    ``drop``, with each key of ``values`` set: its line replaced, or appended."""
    values = values or {}
    lines = [line for line in QUICK.read_text().splitlines()
             if not line.startswith(tuple(drop) + tuple(f"{k}=" for k in values))]
    path.write_text("\n".join(lines + [f"{k}={v}" for k, v in values.items()]) + "\n")
    return path


@pytest.mark.parametrize("command", ["eval", "route-stats"])
def test_encoder_config_differing_from_the_echo_fails(trained_dir, tmp_path, capsys, command):
    # the tensor shapes match, but the attention windows are not the trained ones
    windows = _config(tmp_path / "windows.cfg", {"encoder.noncausal_left_context": 0,
                                                   "encoder.right_contexts": "0,0"})
    code = main([command, "--config", str(windows), "--checkpoint",
                 str(trained_dir / "checkpoint.bin"), "--batches", "1"])
    assert code == 1
    _single_line_error(capsys, "mismatch", "encoder.noncausal_left_context=0")


def test_encoder_config_matching_the_echo_in_another_spelling_evaluates(trained_dir, tmp_path,
                                                                      capsys):
    # right_context_total=4 over two non-causal layers is right_contexts=2,2
    total = _config(tmp_path / "total.cfg", {"encoder.right_context_total": 4},
                    drop=("encoder.right_contexts=",))
    task_only = _config(tmp_path / "task.cfg", drop=("encoder.",))
    outputs = []
    for config in (QUICK, total, task_only):
        code = main(["eval", "--config", str(config), "--checkpoint",
                     str(trained_dir / "checkpoint.bin"), "--batches", "1"])
        assert code == 0, capsys.readouterr().err
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("command", ["eval", "route-stats"])
@pytest.mark.parametrize("key, value, detail", [
    ("task.frames_per_token", 2, "frames_per_token"),
    ("task.languages", 3, "labels"),      # a head of 7 labels, a task of 10
    ("task.feature_dim", 6, "feature_dim"),
])
def test_task_that_does_not_fit_the_checkpoint_fails(trained_dir, tmp_path, capsys,
                                                     command, key, value, detail):
    task_only = _config(tmp_path / "task.cfg", {key: value}, drop=("encoder.",))
    code = main([command, "--config", str(task_only), "--checkpoint",
                 str(trained_dir / "checkpoint.bin"), "--batches", "1"])
    assert code == 1
    _single_line_error(capsys, detail)


@pytest.mark.parametrize("key, value, detail", [
    ("encoder.expert_mult", -1, "expert_mult"),
    ("encoder.expert_mult", 0, "expert_mult"),
    ("encoder.adapter_dim", -3, "adapter_dim"),
    ("task.tokens_per_language", 0, "tokens_per_language"),
])
def test_empty_or_negative_width_is_single_line_error(tmp_path, capsys, monkeypatch,
                                                      key, value, detail):
    calls = []
    monkeypatch.setattr(cli, "train", lambda *args: calls.append(args))
    values = {key: value}
    if key == "task.tokens_per_language":
        values["task.shared_tokens"] = 0
    bad = _config(tmp_path / "bad.cfg", values)
    commands = ["train"] + (["count-params"] if key.startswith("encoder") else [])
    for command in commands:
        code = main([command, "--config", str(bad)])
        assert code == 1 and calls == []
        _single_line_error(capsys, detail)
