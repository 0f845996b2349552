"""CLI tests over the bundled example configs: every subcommand exits 0 on
the happy path and 1 with a one-line diagnostic on errors."""

import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from moeformer import checkpoint, cli
from moeformer.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from moeformer.cli import main
from moeformer.config import encoder_from_flat, parse_kv_file
from moeformer.synth import task_from_flat
from moeformer.training import build_model, checkpoint_config_text

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


def test_eval_reads_the_checkpoint_once(trained_dir, monkeypatch, capsys):
    calls = []

    def counted(path):
        calls.append(path)
        return load_checkpoint(path)

    monkeypatch.setattr(checkpoint, "load_checkpoint", counted)
    monkeypatch.setattr(cli, "load_checkpoint", counted)
    code = main(["eval", "--config", str(QUICK), "--checkpoint",
                 str(trained_dir / "checkpoint.bin"), "--batches", "1"])
    assert code == 0
    assert len(calls) == 1


def test_route_stats_exits_zero(trained_dir, capsys):
    code = main([
        "route-stats", "--config", str(QUICK), "--checkpoint",
        str(trained_dir / "checkpoint.bin"), "--batches", "1",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all("expert=" in l and "overcap=" in l for l in lines)


def test_count_params_on_every_reference_config(capsys):
    # all 16 shipped files; a compare-adapter pair file reports both of its
    # encoders, each under its own prefix
    shipped = sorted(REFERENCE.glob("*.cfg")) + sorted(QUICK.parent.glob("*.cfg"))
    assert len(shipped) == 16
    for cfg in shipped:
        code = main([
            "count-params", "--config", str(cfg),
            "--baseline-config", str(REFERENCE / "b1.cfg"),
        ])
        assert code == 0, cfg
        out = capsys.readouterr().out
        pair = cfg.stem.startswith("compare")
        for prefix in ("adapter_encoder.", "moe_encoder.") if pair else ("",):
            assert f"\n{prefix}params.total_with_remainder=" in out, cfg
        assert out.count("params.total=") == 1 + pair, cfg


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
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, detail", [
    ([], "command"),
    (["train"], "--config"),
    (["train", "--config", str(QUICK), "--seed", "abc"], "--seed"),
    (["fit", "--config", str(QUICK)], "'fit'"),
    (["train", "--config", str(QUICK), "--bogus"], "--bogus"),
], ids=["no command", "missing --config", "seed abc", "unknown command", "unknown option"])
def test_argument_errors_are_single_line(capsys, argv, detail):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1 and detail in err, err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


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
    bad.write_text(QUICK.read_text().replace("encoder.heads=2", f"encoder.heads={heads}"))
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


@pytest.fixture(scope="module")
def untrained(tmp_path_factory):
    """An untrained quick.cfg checkpoint and the byte ranges of its fields."""
    raw = parse_kv_file(QUICK)
    cfg = encoder_from_flat(raw)
    model = build_model(cfg, task_from_flat(raw).num_labels, seed=0)
    path = tmp_path_factory.mktemp("untrained") / "checkpoint.bin"
    echo = checkpoint_config_text(cfg)
    save_checkpoint(model.parameters(), path, config_text=echo)
    # magic, version, step, echo length, echo, tensor count
    pos = 4 + 4 + 8 + 4 + len(echo.encode()) + 4
    fields = {"header": [(0, pos)], "name": [], "rank and dims": [], "data": []}
    for name, p in model.parameters():
        for field, size in (("name", 2 + len(name.encode())), ("rank and dims", 1 + 4 * p.ndim),
                            ("data", 4 * p.size)):
            fields[field].append((pos, pos + size))
            pos += size
    assert pos == path.stat().st_size
    return path, fields


def _corrupt(blob, fields, kind, rng):
    if kind == "truncation":
        return blob[: int(rng.integers(len(blob)))]
    if kind == "appended":
        return blob + rng.bytes(int(rng.integers(1, 64)))
    out = bytearray(blob)
    ranges = fields[kind]
    for _ in range(int(rng.integers(1, 4))):
        lo, hi = ranges[int(rng.integers(len(ranges)))]
        out[int(rng.integers(lo, hi))] ^= int(rng.integers(1, 256))
    return bytes(out)


@pytest.mark.parametrize("command", ["eval", "route-stats"])
@pytest.mark.parametrize("edit", [
    lambda t: t.update({"head\x1db": t.pop("head.b")}),  # a name splitlines() would break
    lambda t: t.update({"head.w": t["head.w"].reshape(-1)}),
    lambda t: t.update({"frontend.conv0.w": t["frontend.conv0.w"] * 1e30}),
], ids=["control character in a name", "head of rank 1", "finite weights that overflow"])
def test_unusable_tensors_are_single_line_error(untrained, tmp_path, capsys, edit, command):
    tensors, echo, _ = load_checkpoint(untrained[0])
    edit(tensors)
    bad = tmp_path / "bad.bin"
    save_checkpoint(tensors.items(), bad, config_text=echo)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", str(QUICK), "--checkpoint", str(bad), "--batches", "1"])
    assert code == 1
    _single_line_error(capsys)


# kind: (seed, cases); byte flips XOR one to three bytes of the kind's fields
CORRUPTIONS = {"header": (1, 40), "name": (2, 40), "rank and dims": (3, 60),
               "data": (4, 40), "truncation": (5, 20), "appended": (6, 10)}


def _exits_cleanly(argv, capsys, label):
    """Run ``main(argv)``: it must exit 0 with nothing on stderr, or 1 with
    exactly one stderr line and no traceback."""
    try:
        # a numpy warning would reach the stderr of a command-line run
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
    err = capsys.readouterr().err
    assert (code == 0 and err == "") or (
        code == 1 and len(err.splitlines()) == 1 and "Traceback" not in err
    ), f"{label}: exit {code}, stderr {err!r}"


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_corrupt_checkpoint_evaluates_or_gives_one_line(untrained, tmp_path, capsys, kind):
    path, fields = untrained
    blob = path.read_bytes()
    seed, cases = CORRUPTIONS[kind]
    rng = np.random.default_rng(seed)
    bad = tmp_path / "bad.bin"
    for case in range(cases):
        bad.write_bytes(_corrupt(blob, fields, kind, rng))
        _exits_cleanly(["eval", "--config", str(QUICK), "--checkpoint", str(bad),
                        "--batches", "1", "--batch-size", "2"], capsys, f"{kind} case {case}")


# values a key is set to; none is a large count, so no case can run long
BAD_VALUES = ["0", "-1", "", "x", "nan", "inf", "-inf", "1.5", "1,2", "1,,2", "x" * 300,
              "1e-3", "1e9", "-1e9", "0x10", "true", "-0", " 2 ", "\x1d", "\u00e9"]


def _one_step_lines():
    """quick.cfg's key=value lines, with one training step."""
    return [line.replace("train.steps=120", "train.steps=1")
            for line in QUICK.read_text().splitlines() if "=" in line]


def _train_and_count(config, tmp_path, capsys, label):
    for argv in (["count-params", "--config", str(config)],
                 ["train", "--config", str(config), "--out", str(tmp_path / "out"),
                  "--batches", "1"]):
        _exits_cleanly(argv, capsys, f"{label} {argv[0]}")


def test_every_key_set_to_a_bad_value_trains_or_gives_one_line(tmp_path, capsys):
    lines = _one_step_lines()
    bad = tmp_path / "bad.cfg"
    for i, line in enumerate(lines):
        key = line.split("=", 1)[0]
        for value in BAD_VALUES:
            bad.write_text("\n".join(lines[:i] + [f"{key}={value}"] + lines[i + 1:]) + "\n")
            _train_and_count(bad, tmp_path, capsys, f"{key}={value!r}")


def _mutate_config(lines, kind, rng):
    """Config text: ``lines`` with one corruption of ``kind``, as bytes."""
    lines = list(lines)
    i = int(rng.integers(len(lines)))
    key, value = lines[i].split("=", 1)
    if kind == "dropped =":
        lines[i] = key + value
    elif kind == "duplicated key":
        twin = value if rng.integers(2) else BAD_VALUES[int(rng.integers(len(BAD_VALUES)))]
        lines.insert(int(rng.integers(len(lines) + 1)), f"{key}={twin}")
    elif kind == "unknown key":
        section = key.split(".")[0]
        name = ["bogus", key.split(".")[1] + "s", "Steps", ""][int(rng.integers(4))]
        lines.insert(int(rng.integers(len(lines) + 1)), f"{section}.{name}=1")
    elif kind == "non-UTF-8":
        blob = bytearray("\n".join(lines).encode())
        blob.insert(int(rng.integers(len(blob) + 1)), int(rng.integers(0x80, 0x100)))
        return bytes(blob)
    elif kind == "empty":
        return b""
    return ("\n".join(lines) + "\n").encode()


# kind: (seed, cases)
CONFIG_CORRUPTIONS = {"dropped =": (12, 8), "duplicated key": (13, 24), "unknown key": (14, 8),
                      "non-UTF-8": (15, 8), "empty": (16, 1)}


@pytest.mark.parametrize("kind", CONFIG_CORRUPTIONS)
def test_corrupt_config_trains_or_gives_one_line(tmp_path, capsys, kind):
    lines = _one_step_lines()
    seed, cases = CONFIG_CORRUPTIONS[kind]
    rng = np.random.default_rng(seed)
    bad = tmp_path / "bad.cfg"
    for case in range(cases):
        bad.write_bytes(_mutate_config(lines, kind, rng))
        _train_and_count(bad, tmp_path, capsys, f"{kind} case {case}")


def _mutate_arguments(argv, kind, rng):
    """``argv`` (a command, then flag-value pairs) with one corruption of ``kind``."""
    command, pairs = argv[0], [argv[i:i + 2] for i in range(1, len(argv), 2)]
    j = int(rng.integers(len(pairs)))
    if kind == "dropped flag":
        del pairs[j]
    elif kind == "duplicated flag":
        pairs.insert(int(rng.integers(len(pairs) + 1)), list(pairs[j]))
    elif kind == "bad value":
        values = ["abc", "-1", "0", "", "1.5", "nan", "-", "--", "/nonexistent/x"]
        pairs[j] = [pairs[j][0], values[int(rng.integers(len(values)))]]
    elif kind == "unknown flag":
        pairs.insert(int(rng.integers(len(pairs) + 1)),
                     [["--bogus", "--batch_size", "-x", "--seeds"][int(rng.integers(4))], "1"])
    elif kind == "unknown command":
        command = ["fit", "evaluate", "", "TRAIN", "count_params"][int(rng.integers(5))]
    return [command] + [arg for pair in pairs for arg in pair]


# kind: (seed, cases)
ARGUMENT_CORRUPTIONS = {"dropped flag": (21, 10), "duplicated flag": (22, 10),
                        "bad value": (23, 16), "unknown flag": (24, 8),
                        "unknown command": (25, 6)}


@pytest.mark.parametrize("kind", ARGUMENT_CORRUPTIONS)
def test_corrupt_arguments_run_or_give_one_line(untrained, tmp_path, capsys, monkeypatch,
                                                kind):
    monkeypatch.chdir(tmp_path)  # a mangled --out or --config names a path in here
    config = tmp_path / "one_step.cfg"
    config.write_text(QUICK.read_text().replace("train.steps=120", "train.steps=1"))
    restored = ["--config", str(QUICK), "--checkpoint", str(untrained[0]), "--batches", "1",
                "--batch-size", "2"]
    commands = [["train", "--config", str(config), "--out", "out", "--batches", "1"],
                ["count-params", "--config", str(QUICK), "--out", "out"],
                ["eval", *restored], ["route-stats", *restored]]
    seed, cases = ARGUMENT_CORRUPTIONS[kind]
    rng = np.random.default_rng(seed)
    for case in range(cases):
        argv = _mutate_arguments(commands[int(rng.integers(len(commands)))], kind, rng)
        _exits_cleanly(argv, capsys, f"{kind} case {case} {argv}")


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


# the quick encoder's echo as written while each stack had its own heads,
# kernel and left-context keys and the input block its own kernel key
PER_STACK_ECHO = """\
encoder.feature_dim=8
encoder.frame_stack=2
encoder.frame_downsample=2
encoder.input_dim=8
encoder.input_convs=2
encoder.input_kernel=3
encoder.ffn_mult=2
encoder.causal_dims=16
encoder.causal_heads=2
encoder.causal_kernel=7
encoder.causal_left_context=16
encoder.noncausal_dims=24,24
encoder.noncausal_heads=2
encoder.noncausal_kernel=7
encoder.noncausal_left_context=16
encoder.right_contexts=2,2
encoder.moe_placement=end
encoder.moe_selector=all
encoder.num_experts=2
encoder.expert_mult=4
encoder.adapter_dim=0
encoder.adapter_groups=0
"""


@pytest.mark.parametrize("command", ["eval", "route-stats"])
def test_echo_holding_a_removed_key_names_the_checkpoint(trained_dir, tmp_path, capsys,
                                                         command):
    # echoes of checkpoints written while these encoder keys still existed
    tensors, config_text, step = load_checkpoint(trained_dir / "checkpoint.bin")
    old = tmp_path / "old.bin"
    for echo, removed in [
        (config_text + "encoder.stack_after=0\nencoder.moe_residual_scale=1.0\n",
         ("encoder.stack_after", "encoder.moe_residual_scale")),
        (PER_STACK_ECHO,
         ("encoder.causal_heads", "encoder.noncausal_kernel", "encoder.input_kernel")),
    ]:
        save_checkpoint(tensors.items(), old, step=step, config_text=echo)
        code = main([command, "--config", str(QUICK), "--checkpoint", str(old),
                     "--batches", "1"])
        assert code == 1
        _single_line_error(capsys, f"{old} config echo:", *removed)


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
    ("train.eps", "0"), ("train.specaug", "1"),
    # non-finite values would make training diverge at step 0 or 1; an
    # infinite clip_norm would disable clipping, which only 0 may do
    ("train.lr", "inf"), ("train.clip_norm", "inf"), ("train.aux_weight", "inf"),
    ("task.noise", "inf"), ("task.noise", "nan"), ("task.language_offset", "inf"),
])
def test_out_of_range_training_value_is_refused_before_training(tmp_path, capsys,
                                                                monkeypatch, key, value):
    calls = []
    monkeypatch.setattr(cli, "train", lambda *args: calls.append(args))
    bad = tmp_path / "train.cfg"
    bad.write_text(QUICK.read_text() + f"{key}={value}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["train", "--config", str(bad)])
    assert code == 1 and calls == []
    _single_line_error(capsys, key.split(".")[1])


def test_float64_training_with_an_output_directory_is_refused_before_training(
        tmp_path, capsys, monkeypatch):
    # its checkpoint would round every weight to float32
    calls = []
    monkeypatch.setattr(cli, "train", lambda *args: calls.append(args))
    config = _config(tmp_path / "f64.cfg", {"train.dtype": "float64"})
    out = tmp_path / "run"
    code = main(["train", "--config", str(config), "--out", str(out)])
    assert code == 1 and calls == [] and not out.exists()
    _single_line_error(capsys, "train.dtype=float64", "--out")


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
    windows = _config(tmp_path / "windows.cfg", {"encoder.left_context": 0,
                                                   "encoder.right_contexts": "0,0"})
    code = main([command, "--config", str(windows), "--checkpoint",
                 str(trained_dir / "checkpoint.bin"), "--batches", "1"])
    assert code == 1
    _single_line_error(capsys, "mismatch", "encoder.left_context=0")


def test_encoder_config_matching_the_echo_in_another_spelling_evaluates(trained_dir, tmp_path,
                                                                      capsys):
    # a space inside the right-context list, and moe_selector left out at its
    # default: the same encoder as the echo's "right_contexts=2,2" and "all"
    spelled = _config(tmp_path / "spelled.cfg", {"encoder.right_contexts": "2, 2"},
                      drop=("encoder.moe_selector=",))
    task_only = _config(tmp_path / "task.cfg", drop=("encoder.",))
    outputs = []
    for config in (QUICK, spelled, task_only):
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
