"""Command-line interface.

Subcommands: ``train``, ``eval``, ``count-params``, ``route-stats``,
``compare-adapter``. Each reads a flat key=value config file; every command
exits 0 on success and 1 with a one-line diagnostic on error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .accounting import count_params, fitted_remainder, report_kv, report_lines
from .checkpoint import copy_into, load_checkpoint, save_checkpoint
from .config import encoder_from_flat, encoder_to_flat, parse_kv_file, parse_kv_text
from .errors import CheckpointError, ConfigError, ParameterError, TrainingDiverged
from .evaluation import compare_adapter_vs_moe, evaluate, routing_stream
from .synth import task_from_flat
from .training import (
    build_model,
    check_task_fit,
    checkpoint_config_text,
    metrics_line,
    train,
    train_from_flat,
    write_metrics,
)


# the key prefixes of compare-adapter's two encoders
PAIR_PREFIXES = ("adapter_encoder.", "moe_encoder.")


def _out_dir(args) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(lines, out: Path | None, filename: str) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out is not None:
        (out / filename).write_text(text, encoding="utf-8")


def cmd_train(args) -> int:
    raw = parse_kv_file(args.config)
    encoder_cfg = encoder_from_flat(raw)
    task = task_from_flat(raw)
    train_cfg = train_from_flat(raw)
    if args.seed is not None:
        train_cfg.seed = args.seed
    if args.out is not None and train_cfg.dtype != "float32":
        raise ConfigError(f"train.dtype={train_cfg.dtype} cannot be saved with --out: "
                          "checkpoints hold float32")
    out = _out_dir(args)

    model, metrics = train(encoder_cfg, task, train_cfg)
    last = metrics[-1]
    print(f"trained {train_cfg.steps} steps: " + metrics_line(last))
    if out is not None:
        write_metrics(metrics, out / "metrics.txt")
        save_checkpoint(
            model.parameters(), out / "checkpoint.bin",
            config_text=checkpoint_config_text(encoder_cfg), step=train_cfg.steps,
        )
        stream = routing_stream(model, task, num_batches=args.batches,
                                batch_size=train_cfg.batch_size)
        (out / "routing.txt").write_text("\n".join(stream) + "\n", encoding="utf-8")
        print(f"wrote {out / 'metrics.txt'}, {out / 'checkpoint.bin'}, {out / 'routing.txt'}")
    return 0


def _restore_model(args):
    """The ``--config`` task and the checkpoint's model for it. The encoder is
    the config echo, which encoder keys in ``--config`` must match; only a
    checkpoint without an echo (written through the Python API) takes them
    instead."""
    raw = parse_kv_file(args.config)
    task = task_from_flat(raw)
    tensors, config_text, step = load_checkpoint(args.checkpoint)
    echo = parse_kv_text(config_text, source=f"{args.checkpoint} config echo")
    try:
        encoder_cfg = encoder_from_flat(echo or raw)
    except ConfigError as exc:
        if not echo:
            raise
        raise ConfigError(f"{args.checkpoint} config echo: {exc}") from exc
    if echo and any(k.startswith("encoder.") for k in raw):
        # both sides in the echo's canonical spelling, key for key
        given = encoder_to_flat(encoder_from_flat(raw)).splitlines()
        for ours, theirs in zip(given, encoder_to_flat(encoder_cfg).splitlines()):
            if ours != theirs:
                raise ConfigError(f"encoder mismatch: {args.config} has {ours}, "
                                  f"the checkpoint's echo {theirs}")
    head = tensors.get("head.w")
    if head is None or head.ndim != 2:
        raise CheckpointError(f"{args.checkpoint}: no classification head found")
    num_labels = head.shape[1]
    check_task_fit(encoder_cfg, task)
    if num_labels != task.num_labels:
        raise ConfigError(f"{args.checkpoint}: the classification head has {num_labels} "
                          f"labels, the task {task.num_labels}")
    model = build_model(encoder_cfg, num_labels, seed=0)
    copy_into(model.parameters(), tensors, args.checkpoint)
    return model, task, step


def cmd_eval(args) -> int:
    model, task, step = _restore_model(args)
    result = evaluate(model, task, num_batches=args.batches, batch_size=args.batch_size,
                      seed=1234 if args.seed is None else args.seed)
    lines = [f"checkpoint_step={step}", f"accuracy={result.accuracy:.4f}"]
    lines.extend(result.routing.lines())
    _emit(lines, _out_dir(args), "eval.txt")
    return 0


def cmd_count_params(args) -> int:
    raw = parse_kv_file(args.config)
    remainder = 0
    if args.baseline_config is not None:
        remainder = fitted_remainder(encoder_from_flat(parse_kv_file(args.baseline_config)))
    if any(key.startswith("encoder.") for key in raw):
        report = count_params(encoder_from_flat(raw))
        lines = report_lines(report, remainder) + report_kv(report, remainder)
    else:  # a compare-adapter file: each of its two encoders, labelled with its prefix
        lines = []
        for prefix in PAIR_PREFIXES:
            report = count_params(encoder_from_flat(raw, prefix=prefix))
            lines += [f"[{prefix.rstrip('.')}]", *report_lines(report, remainder),
                      *(prefix + line for line in report_kv(report, remainder))]
    _emit(lines, _out_dir(args), "params.txt")
    return 0


def cmd_route_stats(args) -> int:
    model, task, _ = _restore_model(args)
    lines = routing_stream(model, task, num_batches=args.batches, batch_size=args.batch_size,
                           seed=1234 if args.seed is None else args.seed)
    _emit(lines, _out_dir(args), "route_stats.txt")
    return 0


def cmd_compare_adapter(args) -> int:
    raw = parse_kv_file(args.config)
    task = task_from_flat(raw)
    train_cfg = train_from_flat(raw)
    if args.seed is not None:
        train_cfg.seed = args.seed
    adapter_cfg, moe_cfg = (encoder_from_flat(raw, prefix=p) for p in PAIR_PREFIXES)
    report = compare_adapter_vs_moe(
        task, adapter_cfg, moe_cfg, train_cfg,
        eval_batches=args.batches, eval_batch_size=args.batch_size,
    )
    _emit(report.lines(), _out_dir(args), "compare.txt")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are ``ConfigError``s, so that a bad
    command line gets ``main``'s one-line diagnostic and exit 1 instead of
    argparse's usage block and exit 2; ``--help`` still exits 0."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="moeformer",
        description="Expert-routed Conformer encoders: train, evaluate, and count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, batch_size=True):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="directory for output files")
        p.add_argument("--batches", type=int, default=8)
        if batch_size:  # train takes its batch size from train.batch_size
            p.add_argument("--batch-size", type=int, default=16, dest="batch_size")
        if checkpoint:
            p.add_argument("--checkpoint", required=True)

    common(sub.add_parser("train", help="train a model on the synthetic task"),
           batch_size=False)
    common(sub.add_parser("eval", help="evaluate a checkpoint"), checkpoint=True)
    p_count = sub.add_parser("count-params", help="parameter and FLOP accounting")
    p_count.add_argument("--config", required=True)
    p_count.add_argument("--out", default=None)
    p_count.add_argument("--baseline-config", default=None,
                         help="dense baseline for remainder calibration")
    common(sub.add_parser("route-stats", help="per-expert routing record stream"),
           checkpoint=True)
    common(sub.add_parser("compare-adapter",
                          help="oracle-adapter vs expert-routing parity run"))
    return parser


def _check_options(args) -> None:
    """Reject out-of-range numeric options before any work starts."""
    for flag, least in (("seed", 0), ("batches", 1), ("batch_size", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise ConfigError(f"--{flag.replace('_', '-')} must be >= {least}, got {value}")


HANDLERS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "count-params": cmd_count_params,
    "route-stats": cmd_route_stats,
    "compare-adapter": cmd_compare_adapter,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_options(args)
        # an overflow or NaN, which numpy only warns about, ends the command:
        # finite weights (trained with too large a step, or read from a
        # checkpoint) can still be too large to compute with
        with np.errstate(over="raise", invalid="raise"):
            return HANDLERS[args.command](args)
    except FloatingPointError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ParameterError, CheckpointError, TrainingDiverged,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
