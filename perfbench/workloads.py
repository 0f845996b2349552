"""The benchmark's three workloads, each driving moeformer's public API.

Every workload is closed-loop with one caller: the next iteration starts
when the previous one returns. Inputs come only from the workload seed.
``setup`` builds what the timed loop needs and checks it; ``run`` loops
until its time is up (finishing the open iteration or utterance) and checks
every iteration's output. Given a ``reference.Reference``, ``run`` times its
kernel after every iteration, outside the iteration's time.

The functions used for checks (``total_macs``, ``count_params``,
``generate_batch``) are bound at import, before any tracing is installed,
so the checks never show up as spans of the program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path

import numpy as np

from moeformer import checkpoint, encoder, evaluation, synth, training
from moeformer.accounting import count_params, total_macs
from moeformer.config import encoder_from_flat, parse_kv_file
from moeformer.errors import TrainingDiverged
from moeformer.synth import frame_targets, generate_batch, task_from_flat
from moeformer.tensor import count_macs

ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIG = ROOT / "configs" / "desk" / "balance.cfg"
OUT_DIR = Path(__file__).resolve().parent / "out"
HOP_S = 0.01  # one raw frame is 10 ms of audio
STREAM_TOLERANCE = 1e-5  # max |chunked - full| on emitted frames


@dataclass
class Iteration:
    """One timed operation: a training step, an eval batch or a stream chunk."""

    seconds: float
    frames: int          # raw input frames the iteration consumed
    ok: bool
    macs_expected: int   # accounting.total_macs (+ head) for its shapes
    macs_tally: int      # tensor.count_macs over the iteration


@dataclass
class Phase:
    """Everything one timed loop measured and checked."""

    iterations: list[Iteration]
    utterance_rtf: list[float] = field(default_factory=list)
    prefix_mismatch_frames: int = 0
    loss_at_check_step: float = float("nan")
    accuracy: list[float] = field(default_factory=list)

    @property
    def kept(self) -> list[Iteration]:
        """Iterations after the first, which pays lazy set-up and cold caches."""
        return self.iterations[1:]

    @property
    def failed(self) -> int:
        return sum(not it.ok for it in self.iterations)


def _load_desk(config_path, seed: int):
    raw = parse_kv_file(config_path)
    task = task_from_flat(raw)
    task.seed = seed
    return raw, encoder_from_flat(raw), task


def _head_macs(enc_cfg, num_labels: int, raw_frames: int, batch: int) -> int:
    frames = frame_targets(np.zeros(raw_frames), enc_cfg.total_downsample).size
    return batch * frames * enc_cfg.output_dim * num_labels


def _draw_gates(layers, rng: np.random.Generator) -> None:
    """Replace the zero-initialized gates so routing spreads over all experts."""
    for layer in layers:
        layer.gate_w.data = rng.standard_normal(layer.gate_w.shape).astype(layer.gate_w.dtype)


class _Stop(Exception):
    """Raised from the training step hook once the run's time is up."""


class TrainDesk:
    """``training.train`` on the desk balance geometry; step times from the hook."""

    name = "train_desk"

    def __init__(self, seed: int, config_path=DESK_CONFIG, check_step: int = 40):
        self.seed = seed
        self.config_path = config_path
        self.check_step = check_step  # loss at this step must repeat per seed

    def setup(self) -> bool:
        """Parse the config and build the model and optimizer ``train`` builds."""
        raw, self.encoder_cfg, self.task = _load_desk(self.config_path, self.seed)
        self.train_cfg = training.train_from_flat(raw)
        self.train_cfg.seed = self.seed
        self.train_cfg.steps = 10**9  # the step hook ends the run
        model = training.build_model(self.encoder_cfg, self.task.num_labels, self.seed,
                                     self.train_cfg.np_dtype)
        training.Adam(model.parameters(), lr=self.train_cfg.lr)
        return model.encoder.num_params() == count_params(self.encoder_cfg).total_params

    def inputs(self, steps: int) -> list[np.ndarray]:
        """The feature batches ``train`` draws, in order (its batch stream)."""
        rng = np.random.default_rng([self.seed, 2])
        return [generate_batch(self.task, rng, self.train_cfg.batch_size)[0]
                for _ in range(steps)]

    def run(self, seconds: float, tracer=None, reference=None) -> Phase:
        stamps: list[float] = []
        resumes: list[float] = []  # when the next step began, after the reference kernel
        losses: list[float] = []
        tallies: list[int] = []
        deadline = time.perf_counter() + seconds
        counter = None

        def hook(step, record):
            stamps.append(time.perf_counter())
            losses.append(record["loss"])
            tallies.append(counter.total)
            if tracer is not None:
                tracer.current = step + 1
            if reference is not None:
                reference.sample()
            resumes.append(time.perf_counter())
            if stamps[-1] >= deadline and step >= self.check_step:
                raise _Stop

        if tracer is not None:
            tracer.current = 0
        start = time.perf_counter()
        diverged = False
        with count_macs() as counter:
            try:
                training.train(self.encoder_cfg, self.task, self.train_cfg, step_hook=hook)
            except _Stop:
                pass
            except TrainingDiverged:
                diverged = True
        if tracer is not None:
            tracer.current = -1

        b = self.train_cfg.batch_size
        iterations = []
        previous_stamp, previous_tally = start, 0
        for feats, stamp, resume, tally, loss in zip(self.inputs(len(stamps)), stamps,
                                                     resumes, tallies, losses):
            raw_frames = feats.shape[1]
            expected = total_macs(self.encoder_cfg, raw_frames, b) + _head_macs(
                self.encoder_cfg, self.task.num_labels, raw_frames, b)
            iterations.append(Iteration(
                seconds=stamp - previous_stamp, frames=b * raw_frames,
                ok=bool(np.isfinite(loss)) and tally - previous_tally == expected,
                macs_expected=expected, macs_tally=tally - previous_tally,
            ))
            previous_stamp, previous_tally = resume, tally
        if diverged:  # the step that raised never reached the hook
            iterations.append(Iteration(0.0, 0, False, 0, 0))
        loss = losses[self.check_step] if len(losses) > self.check_step else float("nan")
        return Phase(iterations, loss_at_check_step=loss)


class EvalExperts16:
    """``evaluation.evaluate`` one batch at a time on a 16-expert desk model
    restored from a checkpoint, as ``moeformer eval`` does."""

    name = "eval_experts16"

    def __init__(self, seed: int, config_path=DESK_CONFIG, num_experts: int = 16,
                 batch_size: int = 24):
        self.seed = seed
        self.config_path = config_path
        self.num_experts = num_experts
        self.batch_size = batch_size
        self.checkpoint_bytes = 0

    def setup(self) -> bool:
        """Build, draw gates, save, restore into a fresh model; check bit-exact."""
        _, self.encoder_cfg, self.task = _load_desk(self.config_path, self.seed)
        self.encoder_cfg.non_causal = [
            replace(layer, num_experts=self.num_experts) if layer.moe_placement != "none"
            else layer
            for layer in self.encoder_cfg.non_causal
        ]
        source = training.build_model(self.encoder_cfg, self.task.num_labels, self.seed)
        _draw_gates(source.encoder.moe_layers(), np.random.default_rng([self.seed, 7]))
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{self.name}.ckpt"
        checkpoint.save_checkpoint(
            source.parameters(), path,
            config_text=training.checkpoint_config_text(self.encoder_cfg))
        self.checkpoint_bytes = path.stat().st_size
        self.model = training.build_model(self.encoder_cfg, self.task.num_labels, seed=0)
        checkpoint.load_into(self.model.parameters(), path)
        path.unlink()
        restored = dict(self.model.parameters())
        bit_exact = len(restored) == len(dict(source.parameters())) and all(
            restored[name].dtype == p.dtype and np.array_equal(restored[name].data, p.data)
            for name, p in source.parameters()
        )
        return bit_exact and (self.model.encoder.num_params()
                              == count_params(self.encoder_cfg).total_params)

    def batch_seeds(self):
        """Seeds ``evaluate`` samples each batch from, one per iteration."""
        rng = np.random.default_rng([self.seed, 5])
        while True:
            yield int(rng.integers(2**31))

    def inputs(self, batches: int) -> list[np.ndarray]:
        gates = [layer.gate_w.data for layer in self.model.encoder.moe_layers()]
        return gates + [np.array(list(islice(self.batch_seeds(), batches)))]

    def run(self, seconds: float, tracer=None, reference=None) -> Phase:
        routed_layers = len(self.model.encoder.moe_layers())
        ds = self.encoder_cfg.total_downsample
        b = self.batch_size
        iterations, accuracy = [], []
        deadline = time.perf_counter() + seconds
        for it, batch_seed in enumerate(self.batch_seeds()):
            if tracer is not None:
                tracer.current = it
            start = time.perf_counter()
            with count_macs() as counter:
                result = evaluation.evaluate(self.model, self.task, num_batches=1,
                                             batch_size=b, seed=batch_seed)
            seconds_taken = time.perf_counter() - start
            out_frames = result.routing.num_frames
            raw_frames = out_frames // b * ds  # frames_per_token == ds, so exact
            expected = total_macs(self.encoder_cfg, raw_frames, b) + _head_macs(
                self.encoder_cfg, self.task.num_labels, raw_frames, b)
            ok = (result.routing.activated_evaluations == 2 * out_frames * routed_layers
                  and counter.total == expected)
            iterations.append(Iteration(seconds_taken, b * raw_frames, ok, expected,
                                        counter.total))
            accuracy.append(result.accuracy)
            if reference is not None:
                reference.sample()
            if start + seconds_taken >= deadline:
                break
        if tracer is not None:
            tracer.current = -1
        return Phase(iterations, accuracy=accuracy)


class StreamLong:
    """Long utterances fed chunk by chunk through ``EncoderModel.forward``.

    Each chunk re-encodes the whole prefix received so far and emits the
    output frames that are final: all but the last ``right_context_total``,
    or all of them once the utterance ends. The last chunk's forward is the
    full-utterance forward every emitted frame is checked against.
    """

    name = "stream_long"

    def __init__(self, seed: int, config_path=DESK_CONFIG, tokens: int = 500,
                 chunk_frames: int = 160):
        self.seed = seed
        self.config_path = config_path
        self.tokens = tokens
        self.chunk_frames = chunk_frames

    def setup(self) -> bool:
        _, self.encoder_cfg, self.task = _load_desk(self.config_path, self.seed)
        self.model = encoder.build_encoder(self.encoder_cfg, self.seed)
        _draw_gates(self.model.moe_layers(), np.random.default_rng([self.seed, 7]))
        return self.model.num_params() == count_params(self.encoder_cfg).total_params

    def utterances(self):
        rng = np.random.default_rng([self.seed, 6])
        while True:
            yield synth.sample_sequence(self.task, rng, num_tokens=self.tokens)[0]

    def inputs(self, count: int) -> list[np.ndarray]:
        gates = [layer.gate_w.data for layer in self.model.moe_layers()]
        return gates + list(islice(self.utterances(), count))

    def _utterance(self, feats: np.ndarray, tracer, reference, first_iteration: int):
        """Stream one utterance; returns its iterations and mismatched frames."""
        total = feats.shape[0]
        ends = list(range(self.chunk_frames, total, self.chunk_frames)) + [total]
        hold = self.encoder_cfg.right_context_total
        outputs, iterations = [], []
        previous_end = 0
        for i, end in enumerate(ends):
            if tracer is not None:
                tracer.current = first_iteration + i
            start = time.perf_counter()
            with count_macs() as counter:
                out, _ = self.model.forward(feats[:end])
            seconds = time.perf_counter() - start
            if reference is not None:
                reference.sample()
            outputs.append(out.data)
            expected = total_macs(self.encoder_cfg, end, 1)
            iterations.append(Iteration(seconds, end - previous_end,
                                        counter.total == expected, expected, counter.total))
            previous_end = end
        full = outputs[-1]
        emitted, mismatched = 0, 0
        for out, it in zip(outputs[:-1], iterations):
            final = max(out.shape[0] - hold, emitted)
            chunk, reference = out[emitted:final], full[emitted:final]
            mismatched += int((chunk != reference).any(axis=1).sum())
            if chunk.size and np.abs(chunk - reference).max() > STREAM_TOLERANCE:
                it.ok = False
            emitted = final
        return iterations, mismatched

    def run(self, seconds: float, tracer=None, reference=None) -> Phase:
        phase = Phase([])
        deadline = time.perf_counter() + seconds
        for u, feats in enumerate(self.utterances()):
            iterations, mismatched = self._utterance(feats, tracer, reference,
                                                     len(phase.iterations))
            if u == 0:
                phase.prefix_mismatch_frames = mismatched
            phase.iterations.extend(iterations)
            audio_s = feats.shape[0] * HOP_S
            phase.utterance_rtf.append(sum(it.seconds for it in iterations) / audio_s)
            if time.perf_counter() >= deadline:
                break
        if tracer is not None:
            tracer.current = -1
        return phase


WORKLOADS = {w.name: w for w in (TrainDesk, EvalExperts16, StreamLong)}
