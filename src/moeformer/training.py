"""Training harness: frame-level cross-entropy plus the weighted
load-balancing penalty, adaptive-moment updates with linear warmup,
line-oriented metrics, and deterministic batching.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import EncoderConfig, dataclass_from_flat, encoder_to_flat
from .encoder import EncoderModel, build_encoder
from .errors import ConfigError, ParameterError, TrainingDiverged
from .moe import aux_load_balance_loss, over_capacity_ratio
from .synth import SyntheticTaskSpec, frame_targets, generate_batch
from .tensor import Tensor


@dataclass
class TrainConfig:
    steps: int = 500
    batch_size: int = 8
    lr: float = 3e-3
    warmup_steps: int = 100
    aux_weight: float = 0.01
    clip_norm: float = 1.0  # global gradient-norm ceiling; 0 disables
    seed: int = 0
    dtype: str = "float32"

    def validate(self) -> None:
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch_size must be >= 1")
        if not np.isfinite([self.lr, self.aux_weight, self.clip_norm]).all():
            raise ConfigError("lr, aux_weight and clip_norm must be finite")
        if not (self.aux_weight >= 0 and self.clip_norm >= 0 and self.warmup_steps >= 0):
            raise ConfigError("aux_weight, clip_norm and warmup must be >= 0")
        if not self.lr > 0:
            raise ConfigError("lr must be > 0")
        if self.seed < 0:
            raise ConfigError("train seed must be >= 0")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError("dtype must be float32 or float64")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def train_from_flat(raw: dict[str, str], prefix: str = "train.") -> TrainConfig:
    """The ``train.`` keys are TrainConfig's fields; ``warmup`` sets warmup_steps."""
    return dataclass_from_flat(TrainConfig, raw, prefix, {"warmup_steps": "warmup"})


# --------------------------------------------------------------------------
# model bundle


class TrainedModel:
    """Encoder plus a linear frame-classification head."""

    def __init__(self, encoder: EncoderModel, head_w: Tensor, head_b: Tensor):
        self.encoder = encoder
        self.head_w = head_w
        self.head_b = head_b

    @property
    def num_labels(self) -> int:
        return int(self.head_w.shape[1])

    def parameters(self):
        yield from self.encoder.parameters()
        yield "head.w", self.head_w
        yield "head.b", self.head_b

    def zero_grad(self):
        for _, p in self.parameters():
            p.grad = None

    def logits(self, features, language_ids=None):
        enc, decisions = self.encoder.forward(features, language_ids=language_ids)
        return T.linear(enc, self.head_w, self.head_b), decisions


def build_model(config: EncoderConfig, num_labels: int, seed: int,
                dtype=np.float32) -> TrainedModel:
    encoder = build_encoder(config, seed, dtype)
    rng = np.random.default_rng([seed, 1])
    d = config.output_dim
    bound = 1.0 / np.sqrt(d)
    head_w = Tensor(rng.uniform(-bound, bound, (d, num_labels)).astype(dtype),
                    requires_grad=True)
    head_b = Tensor(np.zeros(num_labels, dtype=dtype), requires_grad=True)
    return TrainedModel(encoder, head_w, head_b)


# --------------------------------------------------------------------------
# loss pieces


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    log_probs = T.log_softmax(logits, axis=-1)
    picked = T.take_index_last(log_probs, targets)
    return -T.mean(picked)


def frame_accuracy(logits: Tensor, targets: np.ndarray) -> float:
    pred = logits.data.argmax(axis=-1)
    return float((pred == targets).mean()) if targets.size else 0.0


# --------------------------------------------------------------------------
# optimizer

# elements per vector pass of the optimizer: the working set of one chunk
# (gradient, moments, parameters, two scratch rows: 1.5 MB in float32) stays
# in the L2 cache across the chunk's 10 passes
_CHUNK = 65536
_GRAD, _DATA = operator.attrgetter("grad"), operator.attrgetter("data")


class Adam:
    """Adaptive moments with bias correction and linear warmup, over one
    flat parameter arena.

    Construction copies every parameter into one contiguous buffer and
    rebinds each ``p.data`` to a reshaped view of its slot, so names, shapes
    and values are unchanged; the moments and the gradients live in buffers
    of the same layout. Each ``p.grad_slot`` is the parameter's gradient
    slot: a backward pass writes a parameter's first gradient (of a matmul,
    linear, conv or layer-norm node) straight into it, and ``_gather``
    copies in only the gradients that arrived as other arrays (a parameter
    used twice, a gradient set by hand). A step is 10 in-place vector
    passes over each cache-sized chunk of the runs of consecutive
    parameters that have a gradient. A parameter whose ``grad`` is None
    keeps its values and both moments. Parameter values must be written in
    place (``p.data[...] = values``, as
    ``checkpoint.load_into`` does); a step raises ``ParameterError`` once a
    parameter's ``data`` has been rebound.

    The update is Kingma & Ba's efficient form (2015, section 2), with the
    moments kept scaled: ``m`` holds ``M = m_t / (1 - beta1)`` and ``v``
    holds ``V = v_t / (1 - beta2)``, where ``m_t`` and ``v_t`` are the
    textbook moment estimates. Then ``M <- beta1 M + g``,
    ``V <- beta2 V + g^2`` and ``p <- p - a M / (sqrt(V) + e)``, with
    ``a = lr (1 - beta1) / c1 sqrt(c2 / (1 - beta2))`` and
    ``e = eps sqrt(c2 / (1 - beta2))`` for the bias corrections
    ``c1 = 1 - beta1^t`` and ``c2 = 1 - beta2^t``. That is the textbook
    update up to rounding: a few ulp per step, not bit for bit.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr: float, warmup_steps: int = 0):
        named = list(params)
        self.names = [name for name, _ in named]
        self.params = [p for _, p in named]
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.t = 0
        dtypes = {p.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ParameterError(
                f"Adam: parameters must share one dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.float32
        self.offsets = [0]
        for p in self.params:
            self.offsets.append(self.offsets[-1] + p.size)
        size = self.offsets[-1]
        self.data = np.empty(size, dtype)
        self.grad = np.empty(size, dtype)  # a step reads only the slots _gather planned
        self.m = np.zeros(size, dtype)  # M = m_t / (1 - beta1)
        self.v = np.zeros(size, dtype)  # V = v_t / (1 - beta2)
        self._views, self._grads, self._flat_grads = [], [], []
        for p, lo, hi in zip(self.params, self.offsets, self.offsets[1:]):
            view = self.data[lo:hi].reshape(p.shape)
            view[...] = p.data
            p.data = view
            self._views.append(view)
            self._flat_grads.append(self.grad[lo:hi])
            self._grads.append(self._flat_grads[-1].reshape(p.shape))
            p.grad_slot = self._grads[-1]
        self._scratch = np.empty((2, min(_CHUNK, size)), dtype)
        self._plan = None  # the last _gather's result until a step uses it
        self._planned: list = []  # every p.grad as that _gather left it

    def current_lr(self) -> float:
        if self.warmup_steps and self.t < self.warmup_steps:
            return self.lr * (self.t + 1) / self.warmup_steps
        return self.lr

    def _gather(self) -> tuple[list[int], list[list[int]]]:
        """Copy each gradient not yet in the flat buffer into its slot and
        point ``p.grad`` at that slot. Returns the plan of a step: the
        indices of the parameters that have a gradient, and the ``[lo, hi)``
        runs of consecutive such parameters in the flat buffers. ``step``
        reuses it while no ``p.grad`` or ``p.data`` has been rebound."""
        present: list[int] = []
        runs: list[list[int]] = []
        for i, p in enumerate(self.params):
            if p.data is not self._views[i]:
                raise ParameterError(
                    f"parameter {self.names[i]} was rebound outside the optimizer's "
                    f"buffer; write new values in place (p.data[...] = values)"
                )
            if p.grad is None:
                continue
            if p.grad is not self._grads[i]:
                self._grads[i][...] = p.grad
                p.grad = self._grads[i]
            present.append(i)
            if runs and runs[-1][1] == self.offsets[i]:
                runs[-1][1] = self.offsets[i + 1]
            else:
                runs.append([self.offsets[i], self.offsets[i + 1]])
        self._plan = present, runs
        self._planned = list(map(_GRAD, self.params))
        return self._plan

    def _current_plan(self) -> tuple[list[int], list[list[int]]]:
        """The plan of the last ``_gather`` while every ``p.grad`` and
        ``p.data`` is still what it left; otherwise a new ``_gather``."""
        plan, self._plan = self._plan, None
        if plan is None or not (
                all(map(operator.is_, map(_GRAD, self.params), self._planned))
                and all(map(operator.is_, map(_DATA, self.params), self._views))):
            plan, self._plan = self._gather(), None
        return plan

    def step(self) -> float:
        _, runs = self._current_plan()
        lr = self.current_lr()
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        # Python floats: a numpy float64 scalar would send float32 passes
        # through a casting loop
        root = math.sqrt(c2 / (1.0 - b2))
        alpha = lr * (1.0 - b1) / c1 * root
        eps = self.eps * root
        # M = b1 * M + g
        # V = b2 * V + g * g
        # p = p - (alpha * M) / (sqrt(V) + eps)
        for run_lo, run_hi in runs:
            for lo in range(run_lo, run_hi, _CHUNK):
                hi = min(lo + _CHUNK, run_hi)
                g, m, v, p = self.grad[lo:hi], self.m[lo:hi], self.v[lo:hi], self.data[lo:hi]
                s, u = self._scratch[0, : hi - lo], self._scratch[1, : hi - lo]
                np.multiply(m, b1, out=m)
                np.add(m, g, out=m)
                np.multiply(v, b2, out=v)
                np.square(g, out=s)
                np.add(v, s, out=v)
                np.sqrt(v, out=s)
                np.add(s, eps, out=s)
                np.multiply(m, alpha, out=u)
                np.divide(u, s, out=u)
                np.subtract(p, u, out=p)
        return lr


def clip_gradients(opt: Adam, max_norm: float) -> float:
    """Scale the optimizer's gradients so their global L2 norm is at most
    ``max_norm`` (0 disables scaling), and plan the optimizer's next step.

    Returns the pre-clip norm. Keeps late training stable once the loss is
    tiny and the adaptive denominators have decayed. Each parameter's sum
    of squares is one BLAS dot in the parameter dtype, and the sums are
    added as Python floats in parameter order: within a relative 1e-6 of
    float64 squares in float32, 1e-12 in float64. A norm that is not finite
    raises ``TrainingDiverged`` naming the first parameter whose sum is not,
    before any gradient, parameter or moment changes."""
    present, runs = opt._gather()
    flat = opt._flat_grads
    total = 0.0
    with np.errstate(over="ignore"):
        for i in present:
            g = flat[i]
            total += float(g.dot(g))
    if not math.isfinite(total):
        # a float32 square overflows above 1.8e19; tell that from an inf or
        # a NaN in the gradient by summing again in float64
        total = 0.0
        for i in present:
            g = flat[i].astype(np.float64)
            part = float(g.dot(g))
            if not math.isfinite(part):
                raise TrainingDiverged(
                    f"non-finite gradient in {opt.names[i]} at step {opt.t}")
            total += part
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for lo, hi in runs:
            np.multiply(opt.grad[lo:hi], scale, out=opt.grad[lo:hi])
    return norm


# --------------------------------------------------------------------------
# training loop


def check_task_fit(encoder_config: EncoderConfig, task: SyntheticTaskSpec) -> None:
    """Refuse a task whose frames or languages the encoder cannot take."""
    if task.feature_dim != encoder_config.frontend.feature_dim:
        raise ConfigError(
            f"task feature_dim {task.feature_dim} != encoder feature_dim "
            f"{encoder_config.frontend.feature_dim}"
        )
    if task.frames_per_token != encoder_config.total_downsample:
        raise ConfigError(
            f"task frames_per_token {task.frames_per_token} must equal the "
            f"encoder's total downsample {encoder_config.total_downsample}"
        )
    adapters = encoder_config.adapters
    if adapters is not None and adapters.num_groups != task.num_languages:
        raise ConfigError(
            f"adapter groups {adapters.num_groups} must match "
            f"the task's {task.num_languages} languages"
        )


def train(encoder_config: EncoderConfig, task: SyntheticTaskSpec,
          train_cfg: TrainConfig, step_hook=None):
    """Train a fresh model; returns (model, metrics) where metrics is one
    dict per step (loss, ce, accuracy, per-layer aux/load/over-capacity)."""
    train_cfg.validate()
    task.validate()
    encoder_config.validate()
    check_task_fit(encoder_config, task)
    uses_adapters = encoder_config.adapters is not None

    model = build_model(encoder_config, task.num_labels, train_cfg.seed,
                        train_cfg.np_dtype)
    opt = Adam(model.parameters(), lr=train_cfg.lr, warmup_steps=train_cfg.warmup_steps)
    batch_rng = np.random.default_rng([train_cfg.seed, 2])
    downsample = encoder_config.total_downsample

    metrics: list[dict] = []
    for step in range(train_cfg.steps):
        feats, labels, langs = generate_batch(task, batch_rng, train_cfg.batch_size)
        targets = frame_targets(labels, downsample)
        # an overflow or NaN in the forward or backward ends the run before
        # the update, instead of a numpy warning and saturated weights
        try:
            with np.errstate(over="raise", invalid="raise"):
                logits, decisions = model.logits(
                    feats, language_ids=langs if uses_adapters else None)
                ce = cross_entropy(logits, targets)
                loss = ce
                aux_values = []
                for decision in decisions:
                    aux = aux_load_balance_loss(decision)
                    aux_values.append(float(aux.data))
                    if train_cfg.aux_weight > 0:
                        loss = loss + aux * train_cfg.aux_weight
                loss_value = float(loss.data)
                if not np.isfinite(loss_value):
                    raise TrainingDiverged(
                        f"non-finite loss {loss_value} at step {step} "
                        f"(ce={float(ce.data)}, lr={opt.current_lr():.3g})"
                    )
                model.zero_grad()
                loss.backward()
        except FloatingPointError as exc:
            raise TrainingDiverged(
                f"{exc} at step {step} (lr={opt.current_lr():.3g})") from exc
        grad_norm = clip_gradients(opt, train_cfg.clip_norm)
        lr = opt.step()

        record = {
            "step": step,
            "loss": loss_value,
            "ce": float(ce.data),
            "acc": frame_accuracy(logits, targets),
            "lr": lr,
            "grad_norm": grad_norm,
        }
        for li, decision in enumerate(decisions):
            record[f"aux{li}"] = aux_values[li]
            loads = decision.load_fractions
            overcap = over_capacity_ratio(decision)
            for e in range(decision.num_experts):
                record[f"load{li}_{e}"] = float(loads[e])
                record[f"ovc{li}_{e}"] = float(overcap[e])
        metrics.append(record)
        if step_hook is not None:
            step_hook(step, record)
    return model, metrics


# --------------------------------------------------------------------------
# metrics serialization


def metrics_line(record: dict) -> str:
    parts = [f"step={record['step']}"]
    for key, value in record.items():
        if key == "step":
            continue
        if isinstance(value, float):
            parts.append(f"{key}={value:.8g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def write_metrics(metrics: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in metrics:
            fh.write(metrics_line(record) + "\n")


def checkpoint_config_text(encoder_config: EncoderConfig) -> str:
    return encoder_to_flat(encoder_config)
