"""Training harness: frame-level cross-entropy plus the weighted
load-balancing penalty, adaptive-moment updates with linear warmup,
line-oriented metrics, and deterministic batching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import EncoderConfig, dataclass_from_flat, encoder_to_flat
from .encoder import EncoderModel, build_encoder, spec_augment
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
    specaug: bool = False
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0  # global gradient-norm ceiling; 0 disables
    seed: int = 0
    dtype: str = "float32"

    def validate(self) -> None:
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch_size must be >= 1")
        if not (self.aux_weight >= 0 and self.clip_norm >= 0 and self.warmup_steps >= 0):
            raise ConfigError("aux_weight, clip_norm and warmup must be >= 0")
        if not (self.lr > 0 and self.eps > 0):
            raise ConfigError("lr and eps must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
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
        return T.matmul(enc, self.head_w) + self.head_b, decisions


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
# in the L2 cache across the chunk's 14 passes
_CHUNK = 65536


class Adam:
    """Adaptive moments with bias correction and linear warmup, over one
    flat parameter arena.

    Construction copies every parameter into one contiguous buffer and
    rebinds each ``p.data`` to a reshaped view of its slot, so names, shapes
    and values are unchanged; the moments and the gradients live in buffers
    of the same layout. A step is a few in-place vector passes over
    cache-sized chunks of consecutive parameters that have a gradient, with
    the per-element arithmetic of a per-tensor update. A parameter whose
    ``grad`` is None keeps its values and both moments. Parameter values
    must be written in place (``p.data[...] = values``, as
    ``checkpoint.load_into`` does); a step raises ``ParameterError`` once a
    parameter's ``data`` has been rebound.
    """

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, warmup_steps: int = 0):
        named = list(params)
        self.names = [name for name, _ in named]
        self.params = [p for _, p in named]
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
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
        self.grad = np.empty(size, dtype)  # a step reads only the slots it copied in
        self.m = np.zeros(size, dtype)
        self.v = np.zeros(size, dtype)
        self._views, self._grads = [], []
        for p, lo, hi in zip(self.params, self.offsets, self.offsets[1:]):
            view = self.data[lo:hi].reshape(p.shape)
            view[...] = p.data
            p.data = view
            self._views.append(view)
            self._grads.append(self.grad[lo:hi].reshape(p.shape))
        width = max([_CHUNK] + [p.size for p in self.params])
        self._scratch = np.empty((2, width), dtype)
        self._squares = np.empty(width, np.float64)

    def current_lr(self) -> float:
        if self.warmup_steps and self.t < self.warmup_steps:
            return self.lr * (self.t + 1) / self.warmup_steps
        return self.lr

    def _gather(self) -> list[tuple[int, int, list[int]]]:
        """Copy each gradient not yet in the flat buffer into its slot and
        point ``p.grad`` at that slot. Returns ``(lo, hi, cuts)`` chunks of
        consecutive parameters that have a gradient, each at most
        ``_CHUNK`` elements unless one parameter is larger; ``cuts`` are the
        parameter boundaries in ``[lo, hi]``."""
        chunks: list[tuple[int, int, list[int]]] = []
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
            lo, hi = self.offsets[i], self.offsets[i + 1]
            if chunks and chunks[-1][1] == lo and hi - chunks[-1][0] <= _CHUNK:
                start, _, cuts = chunks[-1]
                cuts.append(hi)
                chunks[-1] = (start, hi, cuts)
            else:
                chunks.append((lo, hi, [lo, hi]))
        return chunks

    def step(self) -> float:
        chunks = self._gather()
        lr = self.current_lr()
        self.t += 1
        b1, b2, eps = self.beta1, self.beta2, self.eps
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        # m = b1 * m + (1 - b1) * g
        # v = b2 * v + (1 - b2) * (g * g)
        # p = p - lr * ((m / c1) / (sqrt(v / c2) + eps))
        # one ufunc per operation, in this order and in the parameter dtype
        for lo, hi, _ in chunks:
            g, m, v, p = self.grad[lo:hi], self.m[lo:hi], self.v[lo:hi], self.data[lo:hi]
            s, u = self._scratch[0, : hi - lo], self._scratch[1, : hi - lo]
            np.multiply(m, b1, out=m)
            np.multiply(g, 1 - b1, out=s)
            np.add(m, s, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, g, out=s)
            np.multiply(s, 1 - b2, out=s)
            np.add(v, s, out=v)
            np.divide(v, c2, out=s)
            np.sqrt(s, out=s)
            np.add(s, eps, out=s)
            np.divide(m, c1, out=u)
            np.divide(u, s, out=u)
            np.multiply(u, lr, out=u)
            np.subtract(p, u, out=p)
        return lr


def clip_gradients(opt: Adam, max_norm: float) -> float:
    """Scale the optimizer's gradients so their global L2 norm is at most
    ``max_norm`` (0 disables scaling).

    Returns the pre-clip norm. Keeps late training stable once the loss is
    tiny and the adaptive denominators have decayed. Each parameter's
    squares are summed on their own in float64 and the sums added in
    parameter order, so the norm is that of a per-tensor loop."""
    chunks = opt._gather()
    total = 0.0
    for lo, hi, cuts in chunks:
        squares = np.square(opt.grad[lo:hi], out=opt._squares[: hi - lo], dtype=np.float64)
        for a, b in zip(cuts, cuts[1:]):
            total += float(np.add.reduce(squares[a - lo : b - lo]))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for lo, hi, _ in chunks:
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
    opt = Adam(model.parameters(), lr=train_cfg.lr, beta1=train_cfg.beta1,
               beta2=train_cfg.beta2, eps=train_cfg.eps,
               warmup_steps=train_cfg.warmup_steps)
    batch_rng = np.random.default_rng([train_cfg.seed, 2])
    aug_rng = np.random.default_rng([train_cfg.seed, 3])
    downsample = encoder_config.total_downsample

    metrics: list[dict] = []
    for step in range(train_cfg.steps):
        feats, labels, langs = generate_batch(task, batch_rng, train_cfg.batch_size)
        if train_cfg.specaug:
            feats = np.stack([spec_augment(f, aug_rng) for f in feats])
        targets = frame_targets(labels, downsample)
        logits, decisions = model.logits(feats, language_ids=langs if uses_adapters else None)
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
