"""Synthetic multi-language frame-classification tasks.

Each "language" owns a fixed random linear coloring map plus per-token mean
vectors; a frame is its token's colored mean with additive gaussian noise.
Some tokens are shared across languages (same label, language-specific
acoustics), the rest are private, so classifying a frame requires implicitly
identifying the language. Every raw frame carries exactly one label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import dataclass_from_flat
from .errors import ConfigError


@dataclass
class SyntheticTaskSpec:
    num_languages: int = 4
    feature_dim: int = 16
    tokens_per_language: int = 8
    shared_tokens: int = 2
    min_tokens: int = 10
    max_tokens: int = 14
    frames_per_token: int = 4  # must equal the encoder's total downsample
    noise_scale: float = 0.25
    language_offset_scale: float = 1.5  # how far apart the language clusters sit
    seed: int = 0

    def validate(self) -> None:
        if self.num_languages < 1:
            raise ConfigError("need at least one language")
        if self.tokens_per_language < 1:
            raise ConfigError("tokens_per_language must be >= 1")
        if not 0 <= self.shared_tokens <= self.tokens_per_language:
            raise ConfigError("shared_tokens must lie in [0, tokens_per_language]")
        if self.min_tokens < 1 or self.max_tokens < self.min_tokens:
            raise ConfigError("invalid sequence length range")
        if self.frames_per_token < 1 or self.feature_dim < 1:
            raise ConfigError("frames_per_token and feature_dim must be >= 1")
        if self.noise_scale < 0 or self.language_offset_scale < 0:
            raise ConfigError("noise_scale and language_offset_scale must be >= 0")
        if self.seed < 0:
            raise ConfigError("task seed must be >= 0")

    @property
    def num_labels(self) -> int:
        private = self.tokens_per_language - self.shared_tokens
        return self.shared_tokens + self.num_languages * private

    def label_of(self, language: int, token: int) -> int:
        if token < self.shared_tokens:
            return token
        private = self.tokens_per_language - self.shared_tokens
        return self.shared_tokens + language * private + (token - self.shared_tokens)


class TaskGenerators:
    """Frozen per-language maps and token means, derived from the task seed."""

    def __init__(self, spec: SyntheticTaskSpec):
        spec.validate()
        self.spec = spec
        rng = np.random.default_rng([spec.seed, 0xA5])
        d = spec.feature_dim
        # orthogonal colorings keep every language's features well conditioned
        self.colorings = []
        for _ in range(spec.num_languages):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            self.colorings.append(q)
        self.shared_means = rng.standard_normal((spec.shared_tokens, d))
        private = spec.tokens_per_language - spec.shared_tokens
        self.private_means = rng.standard_normal((spec.num_languages, private, d))
        offsets = rng.standard_normal((spec.num_languages, d))
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
        self.language_offsets = spec.language_offset_scale * offsets

    def token_mean(self, language: int, token: int) -> np.ndarray:
        if token < self.spec.shared_tokens:
            base = self.shared_means[token]
        else:
            base = self.private_means[language, token - self.spec.shared_tokens]
        return base @ self.colorings[language] + self.language_offsets[language]


_GENERATOR_CACHE: dict[tuple, TaskGenerators] = {}


def generators_for(spec: SyntheticTaskSpec) -> TaskGenerators:
    key = (
        spec.num_languages, spec.feature_dim, spec.tokens_per_language,
        spec.shared_tokens, spec.language_offset_scale, spec.seed,
    )
    if key not in _GENERATOR_CACHE:
        _GENERATOR_CACHE[key] = TaskGenerators(spec)
    return _GENERATOR_CACHE[key]


def sample_sequence(spec: SyntheticTaskSpec, rng: np.random.Generator,
                    num_tokens: int | None = None):
    """One sequence: (features [T, d], labels [T], language id).

    The language is uniform; tokens are uniform over the language's
    vocabulary; each token spans ``frames_per_token`` raw frames.
    """
    gen = generators_for(spec)
    language = int(rng.integers(spec.num_languages))
    if num_tokens is None:
        num_tokens = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
    tokens = rng.integers(spec.tokens_per_language, size=num_tokens)
    fpt = spec.frames_per_token
    d = spec.feature_dim
    features = np.empty((num_tokens * fpt, d), dtype=np.float32)
    labels = np.empty(num_tokens * fpt, dtype=np.int64)
    for i, tok in enumerate(tokens):
        mean = gen.token_mean(language, int(tok))
        block = mean + spec.noise_scale * rng.standard_normal((fpt, d))
        features[i * fpt : (i + 1) * fpt] = block.astype(np.float32)
        labels[i * fpt : (i + 1) * fpt] = spec.label_of(language, int(tok))
    return features, labels, language


def generate_batch(spec: SyntheticTaskSpec, rng: np.random.Generator,
                   batch_size: int = 1):
    """A batch of equal-length sequences: (features [B, T, d], labels [B, T],
    language ids [B]). The token count is drawn once per batch."""
    num_tokens = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
    feats, labels, langs = [], [], []
    for _ in range(batch_size):
        f, l, g = sample_sequence(spec, rng, num_tokens)
        feats.append(f)
        labels.append(l)
        langs.append(g)
    return np.stack(feats), np.stack(labels), np.asarray(langs, dtype=np.int64)


def frame_targets(labels: np.ndarray, total_downsample: int) -> np.ndarray:
    """Map raw-frame labels to encoder-output-frame targets.

    Output frame j is anchored at raw index j * D + D/2 (the frame the
    stacked encoding is centered on); label spans aligned to D make any
    within-span anchor equivalent.
    """
    return labels[..., total_downsample // 2 :: total_downsample]


def task_from_flat(raw: dict[str, str], prefix: str = "task.") -> SyntheticTaskSpec:
    """The ``task.`` keys are SyntheticTaskSpec's fields, except ``languages``,
    ``noise`` and ``language_offset`` (num_languages, noise_scale and
    language_offset_scale)."""
    return dataclass_from_flat(SyntheticTaskSpec, raw, prefix, {
        "num_languages": "languages", "noise_scale": "noise",
        "language_offset_scale": "language_offset"})
