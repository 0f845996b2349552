"""Synthetic task generator tests."""

import numpy as np
import pytest

from moeformer import ConfigError
from moeformer.config import parse_kv_file
from moeformer.synth import (
    SyntheticTaskSpec,
    frame_targets,
    generate_batch,
    sample_sequence,
    task_from_flat,
)

import oracles
from geometry import CONFIGS


def test_zero_noise_repeats_token_vectors():
    spec = SyntheticTaskSpec(noise_scale=0.0, frames_per_token=3, seed=1)
    feats, labels, lang = sample_sequence(spec, np.random.default_rng(2))
    for i in range(0, len(labels), 3):
        block = feats[i : i + 3]
        np.testing.assert_array_equal(block[0], block[1])
        np.testing.assert_array_equal(block[0], block[2])
        assert len(set(labels[i : i + 3])) == 1


@pytest.mark.parametrize("batch", [1, 12, 24])
def test_batches_match_the_per_token_oracle_byte_for_byte(batch):
    # one noise draw per sequence: features, labels, language ids and the
    # generator state afterwards equal a draw per token
    spec = task_from_flat(parse_kv_file(CONFIGS / "desk" / "balance.cfg"))
    rng, ref = np.random.default_rng(21), np.random.default_rng(21)
    for _ in range(3):
        got, want = generate_batch(spec, rng, batch), oracles.generate_batch(spec, ref, batch)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_long_utterance_matches_the_per_token_oracle_byte_for_byte():
    # the 500-token utterances of the streaming benchmark
    spec = task_from_flat(parse_kv_file(CONFIGS / "desk" / "balance.cfg"))
    got = sample_sequence(spec, np.random.default_rng(22), num_tokens=500)
    want = oracles.sample_sequence(spec, np.random.default_rng(22), num_tokens=500)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes() and got[1].dtype == want[1].dtype
    assert got[2] == want[2]


def test_fixed_seed_bit_identical_batches():
    spec = SyntheticTaskSpec(seed=3)
    a = generate_batch(spec, np.random.default_rng(9), batch_size=4)
    b = generate_batch(spec, np.random.default_rng(9), batch_size=4)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_language_frequencies_uniform_within_3_sigma():
    spec = SyntheticTaskSpec(num_languages=4, seed=5)
    rng = np.random.default_rng(6)
    n = 10_000
    counts = np.zeros(4, dtype=np.int64)
    for _ in range(n):
        lang = int(rng.integers(spec.num_languages))  # mirror of the sampler's draw
        counts[lang] += 1
    # binomial bound per language
    p = 1 / 4
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3 * sigma)

    # and the actual sampler agrees with its own uniform contract
    counts2 = np.zeros(4, dtype=np.int64)
    rng2 = np.random.default_rng(7)
    small = SyntheticTaskSpec(num_languages=4, min_tokens=1, max_tokens=1, seed=5)
    for _ in range(2000):
        _, _, lang = sample_sequence(small, rng2)
        counts2[lang] += 1
    sigma2 = np.sqrt(2000 * p * (1 - p))
    assert np.all(np.abs(counts2 - 2000 * p) <= 3 * sigma2)


def test_every_frame_has_exactly_one_label_and_alphabet_size():
    spec = SyntheticTaskSpec(num_languages=3, tokens_per_language=6, shared_tokens=2)
    assert spec.num_labels == 2 + 3 * 4
    rng = np.random.default_rng(8)
    seen = set()
    for _ in range(200):
        feats, labels, lang = sample_sequence(spec, rng)
        assert feats.shape[0] == labels.shape[0]
        assert labels.min() >= 0 and labels.max() < spec.num_labels
        seen.update(labels.tolist())
    assert seen == set(range(spec.num_labels))


def test_shared_tokens_share_labels_across_languages():
    spec = SyntheticTaskSpec(num_languages=4, tokens_per_language=5, shared_tokens=2)
    for lang in range(4):
        for tok in range(2):
            assert spec.label_of(lang, tok) == tok
    labels = {spec.label_of(lang, 3) for lang in range(4)}
    assert len(labels) == 4  # private tokens get distinct labels


def test_frame_targets_alignment():
    spec = SyntheticTaskSpec(frames_per_token=4, min_tokens=5, max_tokens=5, seed=9)
    feats, labels, _ = sample_sequence(spec, np.random.default_rng(10))
    targets = frame_targets(labels, 4)
    assert targets.shape[0] == 5
    np.testing.assert_array_equal(targets, labels[::4])  # spans are constant


def test_task_validation():
    with pytest.raises(ConfigError):
        SyntheticTaskSpec(shared_tokens=10, tokens_per_language=4).validate()
    with pytest.raises(ConfigError):
        SyntheticTaskSpec(min_tokens=5, max_tokens=2).validate()
