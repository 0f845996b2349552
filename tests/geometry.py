"""Encoder geometries and tasks for the tests.

Every geometry the tests run is read from a shipped file under
``configs/``. ``reference_family`` reads the reference family, and
``calibrated_family`` adds the remainder that calibrates its dense baseline
to the published size; ``REFERENCE_SIZES_M`` holds the published sizes the
family is checked against. ``encoder_of`` and ``task_of`` read a desk file
(``quick`` or ``balance``) with overrides named by the file's own keys, so a
variant is written in the README's key vocabulary, for example
``encoder_of("quick", num_experts=3, noncausal_dims="24,24,24",
right_contexts="2,2,1")``; parsing and validation are
``moeformer.config``'s.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path

from moeformer.accounting import fitted_remainder
from moeformer.config import EncoderConfig, encoder_from_flat, parse_kv_file
from moeformer.synth import SyntheticTaskSpec, task_from_flat

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


REFERENCE_SIZES_M = {
    # published (total, inference) sizes in millions for the reference family
    "b1": (180, 180),
    "e1": (400, 211),
    "e2": (400, 211),
    "e3": (640, 246),
    "e4": (295, 211),
    "e5": (211, 211),
    "e6": (295, 196),
    "e7": (203, 183),
    "e8": (336, 187),
    "e9": (532, 187),
    "e10": (729, 187),
    "b3": (280, 187),
}


def reference_family() -> dict[str, EncoderConfig]:
    """The reference family as shipped, keyed by id (the file's stem):
    accounting only, never executed."""
    return {path.stem: encoder_from_flat(parse_kv_file(path))
            for path in sorted((CONFIGS / "reference").glob("*.cfg"))}


@cache
def calibrated_family() -> tuple[dict[str, EncoderConfig], int]:
    """The reference family and the parameter remainder outside the encoder
    that makes b1's count the published baseline."""
    family = reference_family()
    return family, fitted_remainder(family["b1"])


def _desk(name: str, section: str, keys: dict) -> dict[str, str]:
    raw = parse_kv_file(CONFIGS / "desk" / f"{name}.cfg")
    raw.update({f"{section}.{key}": str(value) for key, value in keys.items()})
    return raw


def encoder_of(name: str, **keys) -> EncoderConfig:
    """The encoder of ``configs/desk/<name>.cfg`` with ``keys`` (``ENCODER_KEYS``
    names) set."""
    return encoder_from_flat(_desk(name, "encoder", keys))


def task_of(name: str, **keys) -> SyntheticTaskSpec:
    """The task of ``configs/desk/<name>.cfg`` with ``keys`` (``task.`` key
    names, such as ``languages``) set."""
    return task_from_flat(_desk(name, "task", keys))
