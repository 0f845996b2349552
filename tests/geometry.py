"""Encoder geometries for the tests.

The named geometries (the reference family and the desk runs) are defined
only by the files under ``configs/``, and ``reference_family`` reads them
from there; ``REFERENCE_SIZES_M`` holds the published sizes they are checked
against. ``desk_encoder`` is a parametric builder for the small variants
that unit tests need by the dozen, and ``micro_encoder`` / ``micro_task``
shrink it for the training and evaluation tests. With no arguments they
equal the shipped files (``desk_encoder``: ``configs/desk/balance.cfg``;
``micro_*``: ``configs/desk/quick.cfg``), which ``test_config`` checks.
"""

from __future__ import annotations

from pathlib import Path

from moeformer.config import (
    AdapterConfig,
    ConformerLayerConfig,
    EncoderConfig,
    FrontendConfig,
    InputBlockConfig,
    encoder_from_flat,
    parse_kv_file,
)
from moeformer.synth import SyntheticTaskSpec

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


def desk_encoder(
    moe_placement: str = "end",
    num_experts: int = 4,
    expert_mult: int = 4,
    moe_selector: str = "all",
    adapters: AdapterConfig | None = None,
    causal_layers: int = 3,
    causal_dim: int = 64,
    non_causal_layers: int = 4,
    non_causal_dim: int = 96,
    heads: int = 4,
    feature_dim: int = 16,
    ffn_mult: int = 4,
) -> EncoderConfig:
    """CPU-sized default geometry: 3 causal layers at 64, 4 non-causal at 96.

    The non-causal layers share ``non_causal_layers + 2`` right-context
    frames as evenly as possible, the earlier layers taking the extra ones.
    """
    base, extra = divmod(non_causal_layers + 2, max(non_causal_layers, 1))
    rights = [base + (i < extra) for i in range(non_causal_layers)]
    causal = [
        ConformerLayerConfig(
            model_dim=causal_dim, ffn_mult=ffn_mult, heads=heads, conv_kernel=7,
            causal=True, left_context=16, right_context=0,
        )
        for _ in range(causal_layers)
    ]
    non_causal = [
        ConformerLayerConfig(
            model_dim=non_causal_dim, ffn_mult=ffn_mult, heads=heads, conv_kernel=7,
            causal=False, left_context=16, right_context=rights[i],
            moe_placement=moe_placement,
            num_experts=num_experts if moe_placement != "none" else 0,
            expert_mult=expert_mult,
        )
        for i in range(non_causal_layers)
    ]
    return EncoderConfig(
        frontend=FrontendConfig(feature_dim=feature_dim, stack=2, downsample=2),
        input_block=InputBlockConfig(out_dim=causal_dim // 2, num_convs=2, kernel=3),
        causal=causal,
        non_causal=non_causal,
        moe_selector=moe_selector,
        adapters=adapters,
    )


def micro_encoder(**overrides) -> EncoderConfig:
    """``desk_encoder`` at the widths of ``configs/desk/quick.cfg``."""
    kwargs = dict(
        causal_layers=1, causal_dim=16, non_causal_layers=2, non_causal_dim=24,
        heads=2, feature_dim=8, ffn_mult=2, num_experts=2,
    )
    kwargs.update(overrides)
    return desk_encoder(**kwargs)


def micro_task(**overrides) -> SyntheticTaskSpec:
    """The task of ``configs/desk/quick.cfg``."""
    kwargs = dict(
        num_languages=2, feature_dim=8, tokens_per_language=4, shared_tokens=1,
        min_tokens=4, max_tokens=6, frames_per_token=4, noise_scale=0.2, seed=0,
    )
    kwargs.update(overrides)
    return SyntheticTaskSpec(**kwargs)
