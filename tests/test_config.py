"""Flat config file parsing and serialization."""

from dataclasses import replace
from pathlib import Path

import pytest

from moeformer import ConfigError
from moeformer.accounting import count_params
from moeformer.config import (
    ENCODER_KEYS,
    REQUIRED,
    encoder_from_flat,
    encoder_to_flat,
    parse_kv_file,
    parse_kv_text,
)
from moeformer.evaluation import BUDGET_TOLERANCE
from moeformer.synth import SyntheticTaskSpec, task_from_flat
from moeformer.training import (
    TrainConfig,
    check_task_fit,
    checkpoint_config_text,
    train_from_flat,
)

from geometry import encoder_of, reference_family

REPO = Path(__file__).resolve().parent.parent
BALANCE = encoder_of("balance")


@pytest.mark.parametrize("cfg", [
    BALANCE,
    encoder_of("balance", moe_placement="none"),
    encoder_of("balance", moe_selector="odd"),
    encoder_of("balance", adapter_dim=32, adapter_groups=4),
    encoder_of("balance", causal_dims=""),
    encoder_of("balance", noncausal_dims="", right_contexts=""),
    *reference_family().values(),  # the 12 files under configs/reference
])
def test_encoder_flat_roundtrip(cfg):
    text = encoder_to_flat(cfg)
    assert encoder_from_flat(parse_kv_text(text)) == cfg


@pytest.mark.parametrize("stack, field, value", [
    ("non_causal", "heads", 2), ("causal", "left_context", 8), ("non_causal", "num_experts", 3)])
def test_echo_refuses_an_encoder_it_cannot_write_back(stack, field, value):
    # the keys hold one value for every layer; writing layer 0's would turn
    # a checkpoint's layers 1-3 into other layers when its echo is read back
    layers = getattr(BALANCE, stack)
    mixed = replace(BALANCE, **{stack: layers[:1] + [replace(l, **{field: value})
                                                     for l in layers[1:]]})
    with pytest.raises(ConfigError, match="per-layer settings"):
        checkpoint_config_text(mixed)


def test_echo_refuses_stacks_with_other_heads():
    # one heads key serves both stacks
    mixed = replace(BALANCE, causal=[replace(l, heads=2) for l in BALANCE.causal])
    with pytest.raises(ConfigError, match="per-layer settings"):
        checkpoint_config_text(mixed)


def test_echo_writes_every_key_in_table_order():
    names = [line.split("=", 1)[0] for line in encoder_to_flat(BALANCE).splitlines()]
    assert names == ["encoder." + k for k in ENCODER_KEYS]


def test_every_encoder_key_varies_across_the_shipped_files():
    # a key that every shipped geometry sets to one value is a constant
    seen = {name: set() for name in ENCODER_KEYS}
    for path in sorted((REPO / "configs").glob("*/*.cfg")):
        raw = parse_kv_file(path)
        for section in sorted({key.split(".", 1)[0] for key in raw} - {"task", "train"}):
            echo = parse_kv_text(encoder_to_flat(encoder_from_flat(raw, section + ".")))
            for name in ENCODER_KEYS:
                seen[name].add(echo["encoder." + name])
    assert [name for name, values in seen.items() if len(values) < 2] == []


def _shown(default):
    if default is REQUIRED:
        return "required"
    return f"`{default}`" if default != () else "empty"


def test_readme_documents_every_encoder_key():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for name, key in ENCODER_KEYS.items():
        row = f"| `encoder.{name}` | {key.type} | {_shown(key.default)} | {key.doc} |"
        assert row in readme, row


@pytest.mark.parametrize("path", sorted((REPO / "configs" / "desk").glob("*.cfg")),
                         ids=lambda path: path.stem)
def test_shipped_desk_config_is_usable(path):
    # everything train / compare-adapter check before the first step, so a
    # drifted file fails here and not minutes into a training criterion
    raw = parse_kv_file(path)
    sections = {key.split(".", 1)[0] for key in raw}
    pair = "encoder" not in sections
    prefixes = ("adapter_encoder.", "moe_encoder.") if pair else ("encoder.",)
    assert sections == {p.rstrip(".") for p in prefixes} | {"task", "train"}
    encoders = [encoder_from_flat(raw, prefix=p) for p in prefixes]
    task, train_cfg = task_from_flat(raw), train_from_flat(raw)
    task.validate()
    train_cfg.validate()
    for cfg in encoders:
        check_task_fit(cfg, task)
    if pair:
        adapter_cfg, moe_cfg = encoders
        assert adapter_cfg.adapters is not None and moe_cfg.adapters is None
        budgets = [count_params(cfg).inference_params for cfg in encoders]
        assert abs(budgets[0] - budgets[1]) / budgets[0] <= BUDGET_TOLERANCE
    if path.stem == "compare":
        # criterion 9 routes with the encoder that criteria 7 and 8 train
        assert encoders[1] == BALANCE


def test_train_and_task_defaults_live_in_their_dataclasses():
    assert train_from_flat({}) == TrainConfig()
    assert task_from_flat({}) == SyntheticTaskSpec()
    raw = {"train.warmup": "7", "task.languages": "3", "task.noise": "0.5",
           "task.language_offset": "2.5"}
    assert train_from_flat(raw).warmup_steps == 7
    task = task_from_flat(raw)
    assert (task.num_languages, task.noise_scale, task.language_offset_scale) == (3, 0.5, 2.5)
    with pytest.raises(ConfigError, match="train.warmup_steps"):
        train_from_flat({"train.warmup_steps": "7"})
    with pytest.raises(ConfigError, match="train.lr: expected number"):
        train_from_flat({"train.lr": "fast"})


def test_keys_of_an_empty_stack_are_accepted():
    text = encoder_to_flat(BALANCE).replace(
        "encoder.causal_dims=64,64,64", "encoder.causal_dims=")
    assert "encoder.heads=4" in text
    assert encoder_from_flat(parse_kv_text(text)) == encoder_of("balance", causal_dims="")


def test_right_contexts_left_out_are_zeros():
    text = encoder_to_flat(BALANCE).replace("encoder.right_contexts=2,2,1,1\n", "")
    cfg = encoder_from_flat(parse_kv_text(text))
    assert cfg.non_causal == [replace(l, right_context=0) for l in BALANCE.non_causal]


def test_adapter_groups_need_adapter_dim():
    text = encoder_to_flat(BALANCE).replace(
        "encoder.adapter_groups=0", "encoder.adapter_groups=4")
    with pytest.raises(ConfigError, match="adapter_groups"):
        encoder_from_flat(parse_kv_text(text))


def test_comments_and_blank_lines_ignored():
    text = encoder_to_flat(BALANCE)
    noisy = "# leading comment\n\n" + text.replace(
        "encoder.ffn_mult=4", "encoder.ffn_mult=4  # inline comment"
    )
    assert encoder_from_flat(parse_kv_text(noisy)) == BALANCE


def test_unknown_keys_rejected():
    text = encoder_to_flat(BALANCE) + "encoder.typo=3\n"
    with pytest.raises(ConfigError, match="typo"):
        encoder_from_flat(parse_kv_text(text))


@pytest.mark.parametrize("dims", ["64,,64", "16,", ",16", " , "])
def test_int_list_refuses_empty_items(dims):
    with pytest.raises(ConfigError, match="causal_dims: expected comma list of ints"):
        encoder_of("balance", causal_dims=dims)


def test_missing_required_key_rejected():
    with pytest.raises(ConfigError, match="feature_dim"):
        encoder_from_flat({"encoder.input_dim": "8"})


def test_right_context_list_length_checked():
    text = encoder_to_flat(BALANCE).replace(
        "encoder.right_contexts=2,2,1,1", "encoder.right_contexts=2,2"
    )
    with pytest.raises(ConfigError, match="right_contexts"):
        encoder_from_flat(parse_kv_text(text))


def test_prefix_isolation():
    both = encoder_to_flat(BALANCE, prefix="adapter_encoder.") + encoder_to_flat(
        encoder_of("balance", num_experts=8), prefix="moe_encoder."
    )
    raw = parse_kv_text(both)
    a = encoder_from_flat(raw, prefix="adapter_encoder.")
    b = encoder_from_flat(raw, prefix="moe_encoder.")
    assert a.non_causal[0].num_experts == 4
    assert b.non_causal[0].num_experts == 8
