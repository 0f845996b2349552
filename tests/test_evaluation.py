"""Evaluation and comparison tests: mutual information oracles, routing
report invariants, and the adapter-parity experiment machinery."""

import numpy as np
import pytest

from moeformer import ConfigError
from moeformer.config import encoder_from_flat, parse_kv_file
from moeformer.encoder import EncoderModel
from moeformer.evaluation import (
    compare_adapter_vs_moe,
    evaluate,
    mutual_information_bits,
    routing_stream,
)
from moeformer.moe import MoELayer, route_top2
from moeformer.synth import SyntheticTaskSpec, generators_for
from moeformer.tensor import Tensor, matmul, softmax
from moeformer.training import TrainConfig, TrainedModel, build_model, train

from geometry import CONFIGS, encoder_of, task_of


# --------------------------------------------------------------------------
# mutual information


def test_mi_of_diagonal_joint_is_log2_k():
    for k in (2, 4, 8):
        joint = np.eye(k) * 1000
        assert mutual_information_bits(joint) == pytest.approx(np.log2(k), abs=1e-9)


def test_mi_of_independent_joint_is_zero():
    joint = np.full((4, 4), 250.0)
    assert mutual_information_bits(joint) == pytest.approx(0.0, abs=1e-12)
    assert mutual_information_bits(np.zeros((3, 3))) == 0.0


def test_oracle_gate_routing_reaches_log2_k():
    # a gate matrix whose columns are the language offset directions sends
    # language-i frames to expert i; the empirical MI approaches log2(K)
    k = 4
    task = SyntheticTaskSpec(num_languages=k, feature_dim=16, noise_scale=0.25,
                             language_offset_scale=1.5, seed=11)
    gen = generators_for(task)
    gate_w = Tensor((gen.language_offsets.T * 8.0).astype(np.float64))
    rng = np.random.default_rng(12)
    joint = np.zeros((k, k))
    frames_per_lang = 2600
    for lang in range(k):
        base = gen.language_offsets[lang]
        feats = base + task.noise_scale * rng.standard_normal((frames_per_lang, 16))
        gates = matmul(Tensor(feats), gate_w)
        decision = route_top2(softmax(gates, axis=1))
        np.add.at(joint, (np.full(frames_per_lang, lang), decision.top2_idx[:, 0]), 1)
    assert joint.sum() >= 10_000
    assert mutual_information_bits(joint) >= np.log2(k) - 0.05


def test_untrained_zero_init_gates_have_no_language_information():
    task = task_of("quick")
    model = build_model(encoder_of("quick"), task.num_labels, seed=0)
    result = evaluate(model, task, num_batches=20, batch_size=32)
    assert result.routing.num_frames >= 10_000 / 4
    assert result.routing.mi_top1 < 0.05


# --------------------------------------------------------------------------
# routing report invariants


def test_load_fractions_sum_to_two_and_counter_matches():
    task = task_of("quick")
    model = build_model(encoder_of("quick", num_experts=3), task.num_labels, seed=1)
    result = evaluate(model, task, num_batches=5, batch_size=8)
    for layer in result.routing.layers:
        assert layer.load_fractions.sum() == pytest.approx(2.0, abs=1e-12)
        assert layer.counts.sum() == 2 * layer.num_frames
    expected = 2 * result.routing.num_frames * len(model.encoder.moe_layers())
    assert result.routing.activated_evaluations == expected


def test_evaluate_is_tape_free_and_matches_taped_forward(monkeypatch):
    task = task_of("quick")
    model = build_model(encoder_of("quick", num_experts=3), task.num_labels, seed=5)
    logits = TrainedModel.logits
    calls = []

    def recording(self, features, language_ids=None):
        out = logits(self, features, language_ids)
        calls.append((features, out))
        return out

    with monkeypatch.context() as m:
        m.setattr(TrainedModel, "logits", recording)
        evaluate(model, task, num_batches=2, batch_size=4)
    assert len(calls) == 2
    assert all(p.grad is None for _, p in model.parameters())
    for feats, (out, decisions) in calls:
        assert out._parents == () and out._backward is None
        taped, taped_decisions = model.logits(feats)
        assert taped._parents
        np.testing.assert_array_equal(out.data, taped.data)
        assert len(decisions) == len(taped_decisions) == 2
        for a, b in zip(decisions, taped_decisions):
            np.testing.assert_array_equal(a.top2_idx, b.top2_idx)
            np.testing.assert_array_equal(a.gates.data, b.gates.data)


def test_routing_stream_lines():
    task = task_of("quick")
    model = build_model(encoder_of("quick"), task.num_labels, seed=2)
    lines = routing_stream(model, task, num_batches=2, batch_size=4)
    # 2 batches x 2 layers x 2 experts
    assert len(lines) == 8
    assert all(line.startswith("batch=") and "expert=" in line for line in lines)


def test_report_lines_render():
    task = task_of("quick")
    model = build_model(encoder_of("quick"), task.num_labels, seed=3)
    result = evaluate(model, task, num_batches=2, batch_size=4)
    text = "\n".join(result.routing.lines())
    assert "mi_top1=" in text and "loads=" in text


# --------------------------------------------------------------------------
# adapter parity experiment


def paired_configs():
    # the two encoders of configs/desk/compare_quick.cfg. Per layer: gate 48 +
    # one extra expert feed-forward 2376 = 2424; two layers make 4848;
    # adapters at 49 wide cost 98*49 + 48 = 4850
    raw = parse_kv_file(CONFIGS / "desk" / "compare_quick.cfg")
    return (encoder_from_flat(raw, prefix="adapter_encoder."),
            encoder_from_flat(raw, prefix="moe_encoder."))


def test_compare_budgets_verified_by_counter():
    from moeformer.accounting import count_params

    adapter_cfg, moe_cfg = paired_configs()
    a = count_params(adapter_cfg).inference_params
    b = count_params(moe_cfg).inference_params
    assert abs(a - b) / a <= 0.02


def test_compare_runs_and_reports():
    adapter_cfg, moe_cfg = paired_configs()
    task = task_of("quick")
    cfg = TrainConfig(steps=30, batch_size=4, seed=4)
    report = compare_adapter_vs_moe(task, adapter_cfg, moe_cfg, cfg,
                                    eval_batches=3, eval_batch_size=8)
    assert report.budget_gap <= 0.02
    assert report.language_id_independent
    assert report.adapter_usage.sum() > 0
    assert len(report.moe_routing.layers) == 2
    text = "\n".join(report.lines())
    assert "adapter.accuracy=" in text and "moe.accuracy=" in text


def test_compare_language_id_ablation_can_fail(monkeypatch):
    # an expert-routed model that does read the ids it is handed is caught
    forward = EncoderModel.forward

    def id_dependent(self, features, mode="cascaded", language_ids=None):
        if self.config.adapters is None and language_ids is not None:
            features = features + np.asarray(language_ids, dtype=features.dtype)[:, None, None]
        return forward(self, features, mode, language_ids)

    monkeypatch.setattr(EncoderModel, "forward", id_dependent)
    adapter_cfg, moe_cfg = paired_configs()
    cfg = TrainConfig(steps=2, batch_size=4, seed=4)
    report = compare_adapter_vs_moe(task_of("quick"), adapter_cfg, moe_cfg, cfg,
                                    eval_batches=2, eval_batch_size=4)
    assert not report.language_id_independent


def test_compare_rejects_mismatched_budgets():
    moe_cfg = encoder_of("quick")
    lopsided = encoder_of("quick", moe_placement="none", adapter_dim=8, adapter_groups=2)
    with pytest.raises(ConfigError, match="budgets differ"):
        compare_adapter_vs_moe(task_of("quick"), lopsided, moe_cfg,
                               TrainConfig(steps=1))


def test_compare_rejects_wrong_shapes_of_experiment():
    adapter_cfg, moe_cfg = paired_configs()
    with pytest.raises(ConfigError, match="must carry adapters"):
        compare_adapter_vs_moe(task_of("quick"), moe_cfg, moe_cfg, TrainConfig(steps=1))
    with pytest.raises(ConfigError, match="must not carry adapters"):
        compare_adapter_vs_moe(task_of("quick"), adapter_cfg, adapter_cfg,
                               TrainConfig(steps=1))
