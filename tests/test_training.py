"""Training-loop tests: determinism, divergence handling, optimizer sanity,
dense-equivalence of two-expert routing, and balance under a heavy penalty."""

from dataclasses import replace

import numpy as np
import pytest

from moeformer import ConfigError, ParameterError, TrainingDiverged
from moeformer import tensor as T
from moeformer.config import encoder_from_flat, parse_kv_file
from moeformer.moe import ExpertFFN, MoELayer
from moeformer.synth import generate_batch, task_from_flat
from moeformer.tensor import Tensor
from moeformer.training import (
    Adam,
    TrainConfig,
    build_model,
    clip_gradients,
    metrics_line,
    train,
    train_from_flat,
    write_metrics,
)

import oracles
from geometry import CONFIGS, encoder_of, task_of


def test_metrics_deterministic_across_runs(tmp_path):
    cfg = TrainConfig(steps=8, batch_size=2, seed=7)
    _, m1 = train(encoder_of("quick"), task_of("quick"), cfg)
    _, m2 = train(encoder_of("quick"), task_of("quick"), cfg)
    lines1 = [metrics_line(m) for m in m1]
    lines2 = [metrics_line(m) for m in m2]
    assert lines1 == lines2

    write_metrics(m1, tmp_path / "a.txt")
    write_metrics(m2, tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergence_aborts_with_diagnostic():
    cfg = TrainConfig(steps=60, batch_size=2, lr=1e9, warmup_steps=1, seed=0)
    with pytest.raises(TrainingDiverged, match="step"):
        train(encoder_of("quick"), task_of("quick"), cfg)


def test_single_language_single_pair_learns_below_uniform_loss():
    # two experts on one language: loss must beat ln(num_labels) well inside
    # the 500-step budget
    task = task_of("quick", languages=1)
    cfg = TrainConfig(steps=300, batch_size=4, lr=3e-3, warmup_steps=50,
                      aux_weight=0.0, seed=1)
    _, metrics = train(encoder_of("quick"), task, cfg)
    uniform = float(np.log(task.num_labels))
    assert metrics[-1]["loss"] < uniform
    assert min(m["step"] for m in metrics if m["loss"] < uniform) <= 500


def test_two_expert_routing_equals_dense_mixture_training(monkeypatch):
    # identical seeds, one model on the routed path and one on the dense
    # oracle path: per-step losses agree to 1e-5 (64-bit run keeps drift out
    # of the check)
    task = task_of("quick")
    enc = encoder_of("quick")
    steps = 60

    def run():
        cfg = TrainConfig(steps=steps, batch_size=2, seed=5, dtype="float64",
                          aux_weight=0.0)
        _, metrics = train(enc, task, cfg)
        return [m["loss"] for m in metrics]

    sparse_losses = run()
    with monkeypatch.context() as m:
        m.setattr(MoELayer, "forward", oracles.dense_moe_forward)
        dense_losses = run()
    for a, b in zip(sparse_losses, dense_losses):
        assert abs(a - b) < 1e-5


def test_flat_matmul_training_matches_batched_oracle(monkeypatch):
    # 40 float32 steps of configs/desk/quick.cfg, once on the flat matmul and
    # once on the per-sequence products of oracles.batched_matmul. Only the
    # gradients' rounding differs (one GEMM sums the rows in another order),
    # and the weights carry it from step to step: the largest per-step loss
    # gap is 3.6e-7. 1e-5 leaves a margin of about 30x; a matmul backward
    # that drops one frame's gradient moves the losses by 0.06
    raw = parse_kv_file(CONFIGS / "desk" / "quick.cfg")
    enc, task = encoder_from_flat(raw), task_from_flat(raw)
    cfg = replace(train_from_flat(raw), steps=40)

    def run():
        _, metrics = train(enc, task, cfg)
        return [m["loss"] for m in metrics]

    flat_losses = run()
    calls = []

    def batched(a, b):
        calls.append(a.shape)
        return oracles.batched_matmul(a, b)

    with monkeypatch.context() as m:
        m.setattr(T, "matmul", batched)
        batched_losses = run()
    assert calls and len(flat_losses) == len(batched_losses) == 40
    for a, b in zip(flat_losses, batched_losses):
        assert abs(a - b) < 1e-5


def test_large_aux_weight_drives_balance():
    enc = encoder_of("quick", num_experts=4, noncausal_dims="24", right_contexts="3")
    task = task_of("quick")
    cfg = TrainConfig(steps=250, batch_size=4, lr=3e-3, warmup_steps=50,
                      aux_weight=10.0, seed=2)
    _, metrics = train(enc, task, cfg)
    # per-batch loads fluctuate with tiny batches; judge the routing itself by
    # the mean load over the tail of training
    tail = metrics[-100:]
    loads = [np.mean([m[f"load0_{e}"] for m in tail]) for e in range(4)]
    # max load approaches the 2/N fair share within 20%
    assert max(loads) <= (2 / 4) * 1.2


def test_task_encoder_mismatches_rejected():
    with pytest.raises(ConfigError, match="feature_dim"):
        train(encoder_of("quick"), task_of("quick", feature_dim=12), TrainConfig(steps=1))
    with pytest.raises(ConfigError, match="downsample"):
        train(encoder_of("quick"), task_of("quick", frames_per_token=2), TrainConfig(steps=1))


def test_adapter_group_count_must_match_languages():
    enc = encoder_of("quick", moe_placement="none", adapter_dim=8, adapter_groups=3)
    with pytest.raises(ConfigError, match="adapter groups"):
        train(enc, task_of("quick", languages=2), TrainConfig(steps=1))


def test_warmup_schedule():
    p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    opt = Adam([("p", p)], lr=1.0, warmup_steps=4)
    lrs = []
    for _ in range(6):
        p.grad = np.ones(3, dtype=np.float32)
        lrs.append(opt.step())
    assert lrs == [0.25, 0.5, 0.75, 1.0, 1.0, 1.0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("max_norm", [0.0, 0.5])
def test_flat_adam_matches_per_tensor_oracle(dtype, max_norm):
    # parameters and both moments bit for bit against the per-tensor loop;
    # p1 has no gradient on odd steps, step 5 reuses the previous gradients,
    # p4 is larger than one vector chunk
    rng = np.random.default_rng(11)
    shapes = [(5, 7), (7,), (), (3, 4, 2), (40000,), (6,)]
    init = [rng.standard_normal(s).astype(dtype) for s in shapes]
    flat = [(f"p{i}", Tensor(a.copy(), requires_grad=True)) for i, a in enumerate(init)]
    ref = [(f"p{i}", Tensor(a.copy(), requires_grad=True)) for i, a in enumerate(init)]
    opt = Adam(flat, lr=1e-2, warmup_steps=3)
    oracle = oracles.PerTensorAdam(ref, lr=1e-2, warmup_steps=3)
    for step in range(12):
        for i, ((_, p), (_, q)) in enumerate(zip(flat, ref)):
            if step == 5:  # keep the previous step's gradients
                continue
            if i == 1 and step % 2:
                p.grad = q.grad = None
            else:
                g = (rng.standard_normal(shapes[i]) * rng.uniform(0.01, 2.0)).astype(dtype)
                p.grad, q.grad = g.copy(), g.copy()
        norm = clip_gradients(opt, max_norm)
        ref_norm = oracles.per_tensor_clip([q for _, q in ref], max_norm)
        assert abs(norm - ref_norm) <= 1e-12 * ref_norm
        if max_norm and step != 5:  # step 5's reused gradients are clipped already
            assert norm > max_norm
        assert opt.step() == oracle.step()
        for i, ((_, p), (_, q)) in enumerate(zip(flat, ref)):
            lo, hi = opt.offsets[i], opt.offsets[i + 1]
            assert p.data.dtype == dtype
            assert p.data.tobytes() == q.data.tobytes(), (step, i)
            assert opt.m[lo:hi].tobytes() == oracle.m[i].tobytes(), (step, i)
            assert opt.v[lo:hi].tobytes() == oracle.v[i].tobytes(), (step, i)


def test_weight_gradients_are_written_into_their_arena_slots():
    # every matmul and conv weight's gradient is its slot itself, so Adam
    # copies none of them; a bias or gain arrives as its own array
    model = build_model(encoder_of("quick"), task_of("quick").num_labels, seed=0)
    opt = Adam(model.parameters(), lr=1e-3)
    feats, _, _ = generate_batch(task_of("quick"), np.random.default_rng(1), 2)
    logits, _ = model.logits(feats)
    T.sum_(logits * logits).backward()
    weights = [i for i, (name, p) in enumerate(zip(opt.names, opt.params))
               if p.ndim >= 2 and not name.endswith("dw.w") and p.grad is not None]
    assert len(weights) >= 30
    for i in weights:
        assert opt.params[i].grad is opt._grads[i], opt.names[i]
    assert all(p.grad is not opt._grads[i] for i, p in enumerate(opt.params) if p.ndim == 1)


@pytest.mark.parametrize("case", ["once", "shared_weight", "second_backward"])
def test_gradient_slots_match_the_copy_path(case):
    # a weight used in two matmuls, a second backward without zero_grad and
    # experts that receive no rows: gradients, clipping and the step equal,
    # bit for bit, those of gradients that all arrive as fresh arrays and
    # are copied into the arena
    results = []
    for slots in (True, False):
        rng = np.random.default_rng(8)

        def leaf(*shape):
            return Tensor((0.3 * rng.standard_normal(shape)).astype(np.float32),
                          requires_grad=True)

        w = leaf(6, 6)
        gate = Tensor(np.zeros((6, 4), np.float32), requires_grad=True)  # ties: experts 0, 1
        experts = [ExpertFFN(leaf(6, 8), leaf(8), leaf(8, 6), leaf(6)) for _ in range(4)]
        named = [("w", w), ("gate", gate)] + [
            (f"e{i}.{k}", getattr(e, k))
            for i, e in enumerate(experts) for k in ("w1", "b1", "w2", "b2")]
        opt = Adam(named, lr=1e-2)
        if not slots:
            for p in opt.params:
                p.grad_slot = None
        xs = [Tensor(rng.standard_normal((3, 5, 6)).astype(np.float32)) for _ in range(2)]

        def loss(x):
            h = T.matmul(x, w)
            if case == "shared_weight":
                h = T.matmul(T.swish(h), w)
            y, _ = MoELayer(gate, experts).forward(T.reshape(h, (15, 6)))
            return T.sum_(y * y)

        loss(xs[0]).backward()
        if case == "second_backward":
            loss(xs[1]).backward()
        assert (w.grad is opt._grads[0]) == (slots and case == "once")
        grads = [None if p.grad is None else p.grad.copy() for p in opt.params]
        clip_gradients(opt, 0.5)
        opt.step()
        results.append((grads, opt.data.copy()))
    (grads, data), (want_grads, want_data) = results
    for name, got, want in zip(opt.names, grads, want_grads):
        assert (got is None) == (want is None) == name.startswith(("e2.", "e3.")), name
        assert got is None or got.tobytes() == want.tobytes(), name
    assert data.tobytes() == want_data.tobytes()


def test_training_with_gradient_slots_matches_the_copy_path(monkeypatch):
    # five micro steps (matmuls, input convs, experts) with and without the
    # slot writes: the same metric lines and weights, bit for bit
    cfg = TrainConfig(steps=5, batch_size=3, seed=4, clip_norm=0.5)
    model, metrics = train(encoder_of("quick"), task_of("quick"), cfg)
    monkeypatch.setattr(T, "_grad_out", lambda t, dtype: None)
    twin, twin_metrics = train(encoder_of("quick"), task_of("quick"), cfg)
    assert [metrics_line(m) for m in metrics] == [metrics_line(m) for m in twin_metrics]
    for (name, p), (_, q) in zip(model.parameters(), twin.parameters()):
        assert p.data.tobytes() == q.data.tobytes(), name


def test_rebound_parameter_data_is_rejected():
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    opt = Adam([("a", a), ("b", b)], lr=0.1)
    assert np.shares_memory(a.data, opt.data) and np.shares_memory(b.data, opt.data)
    b.data = b.data.copy()  # updates would no longer reach b
    a.grad = np.ones(3, dtype=np.float32)
    b.grad = np.ones(2, dtype=np.float32)
    with pytest.raises(ParameterError, match="parameter b ") as exc:
        opt.step()
    assert len(str(exc.value).splitlines()) == 1
    with pytest.raises(ParameterError, match="parameter b "):
        clip_gradients(opt, 1.0)
