"""Training-loop tests: determinism, divergence handling, optimizer sanity,
dense-equivalence of two-expert routing, and balance under a heavy penalty."""

import collections
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from moeformer import ConfigError, ParameterError, TrainingDiverged
from moeformer import tensor as T
from moeformer import training
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


def test_overflow_stops_training_before_the_update(monkeypatch):
    # lr=1e9 on configs/desk/quick.cfg: within 5 steps layer_norm overflows.
    # train refuses the step with its number, before the optimizer updates
    # anything, instead of a numpy warning and finite losses from
    # saturated weights
    opts, kept = [], {}

    class Recorded(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opts.append(self)

    def hook(step, record):
        kept.update(data=opts[0].data.copy(), m=opts[0].m.copy(), v=opts[0].v.copy())

    monkeypatch.setattr(training, "Adam", Recorded)
    raw = parse_kv_file(CONFIGS / "desk" / "quick.cfg")
    cfg = replace(train_from_flat(raw), steps=5, lr=1e9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged) as exc:
            train(encoder_from_flat(raw), task_from_flat(raw), cfg, step_hook=hook)
    message = str(exc.value)
    assert "overflow" in message and len(message.splitlines()) == 1
    step = int(re.search(r" at step (\d+) ", message).group(1))
    assert 0 < step < 5 and opts[0].t == step
    for name in ("data", "m", "v"):
        assert getattr(opts[0], name).tobytes() == kept[name].tobytes(), name


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


def test_training_matches_the_composite_ops_bit_for_bit(monkeypatch):
    # 40 float32 steps of configs/desk/quick.cfg, once on the one-node ops
    # (linear, combine_top2 and both convs, whose gradients land in their
    # arena slots) and once on the composites they replaced
    # (tests/oracles.py): the same metrics and final weights, bit for bit
    raw = parse_kv_file(CONFIGS / "desk" / "quick.cfg")
    enc, task = encoder_from_flat(raw), task_from_flat(raw)
    cfg = replace(train_from_flat(raw), steps=40)
    model, metrics = train(enc, task, cfg)
    calls = collections.Counter()

    def counted(name):
        def op(*args):
            calls[name] += 1
            return getattr(oracles, name)(*args)
        return op

    names = ("linear", "combine_top2", "causal_conv", "causal_depthwise_conv")
    with monkeypatch.context() as m:
        for name in names:
            m.setattr(T, name, counted(name))
        twin, twin_metrics = train(enc, task, cfg)
    assert all(calls[name] >= 40 for name in names), calls
    assert len(metrics) == 40 and metrics == twin_metrics
    for (name, p), (_, q) in zip(model.parameters(), twin.parameters()):
        assert p.data.tobytes() == q.data.tobytes(), name


def test_a_balance_loss_tape_has_one_node_per_linear_layer_and_routed_combine(monkeypatch):
    # the loss of the first configs/desk/balance.cfg step (batch 12) holds
    # 309 nodes with a backward rule. Before the bias add and the slot
    # combine were folded into linear and combine_top2 it held 406: one add
    # more for each of the 81 linear layers, and 4 more nodes (an inverse
    # gather, two reshapes and a product, summed by the one node left) in
    # each of the 4 routed layers
    losses = []
    monkeypatch.setattr(Tensor, "backward", lambda loss: losses.append(loss))
    raw = parse_kv_file(CONFIGS / "desk" / "balance.cfg")
    cfg = replace(train_from_flat(raw), steps=1, batch_size=12, seed=3)
    train(encoder_from_flat(raw), task_from_flat(raw), cfg)
    seen, stack, nodes = set(), list(losses), 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes += node._backward is not None
            stack.extend(node._parents)
    assert nodes == 309


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
    # the norm, parameters and both moments against the textbook per-tensor
    # loop; p1 has no gradient on odd steps, step 5 reuses the previous
    # gradients, p4 is larger than one vector chunk. The arena rounds
    # differently (BLAS dots, the folded step size), so each value is held
    # to a few units of its dtype's eps on its own scale: the norm to 1e-6
    # relative in float32 (measured 1.6e-7) and 1e-12 in float64; m, once
    # converted back from M, to 8 eps times the same moment of |g| (measured
    # 4: m itself can cancel to near 0); v to 16 ulp of itself (measured 9
    # after 12 steps); a parameter to 4 ulp of its tensor's largest
    # magnitude (measured 1)
    rng = np.random.default_rng(11)
    shapes = [(5, 7), (7,), (), (3, 4, 2), (70000,), (6,)]
    init = [rng.standard_normal(s).astype(dtype) for s in shapes]
    flat = [(f"p{i}", Tensor(a.copy(), requires_grad=True)) for i, a in enumerate(init)]
    ref = [(f"p{i}", Tensor(a.copy(), requires_grad=True)) for i, a in enumerate(init)]
    opt = Adam(flat, lr=1e-2, warmup_steps=3)
    oracle = oracles.PerTensorAdam(ref, lr=1e-2, warmup_steps=3)
    eps = np.finfo(dtype).eps
    norm_tol = 1e-6 if dtype == np.float32 else 1e-12
    abs_moment = [np.zeros(s) for s in shapes]  # m's recurrence on |g|, in float64
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
        assert abs(norm - ref_norm) <= norm_tol * ref_norm
        if max_norm and step != 5:  # step 5's reused gradients are clipped already
            assert norm > max_norm
        for i, (_, q) in enumerate(ref):
            if q.grad is not None:
                abs_moment[i] = Adam.beta1 * abs_moment[i] + (1 - Adam.beta1) * np.abs(q.grad)
        assert opt.step() == oracle.step()
        for i, ((_, p), (_, q)) in enumerate(zip(flat, ref)):
            lo, hi = opt.offsets[i], opt.offsets[i + 1]
            m = opt.m[lo:hi].astype(np.float64) * (1 - Adam.beta1)
            v = opt.v[lo:hi].astype(np.float64) * (1 - Adam.beta2)
            want_m, want_v = oracle.m[i].reshape(-1), oracle.v[i].reshape(-1)
            assert p.data.dtype == dtype
            assert np.all(np.abs(p.data - q.data) <= 4 * np.spacing(np.abs(q.data).max())), (step, i)
            assert np.all(np.abs(m - want_m) <= 8 * eps * abs_moment[i].reshape(-1)), (step, i)
            assert np.all(np.abs(v - want_v) <= 16 * eps * want_v), (step, i)


def test_training_matches_the_textbook_optimizer(monkeypatch):
    # 40 float32 steps of configs/desk/quick.cfg, once on the arena's
    # optimizer and once on the per-tensor oracles (float64 squares, the
    # 14-operation Adam). Rounding differs from the first step and the
    # weights carry it: the largest per-step loss gap is 3.6e-7; a
    # step size off by 1% moves the losses by far more than 1e-5
    raw = parse_kv_file(CONFIGS / "desk" / "quick.cfg")
    enc, task = encoder_from_flat(raw), task_from_flat(raw)
    cfg = replace(train_from_flat(raw), steps=40)

    def run():
        _, metrics = train(enc, task, cfg)
        return [m["loss"] for m in metrics]

    arena_losses = run()
    with monkeypatch.context() as m:
        m.setattr(training, "Adam", oracles.PerTensorAdam)
        m.setattr(training, "clip_gradients",
                  lambda opt, max_norm: oracles.per_tensor_clip(opt.params, max_norm))
        textbook_losses = run()
    assert len(arena_losses) == len(textbook_losses) == 40
    assert arena_losses != textbook_losses  # the oracles ran
    for a, b in zip(arena_losses, textbook_losses):
        assert abs(a - b) < 1e-5


def test_a_training_step_gathers_once(monkeypatch):
    calls = []
    gather = Adam._gather

    def counted(self):
        calls.append(self.t)
        return gather(self)

    monkeypatch.setattr(Adam, "_gather", counted)
    train(encoder_of("quick"), task_of("quick"), TrainConfig(steps=3, batch_size=2))
    assert calls == [0, 1, 2]


def _named(*sizes):
    rng = np.random.default_rng(5)
    return [(f"p{i}", Tensor(rng.standard_normal(n).astype(np.float32), requires_grad=True))
            for i, n in enumerate(sizes)]


@pytest.mark.parametrize("late", [
    {1: np.full(4, -2.0, np.float32)},
    {1: None},
    {2: np.full(2, -2.0, np.float32)},
], ids=["replaced", "removed", "added"])
def test_gradient_set_between_clip_and_step_is_honoured(late):
    # clip_gradients plans the step; a gradient set after it reaches the
    # step, bit for bit as on gradients set before the clip
    early = [np.full(3, 0.5, np.float32), np.full(4, 0.5, np.float32), None]
    results = []
    for clip_first in (True, False):
        named = _named(3, 4, 2)
        opt = Adam(named, lr=0.1)
        grads = early if clip_first else [late.get(i, g) for i, g in enumerate(early)]
        for (_, p), g in zip(named, grads):
            p.grad = None if g is None else g.copy()
        if clip_first:
            clip_gradients(opt, 0.0)
            for i, g in late.items():
                named[i][1].grad = None if g is None else g.copy()
        opt.step()
        results.append(opt.data.copy())
    assert results[0].tobytes() == results[1].tobytes()


def test_data_rebound_between_clip_and_step_is_refused():
    named = _named(3, 2)
    opt = Adam(named, lr=0.1)
    for _, p in named:
        p.grad = np.ones(p.shape, np.float32)
    clip_gradients(opt, 1.0)
    named[1][1].data = named[1][1].data.copy()
    with pytest.raises(ParameterError, match="parameter p1 "):
        opt.step()


@pytest.mark.parametrize("clip_norm", [1.0, 0.0])
def test_non_finite_gradient_stops_training_before_the_update(monkeypatch, clip_norm):
    # an inf in one head.w gradient element after the step-3 backward: the
    # step is refused with the step and the parameter named, and the
    # optimizer's parameters and moments stay as step 2 left them
    opts, kept = [], {}
    backward = Tensor.backward

    class Recorded(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opts.append(self)

    def injected(self):
        backward(self)
        opt = opts[0]
        if opt.t == 3:
            opt.params[opt.names.index("head.w")].grad[0, 1] = np.inf

    def hook(step, record):
        kept.update(data=opts[0].data.copy(), m=opts[0].m.copy(), v=opts[0].v.copy())

    monkeypatch.setattr(training, "Adam", Recorded)
    monkeypatch.setattr(Tensor, "backward", injected)
    cfg = TrainConfig(steps=6, batch_size=2, clip_norm=clip_norm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged) as exc:
            train(encoder_of("quick"), task_of("quick"), cfg, step_hook=hook)
    assert str(exc.value) == "non-finite gradient in head.w at step 3"
    opt = opts[0]
    assert opt.t == 3
    for name in ("data", "m", "v"):
        assert getattr(opt, name).tobytes() == kept[name].tobytes(), name


def test_float32_overflowing_squares_still_clip():
    # finite gradients whose float32 squares overflow: the norm comes from
    # float64 squares and clipping proceeds
    named = _named(3, 2)
    opt = Adam(named, lr=0.1)
    big = np.float32(3e19)
    named[0][1].grad = np.full(3, big)
    named[1][1].grad = np.full(2, 1.0, np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = clip_gradients(opt, 1.0)
    assert abs(norm - np.sqrt(3 * float(big) ** 2 + 2)) <= 1e-12 * norm
    assert np.isfinite(opt.grad).all() and abs(np.linalg.norm(opt.grad) - 1.0) < 1e-6


def test_weight_gradients_are_written_into_their_arena_slots():
    # every parameter's gradient (weights, biases, gains, conv taps) is its
    # slot itself, so Adam copies none of them
    model = build_model(encoder_of("quick"), task_of("quick").num_labels, seed=0)
    opt = Adam(model.parameters(), lr=1e-3)
    feats, _, _ = generate_batch(task_of("quick"), np.random.default_rng(1), 2)
    logits, _ = model.logits(feats)
    T.sum_(logits * logits).backward()
    present = [i for i, p in enumerate(opt.params) if p.grad is not None]
    assert sum(opt.params[i].ndim == 1 for i in present) >= 30
    assert sum(opt.params[i].ndim >= 2 for i in present) >= 30
    for i in present:
        assert opt.params[i].grad is opt._grads[i], opt.names[i]


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
