"""Tests for the optimizer, schedule, and the deterministic training loop."""

import dataclasses
import gc

import numpy as np
import pytest

from mamba_fusion import autodiff
from mamba_fusion.autodiff import Parameter, Tape, backward, mul
from mamba_fusion.datagen import generate
from mamba_fusion.harness import (
    CorruptionConfig, corrupt_batch, evaluate_fixed,
)
from mamba_fusion.model import build_model
from mamba_fusion.training import (
    AdamW, TrainConfig, loss_curve_csv, lr_at, train, train_step,
)
from oracles import sum_


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------

def test_lr_warms_up_linearly_then_decays():
    total, base = 1000, 1e-4
    warmup = int(0.05 * total)
    lrs = [lr_at(s, total, base, 0.05) for s in range(total)]
    assert lrs[0] < base                       # first step is scaled down
    assert lrs[0] == pytest.approx(base / warmup)
    assert lrs[warmup - 1] == pytest.approx(base)   # warmup end hits base
    assert max(lrs) == pytest.approx(base)
    # strictly decreasing after warmup (cosine)
    post = lrs[warmup:]
    assert all(b <= a for a, b in zip(post, post[1:]))
    assert post[-1] < 0.01 * base


def test_lr_schedule_is_deterministic():
    assert lr_at(17, 400, 3e-3, 0.05) == lr_at(17, 400, 3e-3, 0.05)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def test_adamw_decoupled_decay_shrinks_params_with_zero_grads():
    p = Parameter(np.full(3, 2.0), name="p")
    opt = AdamW([p], lr=0.1, weight_decay=0.5)
    opt.step()   # no gradient is held; only decay applies
    np.testing.assert_allclose(p.data, 2.0 - 0.1 * 0.5 * 2.0, rtol=1e-12)


def test_adamw_first_step_moves_against_gradient_by_lr():
    p = Parameter(np.array([1.0]), name="p")
    opt = AdamW([p], lr=0.01, weight_decay=0.0)
    p.grad = np.array([3.0])
    opt.step()
    # bias-corrected first Adam step has unit magnitude
    np.testing.assert_allclose(p.data, 1.0 - 0.01, rtol=1e-6)


def test_parameter_the_loss_does_not_reach_holds_no_gradient():
    used = Parameter(np.array([1.0, 2.0]), name="used")
    unused = Parameter(np.array([3.0]), name="unused")
    with Tape():
        backward(sum_(mul(used, used)))
    np.testing.assert_array_equal(used.grad, [2.0, 4.0])
    assert unused.grad is None


def test_adamw_steps_a_missing_gradient_as_zeros_bitwise():
    # no gradient still decays the moments and the weights, byte for byte
    # as a zero array would
    first = np.array([-0.0, 0.0, 1.5, -2e-3])
    twins = []
    for second in (None, np.zeros(4)):
        p = Parameter(np.array([0.5, -1.0, 2.0, 0.0]), name="p")
        opt = AdamW([p], lr=0.01, weight_decay=0.1)
        p.grad = first.copy()
        opt.step()
        p.grad = None if second is None else second.copy()
        opt.step()
        twins.append([a.tobytes() for a in (p.data, opt.m[0], opt.v[0])])
    assert twins[0] == twins[1]


def test_adamw_allocates_its_moments_at_the_first_step():
    # a set-up that builds an optimizer holds no zeroed moments (62 MiB at
    # mosi) until the first step needs them
    import tracemalloc
    params = build_model("mosi", seed=0).parameters()
    tracemalloc.start()
    try:
        opt = AdamW(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"
    opt.step()
    assert [m.shape for m in opt.m] == [p.shape for p in params]
    assert [v.shape for v in opt.v] == [p.shape for p in params]
    empty = AdamW([])
    empty.step()
    empty.step()
    assert empty.t == 2


def test_adamw_descends_a_quadratic():
    p = Parameter(np.array([4.0, -3.0]), name="p")
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    for _ in range(200):
        opt.zero_grad()
        with Tape():
            backward(sum_(mul(p, p)))
        opt.step()
    assert np.all(np.abs(p.data) < 0.1)


def test_desk_training_step_peak_memory():
    # one step of a batch of 8: zero_grad releases the last step's
    # gradients, each first backward contribution becomes a gradient as it
    # is, backward frees each node's saved arrays once its backward
    # function has run, and each BiMamba call is one node that saves its
    # input projection once, as the views u and z, and each direction's
    # SiLU output but not its conv output, its sigmoid or a time-flipped
    # copy of its input, which puts the peak at about 7.2 MiB; recording
    # the block as 13 nodes, which save copies of u and z and keep the
    # intermediate outputs, takes it to about 8.7
    import tracemalloc
    model = build_model("desk", seed=0)
    ds = generate(8, seed=1)
    opt = AdamW(model.parameters())

    def step(epoch):
        batch = corrupt_batch(ds.samples, CorruptionConfig(seed=1),
                              ds.unknown_text_vector, epoch=epoch)
        train_step(model, opt, batch, 0.7, 1e-4)

    step(1)          # the moments and the last step's gradients are held
    tracemalloc.start()
    try:
        step(2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8.0 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_train_step_drops_the_tape_before_the_optimizer_step():
    # a tape kept alive through AdamW.step would hold every node's output
    # and inputs while the step allocates new parameters and moments
    model = build_model("desk", seed=0)
    ds = generate(2, seed=1)
    batch = corrupt_batch(ds.samples, CorruptionConfig(seed=1),
                          ds.unknown_text_vector)
    opt = AdamW(model.parameters())
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, Tape)]
    seen = []
    step = opt.step

    def checked_step():
        tapes = [o for o in gc.get_objects()
                 if isinstance(o, Tape) and o not in before]
        seen.append((autodiff._active_tape, len(tapes)))
        step()

    opt.step = checked_step
    train_step(model, opt, batch, 0.7, 1e-4)
    assert seen == [(None, 0)]


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_setup():
    ds = generate(8, seed=21)
    cfg = TrainConfig(lr=1e-3, epochs=3, batch_size=4, seed=5, lambda_rec=0.7)
    return ds, cfg


def test_same_seed_trains_to_bitwise_identical_parameters(tiny_setup):
    ds, cfg = tiny_setup
    states = []
    for _ in range(2):
        model = build_model("desk", seed=cfg.seed)
        train(model, ds.samples, cfg, ds.unknown_text_vector)
        states.append({name: arr.copy() for name, arr in model.state_arrays()})
    assert states[0].keys() == states[1].keys()
    for name in states[0]:
        assert np.array_equal(states[0][name], states[1][name]), name


def test_training_reduces_loss(tiny_setup):
    ds, _ = tiny_setup
    model = build_model("desk", seed=0)
    cfg = TrainConfig(lr=2e-3, epochs=25, batch_size=8, seed=0,
                      lambda_rec=0.7)
    history = train(model, ds.samples, cfg, ds.unknown_text_vector)
    first = np.mean(history["loss"][:3])
    last = np.mean(history["loss"][-3:])
    assert last < first


@pytest.mark.parametrize("val_every, validated", [
    (1, [0, 1, 2]), (2, [1, 2]), (5, [2])],
    ids=["every-1", "every-2", "every-5"])
def test_best_validation_state_is_restored(tiny_setup, val_every, validated):
    # the last epoch is validated whether or not val_every divides it
    ds, cfg = tiny_setup
    cfg = dataclasses.replace(cfg, val_every=val_every)
    model = build_model("desk", seed=1)
    history = train(model, ds.samples[:6], cfg, ds.unknown_text_vector,
                    valid_samples=ds.samples[6:])
    restored = evaluate_fixed(model, ds.samples[6:], ds.unknown_text_vector,
                              0.0)["mae"]
    assert restored == history["best_val_mae"]
    assert [epoch for epoch, _ in history["val_mae"]] == validated
    assert history["best_val_mae"] == min(m for _, m in history["val_mae"])


def test_non_finite_loss_aborts_with_step_index(tiny_setup):
    ds, cfg = tiny_setup
    model = build_model("desk", seed=2)
    # blow up one projection so the forward pass overflows immediately
    model.head.w.data = np.full_like(model.head.w.data, 1e300)
    model.align_t.w.data *= 1e40
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(FloatingPointError, match="step 0"):
            train(model, ds.samples, cfg, ds.unknown_text_vector)


def test_loss_curve_csv_shape(tiny_setup):
    ds, cfg = tiny_setup
    model = build_model("desk", seed=3)
    history = train(model, ds.samples, cfg, ds.unknown_text_vector)
    text = loss_curve_csv(history)
    lines = text.strip().split("\n")
    assert lines[0] == "step,loss,task_loss,lr"
    assert len(lines) == 1 + len(history["loss"])


def test_lambda_must_be_non_negative():
    with pytest.raises(ValueError):
        TrainConfig(lambda_rec=-0.1)
