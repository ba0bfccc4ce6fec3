"""Tests for the optimizer, schedule, and the deterministic training loop."""

import numpy as np
import pytest

from mamba_fusion.autodiff import Parameter, Tape, backward, mul
from mamba_fusion.datagen import generate
from mamba_fusion.harness import evaluate_fixed
from mamba_fusion.model import build_model
from mamba_fusion.training import AdamW, TrainConfig, loss_curve_csv, lr_at, train
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
    opt.step()   # grad is zero; only decay applies
    np.testing.assert_allclose(p.data, 2.0 - 0.1 * 0.5 * 2.0, rtol=1e-12)


def test_adamw_first_step_moves_against_gradient_by_lr():
    p = Parameter(np.array([1.0]), name="p")
    opt = AdamW([p], lr=0.01, weight_decay=0.0)
    p.grad = np.array([3.0])
    opt.step()
    # bias-corrected first Adam step has unit magnitude
    np.testing.assert_allclose(p.data, 1.0 - 0.01, rtol=1e-6)


def test_adamw_descends_a_quadratic():
    p = Parameter(np.array([4.0, -3.0]), name="p")
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    for _ in range(200):
        opt.zero_grad()
        with Tape():
            backward(sum_(mul(p, p)))
        opt.step()
    assert np.all(np.abs(p.data) < 0.1)


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


def test_best_validation_state_is_restored(tiny_setup):
    ds, cfg = tiny_setup
    model = build_model("desk", seed=1)
    history = train(model, ds.samples[:6], cfg, ds.unknown_text_vector,
                    valid_samples=ds.samples[6:])
    restored = evaluate_fixed(model, ds.samples[6:], ds.unknown_text_vector,
                              0.0)["mae"]
    assert restored == history["best_val_mae"]
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
