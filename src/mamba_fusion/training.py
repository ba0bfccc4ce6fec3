"""Seeded training loop: decoupled-weight-decay Adam with warmup + cosine decay.

Two runs with identical (config, seed, dataset) produce bitwise-identical
parameters: all randomness flows through seeded generators keyed by
(seed, epoch, sample, modality) and the data order is a seeded shuffle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, backward
from .harness import (CorruptionConfig, corrupt_sample, evaluate_fixed,
                      task_loss_tensor, total_loss)


@dataclass
class TrainConfig:
    lr: float = 1e-4
    epochs: int = 200
    batch_size: int = 64
    warmup_frac: float = 0.05
    lambda_rec: float = 0.7
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    val_every: int = 1

    def __post_init__(self):
        # every rule is false for NaN, so NaN is rejected too
        for name, ok, rule in (
                ("lr", 0 < self.lr < math.inf, "finite and > 0"),
                ("eps", 0 < self.eps < math.inf, "finite and > 0"),
                ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                ("weight_decay", 0 <= self.weight_decay < math.inf,
                 "finite and >= 0"),
                ("warmup_frac", 0 <= self.warmup_frac <= 1, "in [0, 1]"),
                ("lambda_rec", 0 <= self.lambda_rec < math.inf,
                 "finite and >= 0")):
            if not ok:
                raise ValueError(
                    f"{name} must be {rule}, got {getattr(self, name)}")
        for name in ("epochs", "batch_size", "val_every"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")


def lr_at(step, total_steps, base_lr, warmup_frac):
    """Linear warmup over the first warmup_frac of steps, then cosine decay."""
    warmup_steps = max(1, int(round(warmup_frac * total_steps)))
    if step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    progress = (step - warmup_steps) / max(1, total_steps - warmup_steps)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Adam with decoupled weight decay."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.01):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = self.v = None      # allocated by the first step

    def step(self):
        if self.t == 0:
            self.m = [np.zeros_like(p.data) for p in self.params]
            self.v = [np.zeros_like(p.data) for p in self.params]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            # no gradient still decays the moments and the weights
            g = 0.0 if p.grad is None else p.grad
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.data = p.data - self.lr * (
                m_hat / (np.sqrt(v_hat) + self.eps)
                + self.weight_decay * p.data)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


def batch_loss(model, batch, lambda_rec):
    y_hats = []
    recs = []
    for cs in batch:
        y_hat, rec = model.forward(cs.x_t, cs.x_v, cs.x_a,
                                   x_t_clean=cs.clean_x_t, p_t=cs.p_t)
        y_hats.append(y_hat)
        recs.append(rec)
    task = task_loss_tensor(y_hats, [cs.y for cs in batch])
    rec_acc = recs[0]
    for r in recs[1:]:
        rec_acc = rec_acc + r
    rec_mean = rec_acc * (1.0 / len(recs))
    return total_loss(task, rec_mean, lambda_rec), float(task.data)


def train_step(model, opt, batch, lambda_rec, lr):
    """One step on task loss + lambda_rec * reconstruction loss; returns
    (loss, task loss) as floats. The tape is dropped before ``opt.step()``,
    and a parameter the step made non-finite is named in the error."""
    opt.zero_grad()
    with Tape():
        loss, task = batch_loss(model, batch, lambda_rec)
        backward(loss)
    opt.lr = lr
    opt.step()
    bad = next((p.name for p in opt.params
                if not np.isfinite(p.data).all()), None)
    if bad is not None:
        raise FloatingPointError(f"optimizer step made {bad} non-finite")
    return float(loss.data), task


def train(model, train_samples, cfg: TrainConfig, unknown_text_vector,
          valid_samples=()):
    """Train in place; returns a history dict including the loss curve.

    Corruption runs in train-uncertain mode every step. Given a validation
    set, every val_every-th epoch and the last are validated, and the
    parameters achieving the best validation MAE are restored at the end.
    """
    params = model.parameters()
    opt = AdamW(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                eps=cfg.eps, weight_decay=cfg.weight_decay)
    corruption = CorruptionConfig(mode="train_uncertain", seed=cfg.seed)
    order_rng = np.random.default_rng([cfg.seed, 0xD5])
    n = len(train_samples)
    steps_per_epoch = max(1, math.ceil(n / cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch

    history = {"loss": [], "task_loss": [], "lr": [], "val_mae": []}
    best_mae = math.inf
    best_state = None
    step = 0
    for epoch in range(cfg.epochs):
        idx = order_rng.permutation(n)
        for b in range(steps_per_epoch):
            batch_idx = idx[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            batch = [corrupt_sample(train_samples[i], corruption,
                                    unknown_text_vector,
                                    sample_index=int(i), epoch=epoch + 1)
                     for i in batch_idx]
            try:
                loss, task_val = train_step(
                    model, opt, batch, cfg.lambda_rec,
                    lr_at(step, total_steps, cfg.lr, cfg.warmup_frac))
            except FloatingPointError as e:
                raise FloatingPointError(
                    f"training aborted at step {step}: {e}") from e
            history["loss"].append(loss)
            history["task_loss"].append(task_val)
            history["lr"].append(opt.lr)
            step += 1
        if valid_samples and ((epoch + 1) % cfg.val_every == 0
                              or epoch + 1 == cfg.epochs):
            try:
                mae = evaluate_fixed(model, valid_samples,
                                     unknown_text_vector, 0.0)["mae"]
            except FloatingPointError as e:
                raise FloatingPointError(f"training aborted at validation "
                                         f"after step {step - 1}: {e}") from e
            history["val_mae"].append((epoch, mae))
            if mae < best_mae:
                best_mae = mae
                best_state = [(p.name, p.data.copy()) for p in params]
    if best_state is not None:
        for p, (_, data) in zip(params, best_state):
            p.data = data
    history["best_val_mae"] = best_mae
    return history


def loss_curve_csv(history):
    lines = ["step,loss,task_loss,lr"]
    for i, (l, t, r) in enumerate(zip(history["loss"], history["task_loss"],
                                      history["lr"])):
        lines.append(f"{i},{l!r},{t!r},{r!r}")
    return "\n".join(lines) + "\n"
