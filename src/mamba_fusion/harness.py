"""Robustness protocol: corruption simulation, losses, metrics, sweeps.

Corruption replaces a round(r * T_m) subset of positions per modality:
zeros for audio/visual, the dataset's designated unknown-text vector for
text. Training mode draws r per sample per modality from U[0, 1); test
mode uses a fixed r in [0, 0.9]. RNG streams are split per
(seed, epoch, sample, modality) so outcomes are reproducible and
independent of evaluation order. The task loss, the mean squared error of
a batch's predictions, is one tape node over the per-sample predictions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, _check_finite, _record, add, mul

MODALITIES = ("t", "v", "a")
SWEEP_RATES = tuple(round(0.1 * i, 1) for i in range(10))


@dataclass
class CorruptionConfig:
    mode: str = "train_uncertain"   # train_uncertain | test_fixed | complete_missing
    rate: float = 0.0               # used by test_fixed
    missing_modalities: frozenset = frozenset()  # used by complete_missing
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("train_uncertain", "test_fixed", "complete_missing"):
            raise ValueError(f"unknown corruption mode {self.mode!r}")
        if self.mode == "test_fixed" and not (0.0 <= self.rate < 1.0):
            raise ValueError(
                f"test missing rate must lie in [0, 1); got {self.rate} "
                "(r = 1.0 removes everything and is rejected)")
        bad = set(self.missing_modalities) - set(MODALITIES)
        if bad:
            raise ValueError(f"unknown modalities {sorted(bad)}")


@dataclass
class CorruptedSample:
    x_t: np.ndarray
    x_v: np.ndarray
    x_a: np.ndarray
    p_t: np.ndarray
    p_v: np.ndarray
    p_a: np.ndarray
    clean_x_t: np.ndarray
    y: float


def _replace_positions(x, positions, replacement):
    out = x.copy()
    out[positions] = replacement
    return out


def corrupt_sample(sample, cfg, unknown_text_vector, sample_index=0, epoch=0):
    """Corrupt one sample; presence masks mark surviving positions with 1."""
    xs = {}
    masks = {}
    for m_idx, m in enumerate(MODALITIES):
        x = sample.modality(m)
        t_m = x.shape[0]
        rng = np.random.default_rng(
            [cfg.seed, epoch, sample_index, m_idx])
        if cfg.mode == "complete_missing":
            k = t_m if m in cfg.missing_modalities else 0
            positions = np.arange(k)
        else:
            r = rng.uniform(0.0, 1.0) if cfg.mode == "train_uncertain" \
                else cfg.rate
            k = int(round(r * t_m))
            positions = rng.choice(t_m, size=k, replace=False)
        replacement = unknown_text_vector if m == "t" else 0.0
        xs[m] = _replace_positions(x, positions, replacement)
        mask = np.ones(t_m)
        mask[positions] = 0.0
        masks[m] = mask
    return CorruptedSample(xs["t"], xs["v"], xs["a"],
                           masks["t"], masks["v"], masks["a"],
                           sample.x_t, sample.y)


def corrupt_batch(samples, cfg, unknown_text_vector, epoch=0):
    return [corrupt_sample(s, cfg, unknown_text_vector,
                           sample_index=i, epoch=epoch)
            for i, s in enumerate(samples)]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def task_loss_tensor(y_hats, labels):
    """Mean squared error of per-sample prediction Tensors, recorded as one
    tape node; sample i's prediction receives the gradient 2 d_i / n."""
    diffs = [y_hat.data - float(y) for y_hat, y in zip(y_hats, labels)]
    acc = diffs[0] * diffs[0]
    for d in diffs[1:]:
        acc = acc + d * d
    inv_n = 1.0 / len(diffs)
    out = Tensor(acc * inv_n)
    _check_finite("task_loss", out.data)

    def bwd(g):
        g_mean = g * inv_n
        return tuple(2.0 * (g_mean * d) for d in diffs)

    _record(out, tuple(y_hats), bwd)
    return out


def total_loss(task, rec, lam):
    """task + lam * rec for scalar Tensors."""
    if lam < 0:
        raise ValueError("loss weight must be non-negative")
    return add(task, mul(rec, Tensor(float(lam))))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _binary_f1(y_true, y_pred):
    tp = np.sum(y_true & y_pred)
    fp = np.sum(~y_true & y_pred)
    fn = np.sum(y_true & ~y_pred)
    if 2 * tp + fp + fn == 0:
        return 0.0
    return float(2 * tp / (2 * tp + fp + fn))


def _grid_accuracy(y, y_hat, lo, hi):
    a = np.clip(np.rint(y), lo, hi)
    b = np.clip(np.rint(y_hat), lo, hi)
    return float(np.mean(a == b))


def _binned_accuracy(y, y_hat, cuts):
    return float(np.mean(np.digitize(y, cuts) == np.digitize(y_hat, cuts)))


def pearson(y, y_hat):
    """Pearson correlation; (0.0, True) when either side has zero variance."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    sy = y.std()
    sp = y_hat.std()
    if sy == 0.0 or sp == 0.0:
        return 0.0, True
    c = float(np.corrcoef(y, y_hat)[0, 1])
    return c, False


def metrics(y, y_hat, scheme="mosi"):
    """All protocol metrics for one batch of continuous scores.

    scheme "mosi"/"mosei": labels in [-3, 3], class grids by rounding.
    scheme "sims": labels in [-1, 1], five/three-class boundaries at
    +/-0.6, +/-0.2 and +/-0.2 respectively.
    """
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.size == 0:
        raise ValueError("metrics: empty input")
    if y.shape != y_hat.shape:
        raise ValueError("metrics: length mismatch")

    if scheme in ("mosi", "mosei"):
        acc7 = _grid_accuracy(y, y_hat, -3, 3)
        acc5 = _grid_accuracy(np.clip(y, -2, 2), np.clip(y_hat, -2, 2), -2, 2)
        acc3 = _grid_accuracy(np.clip(y, -1, 1), np.clip(y_hat, -1, 1), -1, 1)
    elif scheme == "sims":
        acc7 = float("nan")
        acc5 = _binned_accuracy(y, y_hat, [-0.6, -0.2, 0.2, 0.6])
        acc3 = _binned_accuracy(y, y_hat, [-0.2, 0.2])
    else:
        raise ValueError(f"unknown metric scheme {scheme!r}")

    nz = y != 0
    if np.any(nz):
        acc2_pos = float(np.mean((y[nz] > 0) == (y_hat[nz] > 0)))
        f1_pos = _binary_f1(y[nz] > 0, y_hat[nz] > 0)
    else:
        acc2_pos = 0.0
        f1_pos = 0.0
    acc2_nonneg = float(np.mean((y >= 0) == (y_hat >= 0)))
    f1_nonneg = _binary_f1(y >= 0, y_hat >= 0)
    corr, degenerate = pearson(y, y_hat)
    return {
        "acc7": acc7, "acc5": acc5, "acc3": acc3,
        "acc2_pos": acc2_pos, "acc2_nonneg": acc2_nonneg,
        "f1_pos": f1_pos, "f1_nonneg": f1_nonneg,
        "mae": float(np.mean(np.abs(y - y_hat))),
        "corr": corr,
        "corr_degenerate": float(degenerate),
    }


# ---------------------------------------------------------------------------
# Missing-rate sweep
# ---------------------------------------------------------------------------

_REPORT_FIELDS = ("acc7", "acc5", "acc3", "acc2_pos", "acc2_nonneg",
                  "f1_pos", "f1_nonneg", "mae", "corr", "corr_degenerate")


@dataclass
class MetricsReport:
    rows: list = field(default_factory=list)   # dicts with an "r" key
    averaged: dict = field(default_factory=dict)

    def compute_average(self):
        self.averaged = {"r": "avg"}
        for k in _REPORT_FIELDS:
            self.averaged[k] = float(np.mean([row[k] for row in self.rows]))

    def to_csv(self):
        header = ("r",) + _REPORT_FIELDS
        lines = [",".join(header)]
        for row in self.rows + [self.averaged]:
            lines.append(",".join(str(row[k]) for k in header))
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps({"rows": self.rows, "averaged": self.averaged},
                          indent=2, sort_keys=True)


def evaluate_fixed(model, samples, unknown_text_vector, rate, seed=0,
                   scheme="mosi"):
    cfg = CorruptionConfig(mode="test_fixed", rate=rate, seed=seed)
    preds = []
    for i, s in enumerate(samples):
        cs = corrupt_sample(s, cfg, unknown_text_vector, sample_index=i)
        preds.append(model.predict(cs.x_t, cs.x_v, cs.x_a))
    labels = [s.y for s in samples]
    return metrics(labels, preds, scheme=scheme)


def evaluate_sweep(model, samples, unknown_text_vector, seed=0, scheme="mosi"):
    """Fixed-rate evaluation at r = 0.0 ... 0.9 plus the averaged row."""
    report = MetricsReport()
    for r in SWEEP_RATES:
        row = {"r": r}
        row.update(evaluate_fixed(model, samples, unknown_text_vector, r,
                                  seed=seed, scheme=scheme))
        report.rows.append(row)
    report.compute_average()
    return report
