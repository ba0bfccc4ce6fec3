"""Text-aware modality enhancement.

Aligns every modality to a common L x D grid, enriches audio/visual tokens
with text tokens selected by thresholded cosine similarity (the similarity
and the enrichment one tape node each), and reconstructs raw text features
at missing positions under a masked Smooth-L1 objective, recorded as one
tape node whose gradient is the clipped difference clip(d, -1, 1).
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    Module, Parameter, Tensor, _check_finite, _count_macs, _record,
    _softmax_grad_np, _softmax_np, add, matmul, no_grad, relu,
)


def resample_matrix(t_in, t_out):
    """Monotonic linear time-resampling weights, shape (t_out, t_in).

    Row i interpolates the input at position i*(t_in-1)/(t_out-1); rows
    sum to 1, so constants in time are preserved exactly.
    """
    if t_in < 1:
        raise ValueError("cannot resample an empty sequence")
    w = np.zeros((t_out, t_in))
    if t_in == 1 or t_out == 1:
        if t_out == 1:
            w[0, (t_in - 1) // 2] = 1.0
        else:
            w[:, 0] = 1.0
        return w
    for i in range(t_out):
        pos = i * (t_in - 1) / (t_out - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, t_in - 1)
        frac = pos - lo
        w[i, lo] += 1.0 - frac
        w[i, hi] += frac
    return w


class Aligner(Module):
    """Fixed linear time-resampling followed by a learned feature projection."""

    def __init__(self, t_in, d_in, length, d_model, rng, name="align"):
        self.resample = Tensor(resample_matrix(t_in, length))
        s = 1.0 / np.sqrt(d_in)
        self.w = Parameter(rng.uniform(-s, s, size=(d_in, d_model)),
                           name=f"{name}.w")
        # small nonzero bias so fully-zeroed (missing) positions do not map
        # to zero-norm tokens, which would break cosine similarity
        self.b = Parameter(rng.uniform(-0.01, 0.01, size=d_model),
                           name=f"{name}.b")

    def __call__(self, x):
        if x.shape[0] < 1:
            raise ValueError("cannot align an empty sequence")
        # the fixed resampling of input data records no node and no gradient
        with no_grad():
            x = matmul(self.resample, x)
        return add(matmul(x, self.w), self.b)


def _l2_normalize_np(a, eps=1e-12):
    """The rows of a scaled to unit L2 norm, and the norms; a row of norm
    below eps raises."""
    norm = np.sqrt((a ** 2).sum(axis=-1, keepdims=True))
    if np.any(norm < eps):
        raise FloatingPointError("l2_normalize_lastdim: zero-norm row")
    _count_macs(a.size)
    return a / norm, norm


def _l2_normalize_grad_np(g, y, norm):
    """g through y = a / norm: the gradient of a."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    return (g - y * dot) / norm


def token_similarity(h_x, h_t, tau):
    """Row-stochastic similarity between token sets, as one tape node.

    Rows are a softmax over text tokens of cosine similarity divided by
    the temperature tau. The node keeps the float operations, operand
    layouts, MAC counts and finite checks of two L2 normalizations, a
    transpose, a matmul and the softmax recorded one node each, and holds
    the normalized tokens and their norms.
    """
    if tau <= 0:
        raise ValueError("temperature must be positive")
    tau = float(tau)
    xn, x_norm = _l2_normalize_np(h_x.data)
    tn, t_norm = _l2_normalize_np(h_t.data)
    # over a contiguous transposed copy, as the transpose node made
    z = xn @ tn.T.copy()
    _check_finite("matmul", z)
    _count_macs(z.size * xn.shape[1])
    z /= tau
    _check_finite("softmax_lastdim", z)
    _count_macs(z.size)
    s = _softmax_np(z)
    out = Tensor(s)

    def bwd(g):
        dz = _softmax_grad_np(g, s, tau)
        # each product in the operand layouts the matmul node's backward had
        dxn = dz @ tn.T.copy().T
        dtn = (xn.T @ dz).T
        return (_l2_normalize_grad_np(dtn, tn, t_norm),
                _l2_normalize_grad_np(dxn, xn, x_norm))

    # the text tokens' normalization was the later node, so it was reached
    # first
    _record(out, (h_t, h_x), bwd)
    return out


def threshold_mask(s, length):
    """Binary mask keeping entries strictly above the 1/length threshold.

    The mask is a constant in backward (no straight-through estimator).
    """
    theta = 1.0 / length
    return Tensor((s.data > theta).astype(np.float64))


def enhance(h_x, s, m, h_t):
    """h_x + (m o s) . h_t with the mask treated as a constant, as one tape
    node holding the mask; its backward recomputes m o s."""
    if s.shape != m.shape or h_x.shape != h_t.shape:
        raise ValueError(
            f"enhance: shape mismatch S{s.shape} M{m.shape} "
            f"H_x{h_x.shape} H_t{h_t.shape}")
    mask = m.data
    masked = mask * s.data
    _check_finite("mul", masked)
    _count_macs(masked.size)
    out = masked @ h_t.data
    _check_finite("matmul", out)
    _count_macs(out.size * masked.shape[1])
    out += h_x.data
    _check_finite("add", out)
    out = Tensor(out)

    def bwd(g):
        dmasked = g @ h_t.data.T
        return g, (mask * s.data).T @ g, dmasked * mask

    _record(out, (h_x, h_t, s), bwd)
    return out


class TextReconstructor(Module):
    """Two linear layers with a ReLU, mapping L x D back to raw text features."""

    def __init__(self, d_model, d_raw, rng, name="recon"):
        s1 = 1.0 / np.sqrt(d_model)
        self.w1 = Parameter(rng.uniform(-s1, s1, size=(d_model, d_model)),
                            name=f"{name}.w1")
        self.b1 = Parameter(np.zeros(d_model), name=f"{name}.b1")
        self.w2 = Parameter(rng.uniform(-s1, s1, size=(d_model, d_raw)),
                            name=f"{name}.w2")
        self.b2 = Parameter(np.zeros(d_raw), name=f"{name}.b2")

    def __call__(self, h_t):
        hidden = relu(add(matmul(h_t, self.w1), self.b1))
        return add(matmul(hidden, self.w2), self.b2)


def recon_loss(x_t_clean, x_tilde, p_t):
    """Mean Smooth-L1 (beta = 1) over missing text positions (p_t == 0) and
    features, as one tape node.

    With d = (x_tilde - x_t_clean) * gate, gate 1 at missing positions, a
    cell costs 0.5 d^2 where |d| < 1 and |d| - 0.5 elsewhere. The gradient
    with respect to x_tilde is clip(d, -1, 1), which vanishes at observed
    positions as d does; the loss is exactly zero when all are observed.
    """
    if x_t_clean.shape != x_tilde.shape:
        raise ValueError("recon_loss: prediction/target shape mismatch")
    missing = 1.0 - np.asarray(p_t, dtype=np.float64).reshape(-1)
    n_missing = missing.sum()
    if n_missing == 0:
        return Tensor(0.0)
    gate = missing[:, None]
    scale = 1.0 / (n_missing * x_tilde.shape[1])
    d = (x_tilde.data - x_t_clean.data) * gate
    abs_d = np.abs(d)
    cell = np.where(abs_d < 1.0, d * d * 0.5, abs_d - 0.5)
    out = Tensor(cell.sum() * scale)
    _check_finite("recon_loss", out.data)

    def bwd(g):
        return ((g * scale) * np.clip(d, -1.0, 1.0),)

    _record(out, (x_tilde,), bwd)
    return out
