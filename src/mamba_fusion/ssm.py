"""Selective state-space machinery.

Zero-order-hold discretization (``_zoh``), one numpy sweep per evaluation
order of the linear recurrence (``SWEEPS``) with one in-place
backward-in-time sweep as the adjoint of both, the selective scan and the
causal conv as fused tape nodes, and the bidirectional block every fusion
stage is built from. The default order, "recurrent", sweeps step by step in
L - 1 multiplies per column; the "parallel" doubling-stride prefix scan
makes 2 L ceil(log2 L).

The state matrix is diagonal per channel, so discretization has the exact
closed forms a_bar = exp(delta*a) and b_bar = ((exp(delta*a) - 1)/a) * b.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    Module, Parameter, Tensor, _check_finite, _count_macs, _record,
    _sigmoid_np, add, flip_time, layer_norm, matmul, mul, no_grad, silu,
    slicer,
)


def _uniform(rng, shape, scale):
    return rng.uniform(-scale, scale, size=shape)


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

def _zoh(a, delta):
    """Exact zero-order hold for a diagonal state matrix, in numpy.

    Returns a_bar = exp(delta*a) and q = (a_bar - 1)/a, so that
    b_bar = q*b. a must be elementwise negative, delta elementwise
    positive; shapes broadcast.
    """
    if np.any(a >= 0):
        raise ValueError("discretize: state matrix must be strictly negative")
    if np.any(delta <= 0):
        raise ValueError("discretize: step size must be strictly positive")
    a_bar = np.exp(delta * a)
    q = a_bar - 1.0
    q /= a
    return a_bar, q


# ---------------------------------------------------------------------------
# Linear recurrence evaluation
# ---------------------------------------------------------------------------

def _scan_forward_sequential(a, b):
    h = np.empty_like(b)
    h[0] = b[0]
    for t in range(1, a.shape[0]):
        h[t] = a[t] * h[t - 1] + b[t]
    finite = np.isfinite(h).reshape(len(h), -1).all(axis=1)
    if not finite.all():
        raise FloatingPointError(
            f"recurrence diverged at timestep {int(np.argmin(finite))}")
    return h


# Bytes of one (L, columns) slab of the parallel sweep. Each slab is copied
# out, swept through every level while it stays in cache, and copied back,
# instead of streaming the whole (L, C, N) arrays once per level.
SWEEP_BLOCK_BYTES = 256 * 1024


def _scan_forward_parallel(a, b):
    # Doubling-stride inclusive sweep: ceil(log2 L) passes per column slab.
    # The level of stride d reads only the transitions t >= d, so it forms
    # the next level's products for t >= 2d only, into the other buffer.
    length = a.shape[0]
    h = np.empty(b.shape, b.dtype)
    a2, b2, h2 = (x.reshape(length, -1) for x in (a, b, h))
    width = max(1, SWEEP_BLOCK_BYTES // (length * h.itemsize))
    for j in range(0, h2.shape[1], width):
        aa = a2[:, j:j + width].copy()
        hb = b2[:, j:j + width].copy()
        nxt = np.empty_like(aa)
        tmp = np.empty_like(hb)
        d = 1
        while d < length:
            np.multiply(aa[d:], hb[:-d], out=tmp[d:])
            hb[d:] += tmp[d:]
            if 2 * d < length:
                np.multiply(aa[2 * d:], aa[d:-d], out=nxt[2 * d:])
                aa, nxt = nxt, aa
            d *= 2
        if not np.all(np.isfinite(hb)):
            raise FloatingPointError("recurrence diverged (parallel scan)")
        h2[:, j:j + width] = hb
    return h


# Evaluation orders of the linear recurrence (BiMamba's scan_mode), each
# with the numpy sweep that runs it; the first, SCAN_MODES[0], is the
# default of BiMamba, ModelConfig and the bench formulas.
SWEEPS = {"recurrent": _scan_forward_sequential,
          "parallel": _scan_forward_parallel}
SCAN_MODES = tuple(SWEEPS)


def _scan_adjoint(a, h, lam):
    # lam holds g on entry and is swept backward in time in place into the
    # adjoint state lam_t = g_t + a_{t+1} * lam_{t+1}, step by step in either
    # scan mode; db = lam, da_t = lam_t * h_{t-1} and da_0 = 0
    length = a.shape[0]
    for t in range(length - 2, -1, -1):
        lam[t] += a[t + 1] * lam[t + 1]
    finite = np.isfinite(lam).reshape(length, -1).all(axis=1)
    if not finite.all():
        # the sweep runs backward, so the latest bad timestep failed first
        raise FloatingPointError(
            "recurrence adjoint diverged at timestep "
            f"{length - 1 - int(np.argmin(finite[::-1]))}")
    da = np.empty_like(a)
    da[0] = 0.0
    np.multiply(lam[1:], h[:-1], out=da[1:])
    return da, lam


def _linear_recurrence(a_bar, bx, mode):
    if a_bar.shape != bx.shape:
        raise ValueError(
            f"recurrence: shape mismatch {a_bar.shape} vs {bx.shape}")
    length = a_bar.shape[0]
    per_step = int(np.prod(a_bar.shape[1:]))
    if mode == "recurrent":
        _count_macs((length - 1) * per_step)
    else:
        # two multiplies per element on each of ceil(log2 L) levels
        _count_macs(2 * length * per_step * (length - 1).bit_length())
    h_data = SWEEPS[mode](a_bar.data, bx.data)
    out = Tensor(h_data)

    def bwd(g):
        # out.grad is g: the adjoint sweeps a copy
        return _scan_adjoint(a_bar.data, h_data, g.copy())

    _record(out, (a_bar, bx), bwd)
    return out


def linear_recurrence_sequential(a_bar, bx):
    """h_t = a_bar_t * h_{t-1} + bx_t with h_0 = 0, step by step."""
    return _linear_recurrence(a_bar, bx, "recurrent")


def linear_recurrence_parallel(a_bar, bx):
    """Same recurrence via an inclusive associative prefix scan in
    ceil(log2 L) passes; the adjoint is the same sequential backward sweep
    as in the step-by-step order."""
    return _linear_recurrence(a_bar, bx, "parallel")


# ---------------------------------------------------------------------------
# Selective (input-dependent) SSM
# ---------------------------------------------------------------------------

class SSMParams(Module):
    """Parameters of one selective scan direction.

    The continuous state matrix is stored as a_log with A = -exp(a_log),
    which keeps A strictly negative. The step size, input and output
    projections are functions of the current token (the selection
    mechanism). a_log is filled without the rng, so a paired stream can
    replace it with its partner's Parameter after construction.
    """

    def __init__(self, channels, state_dim, rng, name=""):
        self.channels = channels
        self.state_dim = state_dim
        # -A spans 1..N on every channel
        init = np.log(np.tile(np.arange(1, state_dim + 1, dtype=np.float64),
                              (channels, 1)))
        self.a_log = Parameter(init, name=f"{name}.a_log")
        s = 1.0 / np.sqrt(channels)
        self.w_delta = Parameter(_uniform(rng, (channels, channels), s),
                                 name=f"{name}.w_delta")
        dt = np.exp(rng.uniform(np.log(0.01), np.log(0.1), size=channels))
        self.b_delta = Parameter(np.log(np.expm1(dt)), name=f"{name}.b_delta")
        self.w_b = Parameter(_uniform(rng, (channels, state_dim), s),
                             name=f"{name}.w_b")
        self.w_c = Parameter(_uniform(rng, (channels, state_dim), s),
                             name=f"{name}.w_c")
        self.d_skip = Parameter(np.ones(channels), name=f"{name}.d_skip")


def _softplus(z):
    """log(1 + e^z) in plain ufunc passes, finite for any finite z."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _selective_scan(u, params, mode):
    """One selective-scan direction over u (L, C) as a single tape node.

    The forward runs the primitive composition softplus -> ZOH -> B_bar*u
    -> recurrence -> C readout + D skip. The readout y_t = h_t C_t is one
    stacked matrix-vector product over the state axis, as in Mamba's
    reference scan (Gu & Dao 2023), not a broadcast multiply and a short
    sum. Backward keeps only u, the step-size logits, B, C and the states
    h, and recomputes the softplus, exp(delta*A) and (exp(delta*A) - 1)/A
    (the recomputation of Mamba, section 3.3).
    """
    # the public recurrences are looked up at call time, so a wrapper put
    # on the module attribute sees every call
    recurrence = linear_recurrence_sequential if mode == "recurrent" \
        else linear_recurrence_parallel
    x = u.data
    channels = x.shape[1]
    n = params.state_dim
    w_delta, b_delta = params.w_delta.data, params.b_delta.data
    w_b, w_c, d_skip = params.w_b.data, params.w_c.data, params.d_skip.data
    _count_macs(x.size * channels + 2 * x.size * n)
    z = x @ w_delta + b_delta
    b_sel = x @ w_b
    c_sel = x @ w_c
    delta = _softplus(z)[:, :, None]
    a_log = params.a_log.data
    a_bar, bx = _zoh(-np.exp(a_log), delta)
    bx *= b_sel[:, None, :]
    bx *= x[:, :, None]
    _count_macs(4 * bx.size)
    with no_grad():
        h = recurrence(Tensor(a_bar), Tensor(bx)).data
    del a_bar, bx
    _count_macs(h.size + x.size)
    out = Tensor(np.matmul(h, c_sel[:, :, None])[:, :, 0] + x * d_skip)
    _check_finite("selective_scan", out.data)

    def bwd(g):
        a = -np.exp(a_log)
        delta = _softplus(z)
        a_bar, q = _zoh(a, delta[:, :, None])
        # the fresh g * C is the adjoint's buffer
        da_bar, lam = _scan_adjoint(a_bar, h,
                                    g[:, :, None] * c_sel[:, None, :])
        # bx = q * B * u
        lam_q = lam * q
        du = g * d_skip + np.matmul(lam_q, b_sel[:, :, None])[:, :, 0]
        db = np.matmul(x[:, None, :], lam_q)[:, 0, :]
        # dq = lam * B * u; q = (a_bar - 1)/a; a_bar = exp(delta * a)
        lam *= b_sel[:, None, :]
        lam *= x[:, :, None]
        lam /= a
        da = -np.einsum("lcn,lcn->cn", lam, q)
        da_bar += lam
        da_bar *= a_bar
        da += np.einsum("lcn,lc->cn", da_bar, delta)
        dz = np.einsum("lcn,cn->lc", da_bar, a) * _sigmoid_np(z)
        dc = np.matmul(g[:, None, :], h)[:, 0, :]
        du += dz @ w_delta.T + db @ w_b.T + dc @ w_c.T
        return (du, x.T @ dz, dz.sum(axis=0), x.T @ db, x.T @ dc, da * a,
                (g * x).sum(axis=0))

    _record(out, (u, params.w_delta, params.b_delta, params.w_b, params.w_c,
                  params.a_log, params.d_skip), bwd)
    return out


# ---------------------------------------------------------------------------
# Bidirectional block
# ---------------------------------------------------------------------------

def depthwise_conv_causal(u, weight, bias):
    """Per-channel causal convolution over time as one tape node.

    weight is (K, C); out_t = sum_k weight_k * u_{t-k} + bias, accumulated
    in order k = 0..K-1 over the zero-padded shifted input.
    """
    x = u.data
    w = weight.data
    length = x.shape[0]
    acc = x * w[0]
    shifted = np.zeros_like(x)
    for k in range(1, w.shape[0]):
        if k < length:
            shifted[k:] = x[:length - k]
        shifted[:k] = 0.0
        acc += shifted * w[k]
    _count_macs(w.shape[0] * x.size)
    out = Tensor(acc + bias.data)
    _check_finite("depthwise_conv_causal", out.data)

    def bwd(g):
        dx = g * w[0]
        dw = np.zeros_like(w)
        dw[0] = (x * g).sum(axis=0)
        for k in range(1, min(w.shape[0], length)):
            dx[:length - k] += g[k:] * w[k]
            dw[k] = (x[:length - k] * g[k:]).sum(axis=0)
        return dx, dw, g.sum(axis=0)

    _record(out, (u, weight, bias), bwd)
    return out


class BiMamba(Module):
    """Pre-norm residual bidirectional selective-scan block.

    Forward and backward directions run over the original and time-flipped
    sequence with separate SSM parameters, share the input projection and
    causal conv, and are summed before a sigmoid-weighted linear gate.
    """

    def __init__(self, d_model, state_dim, rng, expansion=2, conv_width=4,
                 scan_mode=SCAN_MODES[0], name="bimamba"):
        if expansion < 1:
            raise ValueError("expansion factor must be >= 1")
        if scan_mode not in SCAN_MODES:
            raise ValueError(f"unknown scan mode {scan_mode!r}; "
                             f"choose from {', '.join(SCAN_MODES)}")
        self.d_model = d_model
        self.inner = expansion * d_model
        self.scan_mode = scan_mode
        self.name = name
        s_in = 1.0 / np.sqrt(d_model)
        self.norm_gamma = Parameter(np.ones(d_model), name=f"{name}.norm_gamma")
        self.norm_beta = Parameter(np.zeros(d_model), name=f"{name}.norm_beta")
        self.w_in = Parameter(_uniform(rng, (d_model, 2 * self.inner), s_in),
                              name=f"{name}.w_in")
        self.b_in = Parameter(np.zeros(2 * self.inner), name=f"{name}.b_in")
        self.conv_w = Parameter(_uniform(rng, (conv_width, self.inner),
                                         1.0 / np.sqrt(conv_width)),
                                name=f"{name}.conv_w")
        self.conv_b = Parameter(np.zeros(self.inner), name=f"{name}.conv_b")
        self.fwd = SSMParams(self.inner, state_dim, rng, name=f"{name}.fwd")
        self.bwd = SSMParams(self.inner, state_dim, rng, name=f"{name}.bwd")
        s_out = 1.0 / np.sqrt(self.inner)
        self.w_out = Parameter(_uniform(rng, (self.inner, d_model), s_out),
                               name=f"{name}.w_out")
        self.b_out = Parameter(np.zeros(d_model), name=f"{name}.b_out")

    def branch(self, x):
        """Pre-residual branch output (gated bidirectional scan)."""
        xn = layer_norm(x, self.norm_gamma, self.norm_beta)
        proj = add(matmul(xn, self.w_in), self.b_in)
        u = slicer(proj, (slice(None), slice(0, self.inner)))
        z = slicer(proj, (slice(None), slice(self.inner, 2 * self.inner)))
        uf = silu(depthwise_conv_causal(u, self.conv_w, self.conv_b))
        ub = silu(depthwise_conv_causal(flip_time(u), self.conv_w, self.conv_b))
        y_f = _selective_scan(uf, self.fwd, self.scan_mode)
        y_b = flip_time(_selective_scan(ub, self.bwd, self.scan_mode))
        gated = mul(add(y_f, y_b), silu(z))
        return add(matmul(gated, self.w_out), self.b_out)

    def __call__(self, x):
        if not np.all(np.isfinite(x.data)):
            raise FloatingPointError(f"{self.name}: non-finite input")
        return add(x, self.branch(x))
