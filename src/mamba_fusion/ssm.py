"""Selective state-space machinery.

Zero-order-hold discretization (``_zoh``), the linear recurrence in two
evaluation orders (``linear_recurrence_*``, which check, count and sweep
plain arrays, writing the states over their input), the selective scan
and the causal conv as fused tape nodes, and the bidirectional block every
fusion stage is built from. The recurrence records nothing on the tape:
the selective scan's backward runs its adjoint, one in-place
backward-in-time sweep (``_adjoint_sweep``) for both orders. The default
order, "recurrent", sweeps step by step in L - 1 multiplies per column; the
"parallel" doubling-stride prefix scan makes 2 L ceil(log2 L). The
selective scan's forward sweeps over its B_bar*u buffer, so it holds two
full (L, N, C) arrays, A_bar and that one.

The state matrix is diagonal per channel, so discretization has the exact
closed forms a_bar = exp(delta*a) and b_bar = ((exp(delta*a) - 1)/a) * b.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    Module, Parameter, Tensor, _check_finite, _count_macs, _record,
    _sigmoid_np, add, flip_time, layer_norm, matmul, mul, silu, slicer,
)


def _uniform(rng, shape, scale):
    return rng.uniform(-scale, scale, size=shape)


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

def _zoh(a, delta):
    """Exact zero-order hold for a diagonal state matrix, in numpy.

    Returns a_bar = exp(delta*a), exponentiated in place over the product,
    and q = (a_bar - 1)/a, so that b_bar = q*b, as two fresh arrays of the
    broadcast shape. a must be elementwise negative, delta elementwise
    positive. The selective scan passes a as (N, C) and delta as (L, 1, C),
    so both come out state-major, (L, N, C).
    """
    if np.any(a >= 0):
        raise ValueError("discretize: state matrix must be strictly negative")
    if np.any(delta <= 0):
        raise ValueError("discretize: step size must be strictly positive")
    # asarray turns the product of two scalars into a writable 0-d array
    a_bar = np.asarray(delta * a)
    np.exp(a_bar, out=a_bar)
    q = a_bar - 1.0
    q /= a
    return a_bar, q


# ---------------------------------------------------------------------------
# Linear recurrence evaluation
# ---------------------------------------------------------------------------

# Evaluation orders of the linear recurrence (BiMamba's scan_mode); the
# first is the default of BiMamba, ModelConfig and the bench formulas.
SCAN_MODES = ("recurrent", "parallel")

# Bytes of one (L, columns) slab of the parallel sweep. Each slab is copied
# out, swept through every level while it stays in cache, and copied back,
# instead of streaming the whole (L, N, C) arrays once per level.
SWEEP_BLOCK_BYTES = 256 * 1024


def _check_in_place(a_bar, bx):
    if a_bar.shape != bx.shape:
        raise ValueError(
            f"recurrence: shape mismatch {a_bar.shape} vs {bx.shape}")
    # a reshape of a non-contiguous bx would copy, and the states would
    # never reach it
    if not bx.flags.c_contiguous:
        raise ValueError("recurrence: bx must be C-contiguous")


def linear_recurrence_sequential(a_bar, bx):
    """h_t = a_bar_t * h_{t-1} + bx_t with h_0 = 0 over arrays, step by step.

    The states overwrite bx, which is returned; row t of bx is written
    after it is read.
    """
    _check_in_place(a_bar, bx)
    _count_macs((a_bar.shape[0] - 1) * a_bar[0].size)
    row = np.empty_like(bx[0])
    for t in range(1, a_bar.shape[0]):
        np.multiply(a_bar[t], bx[t - 1], out=row)
        np.add(row, bx[t], out=bx[t])
    # a non-finite state stays non-finite through every later step (0 * inf
    # is nan), so the last row catches every failure
    if not np.all(np.isfinite(bx[-1])):
        finite = np.isfinite(bx).reshape(len(bx), -1).all(axis=1)
        raise FloatingPointError(
            f"recurrence diverged at timestep {int(np.argmin(finite))}")
    return bx


def linear_recurrence_parallel(a_bar, bx):
    """Same recurrence via an inclusive associative prefix scan in
    ceil(log2 L) passes, over bx as in the step-by-step order."""
    # Doubling-stride sweep per column slab: the level of stride d reads
    # only the transitions t >= d, so it forms the next level's products
    # for t >= 2d only, into the other buffer. A slab of bx is written back
    # after it is copied out.
    _check_in_place(a_bar, bx)
    length = a_bar.shape[0]
    # two multiplies per element on each of ceil(log2 L) levels
    _count_macs(2 * bx.size * (length - 1).bit_length())
    a2, h2 = a_bar.reshape(length, -1), bx.reshape(length, -1)
    width = max(1, SWEEP_BLOCK_BYTES // (length * bx.itemsize))
    for j in range(0, h2.shape[1], width):
        aa = a2[:, j:j + width].copy()
        hb = h2[:, j:j + width].copy()
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
    return bx


def _adjoint_sweep(a, lam):
    # lam holds g on entry and is swept backward in time in place into the
    # adjoint state lam_t = g_t + a_{t+1} * lam_{t+1}, step by step in either
    # scan mode; db = lam
    length = a.shape[0]
    row = np.empty_like(lam[0])
    for t in range(length - 2, -1, -1):
        np.multiply(a[t + 1], lam[t + 1], out=row)
        lam[t] += row
    # as in the forward sweep, the first row catches every failure
    if not np.all(np.isfinite(lam[0])):
        finite = np.isfinite(lam).reshape(length, -1).all(axis=1)
        # the sweep runs backward, so the latest bad timestep failed first
        raise FloatingPointError(
            "recurrence adjoint diverged at timestep "
            f"{length - 1 - int(np.argmin(finite[::-1]))}")
    return lam


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
    -> recurrence -> C readout + D skip. Every full-size array is
    state-major, (L, N, C), so each broadcast runs along a contiguous row
    of C channels; A is a_log's (C, N) transposed at call time. The readout
    y_t = C_t h_t is one stacked vector-matrix product over the state axis,
    as in Mamba's reference scan (Gu & Dao 2023). Backward keeps only u,
    the step-size logits, B, C and the states h, and recomputes
    exp(delta*A) (the recomputation of Mamba, section 3.3). The sweep
    writes h over the B_bar*u buffer, so the forward holds two full arrays,
    A_bar and that one, with or without a tape. Since
    h_t = A_bar_t h_{t-1} + B_bar_t u_t and B_bar = (A_bar - 1)/A * B, the
    gradient with respect to delta*A is lam * (h + B*u/A), with lam the
    adjoint state.
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
    delta = _softplus(z)[:, None, :]
    a_log = params.a_log.data
    a_bar, bx = _zoh(-np.exp(a_log.T.copy()), delta)
    bx *= b_sel[:, :, None]
    bx *= x[:, None, :]
    _count_macs(4 * bx.size)
    h = recurrence(a_bar, bx)
    del a_bar
    _count_macs(h.size + x.size)
    out = Tensor(np.matmul(c_sel[:, None, :], h)[:, 0, :] + x * d_skip)
    _check_finite("selective_scan", out.data)

    def bwd(g):
        a = -np.exp(a_log.T.copy())
        delta = _softplus(z)
        e = np.multiply(delta[:, None, :], a)
        np.exp(e, out=e)
        lam = _adjoint_sweep(e, g[:, None, :] * c_sel[:, :, None])
        # e becomes p = lam * (e - 1)/a, the gradient of bx / (B * u)
        e -= 1.0
        e /= a
        e *= lam
        db = np.matmul(e, x[:, :, None])[:, :, 0]
        du = g * d_skip + np.matmul(b_sel[:, None, :], e)[:, 0, :]
        # w = B * u / a becomes lam * (h + w), the gradient of delta * a
        w = b_sel[:, :, None] * x[:, None, :]
        w /= a
        da = -np.einsum("lnc,lnc->nc", e, w)
        del e
        w += h
        w *= lam
        del lam
        da += np.einsum("lnc,lc->nc", w, delta)
        dz = np.einsum("lnc,nc->lc", w, a) * _sigmoid_np(z)
        dc = np.matmul(h, g[:, :, None])[:, :, 0]
        du += dz @ w_delta.T + db @ w_b.T + dc @ w_c.T
        return (du, x.T @ dz, dz.sum(axis=0), x.T @ db, x.T @ dc,
                (da * a).T, (g * x).sum(axis=0))

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
