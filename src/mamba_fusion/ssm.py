"""Selective state-space machinery.

Zero-order-hold discretization, three interchangeable scan strategies
(sequential recurrence, associative parallel prefix scan, and an LTI
convolution-kernel mode used as a cross-check), and the bidirectional
block that every fusion stage is built from.

The state matrix is diagonal per channel, so discretization has the exact
closed forms a_bar = exp(delta*a) and b_bar = ((exp(delta*a) - 1)/a) * b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Parameter, Tensor, _check_finite, _count_macs, _record, _sigmoid_np, add,
    flip_time, layer_norm, matmul, mul, no_grad, silu, slicer,
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


def discretize(a, b, delta):
    """Exact zero-order-hold discretization for a diagonal state matrix.

    a must be elementwise negative, delta elementwise positive; shapes
    broadcast. Returns constant Tensors (a_bar, b_bar) with
    a_bar = exp(delta*a) in (0, 1) and b_bar = ((exp(delta*a) - 1)/a) * b.
    """
    a_bar, q = _zoh(np.asarray(a, dtype=np.float64),
                    np.asarray(delta, dtype=np.float64))
    return Tensor(a_bar), Tensor(q * np.asarray(b, dtype=np.float64))


# ---------------------------------------------------------------------------
# Linear recurrence evaluation
# ---------------------------------------------------------------------------

def combine(p, q):
    """Associative combine for the prefix scan: q composed after p.

    Elements are (a, b) pairs representing the affine map h -> a*h + b.
    """
    pa, pb = p
    qa, qb = q
    return qa * pa, qa * pb + qb


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


def _scan_adjoint(a, h, g, sweep):
    # lam_t = g_t + a_{t+1} * lam_{t+1} is the forward sweep run backward in
    # time over the shifted transitions; db = lam; da_t = lam_t * h_{t-1}
    a_rev = np.concatenate([np.ones_like(a[:1]), a[1:][::-1]], axis=0)
    lam = sweep(a_rev, g[::-1])[::-1].copy()
    da = np.zeros_like(a)
    da[1:] = lam[1:] * h[:-1]
    return da, lam


def _linear_recurrence(a_bar, bx, mode):
    if a_bar.shape != bx.shape:
        raise ValueError(
            f"recurrence: shape mismatch {a_bar.shape} vs {bx.shape}")
    length = a_bar.shape[0]
    per_step = int(np.prod(a_bar.shape[1:]))
    if mode == "recurrent":
        sweep = _scan_forward_sequential
        _count_macs((length - 1) * per_step)
    else:
        sweep = _scan_forward_parallel
        levels = 0
        d = 1
        while d < length:
            levels += 1
            d *= 2
        _count_macs(2 * length * per_step * levels)
    h_data = sweep(a_bar.data, bx.data)
    out = Tensor(h_data)

    def bwd(g):
        return _scan_adjoint(a_bar.data, h_data, g, sweep)

    _record(out, (a_bar, bx), bwd)
    return out


def linear_recurrence_sequential(a_bar, bx):
    """h_t = a_bar_t * h_{t-1} + bx_t with h_0 = 0, step by step."""
    return _linear_recurrence(a_bar, bx, "recurrent")


def linear_recurrence_parallel(a_bar, bx):
    """Same recurrence via an inclusive associative prefix scan; forward and
    adjoint sweeps both run in ceil(log2 L) full-width passes."""
    return _linear_recurrence(a_bar, bx, "parallel")


# ---------------------------------------------------------------------------
# Selective (input-dependent) SSM
# ---------------------------------------------------------------------------

class SSMParams:
    """Parameters of one selective scan direction.

    The continuous state matrix is stored as a_log with A = -exp(a_log),
    which keeps A strictly negative. The step size, input and output
    projections are functions of the current token (the selection
    mechanism). a_log may be a shared Parameter owned by a paired stream.
    """

    def __init__(self, channels, state_dim, rng, shared_a_log=None, name=""):
        self.channels = channels
        self.state_dim = state_dim
        if shared_a_log is not None:
            if shared_a_log.shape != (channels, state_dim):
                raise ValueError("shared a_log shape mismatch")
            self.a_log = shared_a_log
        else:
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

    def parameters(self):
        return [self.a_log, self.w_delta, self.b_delta,
                self.w_b, self.w_c, self.d_skip]

    def own_parameters(self):
        """Parameters excluding the (possibly shared) state matrix."""
        return [self.w_delta, self.b_delta, self.w_b, self.w_c, self.d_skip]


# Evaluation orders of the selective scan (BiMamba's scan_mode).
SCAN_MODES = ("recurrent", "parallel")


def _selective_scan(u, params, mode):
    """One selective-scan direction over u (L, C) as a single tape node.

    The forward runs the float operations of the primitive composition
    softplus -> ZOH -> B_bar*u -> recurrence -> C readout + D skip in the
    same order. Backward keeps only u, the step-size logits, B, C and the
    states h, and recomputes exp(delta*A) and (exp(delta*A) - 1)/A (the
    recomputation of Mamba, Gu & Dao 2023, section 3.3).
    """
    if mode == "recurrent":
        recurrence, sweep = linear_recurrence_sequential, \
            _scan_forward_sequential
    elif mode == "parallel":
        recurrence, sweep = linear_recurrence_parallel, _scan_forward_parallel
    else:
        raise ValueError(f"unknown scan mode {mode!r}")
    x = u.data
    channels = x.shape[1]
    n = params.state_dim
    w_delta, b_delta = params.w_delta.data, params.b_delta.data
    w_b, w_c, d_skip = params.w_b.data, params.w_c.data, params.d_skip.data
    _count_macs(x.size * channels + 2 * x.size * n)
    z = x @ w_delta + b_delta
    b_sel = x @ w_b
    c_sel = x @ w_c
    delta = np.logaddexp(0.0, z)[:, :, None]
    a_log = params.a_log.data
    a_bar, bx = _zoh(-np.exp(a_log), delta)
    bx *= b_sel[:, None, :]
    bx *= x[:, :, None]
    _count_macs(4 * bx.size)
    with no_grad():
        h = recurrence(Tensor(a_bar), Tensor(bx)).data
    del a_bar, bx
    _count_macs(h.size + x.size)
    out = Tensor((h * c_sel[:, None, :]).sum(axis=2) + x * d_skip)
    _check_finite("selective_scan", out.data)

    def bwd(g):
        a = -np.exp(a_log)
        delta = np.logaddexp(0.0, z)
        a_bar, q = _zoh(a, delta[:, :, None])
        da_bar, lam = _scan_adjoint(a_bar, h, g[:, :, None] * c_sel[:, None, :],
                                    sweep)
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


def scan_recurrent(x, params):
    """Selective scan evaluated by the step-by-step recurrence."""
    if isinstance(params, LTIParams):
        return _lti_scan(np.asarray(x), params, "recurrent")
    return _selective_scan(x, params, "recurrent")


def scan_parallel(x, params):
    """Selective scan evaluated by the associative prefix scan."""
    if isinstance(params, LTIParams):
        return _lti_scan(np.asarray(x), params, "parallel")
    return _selective_scan(x, params, "parallel")


def scan_kernel(x, params):
    """LTI-only evaluation through the global convolution kernel."""
    if not isinstance(params, LTIParams):
        raise ValueError("scan_kernel requires time-invariant parameters "
                         "(LTIParams); selection makes the kernel undefined")
    return _lti_scan(np.asarray(x), params, "kernel")


# ---------------------------------------------------------------------------
# Time-invariant mode (test oracle trio, plain numpy)
# ---------------------------------------------------------------------------

@dataclass
class LTIParams:
    """A fixed (non-selective) diagonal SSM: A (C,N) negative, B (N,),
    C (N,), delta (C,) positive, d_skip (C,)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    delta: np.ndarray
    d_skip: np.ndarray

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=np.float64))
        self.b = np.asarray(self.b, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        self.delta = np.atleast_1d(np.asarray(self.delta, dtype=np.float64))
        self.d_skip = np.atleast_1d(np.asarray(self.d_skip, dtype=np.float64))
        if np.any(self.a >= 0):
            raise ValueError("LTIParams: A must be strictly negative")
        if np.any(self.delta <= 0):
            raise ValueError("LTIParams: delta must be strictly positive")

    def discretized(self):
        a_bar = np.exp(self.delta[:, None] * self.a)
        b_bar = (a_bar - 1.0) / self.a * self.b[None, :]
        return a_bar, b_bar

    @staticmethod
    def random(rng, channels, state_dim):
        return LTIParams(
            a=-np.exp(rng.uniform(-1.0, 1.0, size=(channels, state_dim))),
            b=rng.standard_normal(state_dim),
            c=rng.standard_normal(state_dim),
            delta=np.exp(rng.uniform(np.log(0.05), np.log(0.5), size=channels)),
            d_skip=rng.standard_normal(channels),
        )


def _lti_scan(x, params, mode):
    if x.ndim == 1:
        x = x[:, None]
    length, channels = x.shape
    a_bar, b_bar = params.discretized()
    if mode == "recurrent":
        h = np.zeros((channels, params.a.shape[1]))
        ys = np.empty((length, channels))
        for t in range(length):
            h = a_bar * h + b_bar * x[t][:, None]
            ys[t] = h @ params.c
        return ys + params.d_skip * x
    if mode == "parallel":
        aa = np.broadcast_to(a_bar, (length,) + a_bar.shape).copy()
        bb = b_bar[None, :, :] * x[:, :, None]
        d = 1
        while d < length:
            bb[d:] = aa[d:] * bb[:-d] + bb[d:]
            aa[d:] = aa[d:] * aa[:-d]
            d *= 2
        return bb @ params.c + params.d_skip * x
    if mode == "kernel":
        # k[l, c] = sum_n c_n * a_bar^l * b_bar ; y = causal conv of x with k
        powers = a_bar[None, :, :] ** np.arange(length)[:, None, None]
        kern = (powers * b_bar[None, :, :]) @ params.c  # (L, C)
        ys = np.empty((length, channels))
        for t in range(length):
            ys[t] = np.einsum("lc,lc->c", kern[: t + 1], x[t::-1])
        return ys + params.d_skip * x
    raise ValueError(f"unknown scan mode {mode!r}")


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


class BiMamba:
    """Pre-norm residual bidirectional selective-scan block.

    Forward and backward directions run over the original and time-flipped
    sequence with separate SSM parameters (optionally shared state
    matrices), share the input projection and causal conv, and are summed
    before a sigmoid-weighted linear gate.
    """

    def __init__(self, d_model, state_dim, rng, expansion=2, conv_width=4,
                 scan_mode="parallel", shared_a_log=None,
                 shared_a_log_backward=None, name="bimamba"):
        if expansion < 1:
            raise ValueError("expansion factor must be >= 1")
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
        self.fwd = SSMParams(self.inner, state_dim, rng,
                             shared_a_log=shared_a_log, name=f"{name}.fwd")
        self.bwd = SSMParams(self.inner, state_dim, rng,
                             shared_a_log=shared_a_log_backward,
                             name=f"{name}.bwd")
        s_out = 1.0 / np.sqrt(self.inner)
        self.w_out = Parameter(_uniform(rng, (self.inner, d_model), s_out),
                               name=f"{name}.w_out")
        self.b_out = Parameter(np.zeros(d_model), name=f"{name}.b_out")

    def parameters(self):
        ps = [self.norm_gamma, self.norm_beta, self.w_in, self.b_in,
              self.conv_w, self.conv_b, self.w_out, self.b_out]
        ps += self.fwd.parameters() + self.bwd.parameters()
        return ps

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
