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
    Parameter, Tensor, _count_macs, _record, add, concat, div, exp,
    flip_time, layer_norm, matmul, mul, neg, reshape, silu, slicer, softplus,
    sub, sum_,
)


def _uniform(rng, shape, scale):
    return rng.uniform(-scale, scale, size=shape)


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

def discretize(a, b, delta):
    """Exact zero-order-hold discretization for a diagonal state matrix.

    a must be elementwise negative, delta elementwise positive; shapes
    broadcast. Returns (a_bar, b_bar) with a_bar = exp(delta*a) in (0, 1)
    and b_bar = ((exp(delta*a) - 1)/a) * b.
    """
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    delta = delta if isinstance(delta, Tensor) else Tensor(delta)
    if np.any(a.data >= 0):
        raise ValueError("discretize: state matrix must be strictly negative")
    if np.any(delta.data <= 0):
        raise ValueError("discretize: step size must be strictly positive")
    a_bar = exp(mul(delta, a))
    b_bar = mul(div(sub(a_bar, Tensor(1.0)), a), b)
    return a_bar, b_bar


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


def _scan_forward_parallel(a, b):
    # Doubling-stride inclusive sweep: ceil(log2 L) full-width passes.
    aa = a.copy()
    h = b.copy()
    length = a.shape[0]
    d = 1
    while d < length:
        h[d:] = aa[d:] * h[:-d] + h[d:]
        aa[d:] = aa[d:] * aa[:-d]
        d *= 2
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("recurrence diverged (parallel scan)")
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


def _selective_scan(u, params, mode):
    length, channels = u.shape
    n = params.state_dim
    delta = softplus(add(matmul(u, params.w_delta), params.b_delta))
    b_sel = matmul(u, params.w_b)
    c_sel = matmul(u, params.w_c)
    a = neg(exp(params.a_log))
    a_bar, b_bar = discretize(reshape(a, (1, channels, n)),
                              reshape(b_sel, (length, 1, n)),
                              reshape(delta, (length, channels, 1)))
    bx = mul(b_bar, reshape(u, (length, channels, 1)))
    if mode == "recurrent":
        h = linear_recurrence_sequential(a_bar, bx)
    elif mode == "parallel":
        h = linear_recurrence_parallel(a_bar, bx)
    else:
        raise ValueError(f"unknown scan mode {mode!r}")
    y = sum_(mul(h, reshape(c_sel, (length, 1, n))), axis=2)
    return add(y, mul(u, params.d_skip))


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
    """Per-channel causal convolution over time. weight is (K, C)."""
    length = u.shape[0]
    channels = u.shape[1]
    width = weight.shape[0]
    acc = None
    for k in range(width):
        wk = slicer(weight, (slice(k, k + 1),))
        if k == 0:
            shifted = u
        elif k >= length:
            shifted = Tensor(np.zeros((length, channels)))
        else:
            pad = Tensor(np.zeros((k, channels)))
            shifted = concat([pad, slicer(u, (slice(0, length - k),))],
                             axis=0)
        term = mul(shifted, wk)
        acc = term if acc is None else add(acc, term)
    return add(acc, bias)


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
