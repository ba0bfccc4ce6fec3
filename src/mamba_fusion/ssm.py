"""Selective state-space machinery.

Zero-order-hold discretization (``_zoh``), the linear recurrence in two
evaluation orders (``linear_recurrence_*``, which check, count and sweep
plain arrays, one scan direction (conv, SiLU and selective scan) over
plain arrays with its hand-written backward (``_scan_direction``), and the
bidirectional block every fusion stage is built from, one tape node per
call. A direction saves the step-size logits, B, C and the states; its
backward recomputes the conv, the SiLU output and exp(delta*A) and runs
the recurrence's adjoint, one in-place backward-in-time sweep
(``_adjoint_sweep``) for both orders. The block saves the layer norm's
normalized input and inverse deviation, its input projection and the
directions' sum, and rebuilds its gate from the projection. The default
order, "recurrent", sweeps step by step in L - 1 multiplies per column;
the "parallel" doubling-stride prefix scan makes 2 L ceil(log2 L). The
forward holds two full (L, N, C) arrays, A_bar and the B_bar*x buffer the
sweep runs over.

The state matrix is diagonal per channel, so discretization has the exact
closed forms a_bar = exp(delta*a) and b_bar = ((exp(delta*a) - 1)/a) * b.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    Module, Parameter, Tensor, _check_finite, _count_macs,
    _layer_norm_grad_np, _layer_norm_np, _record, _recording, _sigmoid_np,
    _silu_grad_np, _silu_np,
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
    positive, or a numeric failure is raised. The selective scan passes a
    as (N, C) and delta as (L, 1, C), so both come out state-major.
    """
    if (a >= 0).any():
        raise FloatingPointError(
            "discretize: state matrix must be strictly negative")
    if (delta <= 0).any():
        raise FloatingPointError(
            "discretize: step size must be strictly positive")
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
    prev = bx[0]
    # zip walks row views, which costs less than indexing a 3-D array
    for a_t, h_t in zip(a_bar[1:], bx[1:]):
        np.multiply(a_t, prev, out=row)
        np.add(row, h_t, out=h_t)
        prev = h_t
    # a non-finite state stays non-finite through every later step (0 * inf
    # is nan), so the last row catches every failure
    if not np.isfinite(bx[-1]).all():
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
    # t runs from L - 2 down to 0 over row views, as in the forward sweep
    for a_next, lam_next, lam_t in zip(a[:0:-1], lam[:0:-1], lam[-2::-1]):
        np.multiply(a_next, lam_next, out=row)
        lam_t += row
    # as in the forward sweep, the first row catches every failure
    if not np.isfinite(lam[0]).all():
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

    def in_grad_order(self):
        """The parameters in the order ``_scan_direction``'s backward
        returns their gradients."""
        return (self.w_delta, self.b_delta, self.w_b, self.w_c, self.a_log,
                self.d_skip)


def _softplus(z):
    """log(1 + e^z) in plain ufunc passes, finite for any finite z."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _conv_causal_np(x, w, bias):
    """Per-channel causal convolution over time of an (L, C) array.

    w is (K, C); out_t = sum_k w_k * x_{t-k} + bias, accumulated in order
    k = 0..K-1, where a term with t < k is padding and is skipped.
    """
    length = x.shape[0]
    acc = x * w[0]
    for k in range(1, min(w.shape[0], length)):
        acc[k:] += x[:length - k] * w[k]
    acc += bias
    return acc


def depthwise_conv_causal(x, w, bias):
    """The causal conv of a scan direction's forward: ``_conv_causal_np``,
    its K*L*C multiplies counted and its output checked finite."""
    acc = _conv_causal_np(x, w, bias)
    _count_macs(w.shape[0] * x.size)
    _check_finite("depthwise_conv_causal", acc)
    return acc


def _scan_direction(u, cw, cb, params, mode, reverse):
    """One scan direction of a BiMamba over the (L, C) array u, in numpy.

    Returns the output y, in forward time, and its backward function, which
    maps the gradient of y to those of u, cw, cb and params' w_delta,
    b_delta, w_b, w_c, a_log and d_skip, in that order.

    The causal conv, SiLU and selective scan run over u, or over u flipped
    in time when reverse is set. The scan is the primitive composition
    softplus -> ZOH -> B_bar*x -> recurrence -> C readout + D skip over the
    SiLU output x. Every full-size array is state-major, (L, N, C), so each
    broadcast runs along a contiguous row of C channels; A is a_log's
    (C, N) transposed at call time. The readout y_t = C_t h_t is one
    stacked vector-matrix product over the state axis, as in Mamba's
    reference scan (Gu & Dao 2023). The backward keeps the step-size
    logits, B, C and the states h, and recomputes exp(delta*A), the conv
    output and x from it (the recomputation of Mamba, section 3.3). The
    sweep writes h over the B_bar*x buffer, so the forward holds two full
    arrays, A_bar and that one. Since h_t = A_bar_t h_{t-1} + B_bar_t x_t
    and B_bar = (A_bar - 1)/A * B, the gradient with respect to delta*A is
    lam * (h + B*x/A), with lam the adjoint state.
    """
    # the public conv and recurrences are looked up at call time, so a
    # wrapper put on the module attribute sees every forward call
    recurrence = linear_recurrence_sequential if mode == "recurrent" \
        else linear_recurrence_parallel
    u_in = u[::-1] if reverse else u
    x = _silu_np(depthwise_conv_causal(u_in, cw, cb))[0]
    _count_macs(x.size)
    w_delta, b_delta = params.w_delta.data, params.b_delta.data
    w_b, w_c, d_skip = params.w_b.data, params.w_c.data, params.d_skip.data
    _count_macs(x.size * x.shape[1] + 2 * x.size * params.state_dim)
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
    y = np.matmul(c_sel[:, None, :], h)[:, 0, :] + x * d_skip

    def backward(g):
        g = g[::-1] if reverse else g
        # x is rebuilt in the forward's float operations; the conv's
        # sigmoid is recomputed at the end, not held through the (L, N, C)
        # arrays
        conv = _conv_causal_np(u_in, cw, cb)
        x = conv * _sigmoid_np(conv)
        a = -np.exp(a_log.T.copy())
        delta = _softplus(z)
        e = np.multiply(delta[:, None, :], a)
        np.exp(e, out=e)
        lam = _adjoint_sweep(e, g[:, None, :] * c_sel[:, :, None])
        # e becomes p = lam * (e - 1)/a, the gradient of bx / (B * x)
        e -= 1.0
        e /= a
        e *= lam
        db = np.matmul(e, x[:, :, None])[:, :, 0]
        dx = g * d_skip + np.matmul(b_sel[:, None, :], e)[:, 0, :]
        # w = B * x / a becomes lam * (h + w), the gradient of delta * a
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
        dx += dz @ w_delta.T + db @ w_b.T + dc @ w_c.T
        # through the SiLU and the conv
        gc = _silu_grad_np(dx, conv, _sigmoid_np(conv))
        length = gc.shape[0]
        du = gc * cw[0]
        dw = np.zeros_like(cw)
        dw[0] = (u_in * gc).sum(axis=0)
        for k in range(1, min(cw.shape[0], length)):
            du[:length - k] += gc[k:] * cw[k]
            dw[k] = (u_in[:length - k] * gc[k:]).sum(axis=0)
        return (du[::-1] if reverse else du, dw, gc.sum(axis=0),
                x.T @ dz, dz.sum(axis=0), x.T @ db, x.T @ dc, (da * a).T,
                (g * x).sum(axis=0))

    return (y[::-1] if reverse else y), backward


# ---------------------------------------------------------------------------
# Bidirectional block
# ---------------------------------------------------------------------------

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

    def __call__(self, x):
        """x + W_out (silu(z) * (y_f + y_b)) + b_out as one tape node, where
        [u, z] = W_in LayerNorm(x) + b_in and y_f, y_b are the scan
        directions over u. It keeps the float operations, MAC counts and
        gradient summation order of that composition recorded one node per
        primitive, and its gradients equal the composition's up to a zero's
        sign. It checks its input, its input projection (as "matmul") and
        its output (under the block's name). The node holds the layer
        norm's xhat and inverse deviation, the projection (as the views u
        and z) and y_f + y_b; its backward rebuilds LayerNorm(x), the gate
        and the gated product from them in the forward's float operations,
        uncounted and unchecked."""
        if not np.isfinite(x.data).all():
            raise FloatingPointError(f"{self.name}: non-finite input")
        gamma, beta = self.norm_gamma.data, self.norm_beta.data
        w_in, w_out = self.w_in.data, self.w_out.data
        xn, xhat, inv = _layer_norm_np(x.data, gamma, beta)
        _count_macs(2 * xn.size)
        proj = xn @ w_in
        _check_finite("matmul", proj)
        _count_macs(proj.size * w_in.shape[0])
        proj += self.b_in.data
        u, z = proj[:, :self.inner], proj[:, self.inner:]
        cw, cb = self.conv_w.data, self.conv_b.data
        y_f, back_f = _scan_direction(u, cw, cb, self.fwd, self.scan_mode,
                                      reverse=False)
        if not _recording():
            back_f = None  # frees its states before the next direction runs
        y_b, back_b = _scan_direction(u, cw, cb, self.bwd, self.scan_mode,
                                      reverse=True)
        y = y_f + y_b
        del y_f, y_b
        gate, sig = _silu_np(z)
        _count_macs(gate.size)
        gated = y * gate
        _count_macs(gated.size)
        out = gated @ w_out
        _count_macs(out.size * w_out.shape[0])
        out += self.b_out.data
        out += x.data
        # a nan or inf past the projection reaches out through +, *, the
        # gate (-inf * sigmoid(-inf) is nan) and every matmul row (inf * 0)
        _check_finite(self.name, out)
        out = Tensor(out)

        def bwd(g):
            nonlocal back_f, back_b
            sig = _sigmoid_np(z)
            gate = z * sig
            dgated = g @ w_out.T
            dw_out = (y * gate).T @ g
            dz = _silu_grad_np(dgated * y, z, sig)
            dy = dgated * gate
            # freed before the directions' backward, which peaks higher
            del sig, gate
            # each direction's saved arrays are freed once its backward ran
            du_b, *grads_b = back_b(dy)
            back_b = None
            du_f, *grads_f = back_f(dy)
            back_f = None
            dproj = np.concatenate([du_b + du_f, dz], axis=1)
            dx, dgamma, dbeta = _layer_norm_grad_np(dproj @ w_in.T, gamma,
                                                    xhat, inv)
            return (g, g.sum(axis=0), dw_out, *grads_b, *grads_f,
                    dproj.sum(axis=0), (xhat * gamma + beta).T @ dproj, dx,
                    dgamma, dbeta)

        # listed in the order the separate nodes' backward reached them, so
        # a shared tensor (x, the conv, tied directions) sums its
        # contributions in the same order
        _record(out, (x, self.b_out, self.w_out,
                      self.conv_w, self.conv_b, *self.bwd.in_grad_order(),
                      self.conv_w, self.conv_b, *self.fwd.in_grad_order(),
                      self.b_in, self.w_in, x, self.norm_gamma,
                      self.norm_beta), bwd)
        return out
