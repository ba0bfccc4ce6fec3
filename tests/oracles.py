"""Reference implementations the tests compare the package against.

None of this runs outside the tests. The tape primitives (``sub``, ``div``,
``neg``, ``exp``, ``softplus``, ``silu``, ``softmax_lastdim``,
``l2_normalize_lastdim``, ``layer_norm``, ``concat``, ``transpose``,
``slicer``, ``sum_``, ``flip_time``) and ``tape_recurrence``, the linear
recurrence as a tape node over the package's plain-array sweep and
adjoint, are the building blocks of the tape-path oracles:
``tape_scan_direction``, the primitive composition (time flip,
``tape_conv_causal``, SiLU, ``tape_selective_scan``, time flip) that
``scan_direction_node``, one direction of the package's scan as a tape
node, replaces; ``tape_bimamba``, the 13-node composition the one-node
BiMamba call replaces; ``tape_cross_attention`` (with
``tape_weights_and_values`` and ``tape_attend``), the 18-node composition
the one-node attention call replaces, 19 with the concatenation of its
key/value sources; ``tape_token_similarity`` and ``tape_enhance``, the
compositions TME's one-node similarity and enhancement replace; and
``tape_recon_loss`` and ``tape_task_loss``, the compositions the one-node
loss terms replace.
``copy_on_first_accumulate_grad`` is gradient accumulation that copies,
which the hand-over accumulation must match, and ``expression_adamw_step``
the optimizer step as whole-array expressions, which the blocked in-place
step must match. The
time-invariant oracle (``LTIParams``, ``lti_scan``, ``discretize``) looks up ``ssm.linear_recurrence_*`` and ``ssm._zoh`` at call
time, so it checks the sweeps and zero-order hold the model runs, and a
test that patches them sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import mamba_fusion.ssm as ssm
from mamba_fusion.autodiff import (
    Tensor, _check_finite, _count_macs, _layer_norm_grad_np, _layer_norm_np,
    _record, _sigmoid_np, _silu_grad_np, _silu_np, _unbroadcast, add, matmul,
    mul, reshape,
)


# ---------------------------------------------------------------------------
# Tape primitives
# ---------------------------------------------------------------------------

def sub(a, b):
    out = Tensor(a.data - b.data)
    _check_finite("sub", out.data)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    _record(out, (a, b), bwd)
    return out


def div(a, b):
    if np.any(b.data == 0):
        raise FloatingPointError("div: division by zero")
    out = Tensor(a.data / b.data)
    _check_finite("div", out.data)
    _count_macs(out.size)

    def bwd(g):
        ga = g / b.data
        gb = -g * a.data / (b.data * b.data)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    _record(out, (a, b), bwd)
    return out


def neg(a):
    out = Tensor(-a.data)

    def bwd(g):
        return (-g,)

    _record(out, (a,), bwd)
    return out


def exp(a):
    out = Tensor(np.exp(a.data))
    _check_finite("exp", out.data)

    def bwd(g):
        return (g * out.data,)

    _record(out, (a,), bwd)
    return out


def softplus(a):
    out = Tensor(ssm._softplus(a.data))

    def bwd(g):
        return (g * _sigmoid_np(a.data),)

    _record(out, (a,), bwd)
    return out


def silu(a):
    y, s = _silu_np(a.data)
    out = Tensor(y)
    _count_macs(out.size)

    def bwd(g):
        return (_silu_grad_np(g, a.data, s),)

    _record(out, (a,), bwd)
    return out


def slicer(a, key):
    out = Tensor(a.data[key].copy())

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    _record(out, (a,), bwd)
    return out


def flip_time(a):
    out = Tensor(np.flip(a.data, axis=0).copy())

    def bwd(g):
        return (np.flip(g, axis=0),)

    _record(out, (a,), bwd)
    return out


def softmax_lastdim(a, temperature):
    """Softmax over the last axis of ``a / temperature``, a positive float."""
    z = a.data / temperature
    _check_finite("softmax_lastdim", z)
    _count_macs(z.size)
    # Max-subtraction keeps the exponentials bounded.
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s)

    def bwd(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot) / temperature,)

    _record(out, (a,), bwd)
    return out


def l2_normalize_lastdim(a, eps=1e-12):
    norm = np.sqrt((a.data ** 2).sum(axis=-1, keepdims=True))
    if np.any(norm < eps):
        raise FloatingPointError("l2_normalize_lastdim: zero-norm row")
    y = a.data / norm
    out = Tensor(y)
    _count_macs(out.size)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - y * dot) / norm,)

    _record(out, (a,), bwd)
    return out


def layer_norm(x, gamma, beta, eps=1e-5):
    y, xhat, inv = _layer_norm_np(x.data, gamma.data, beta.data, eps)
    out = Tensor(y)
    _count_macs(2 * out.size)

    def bwd(g):
        return _layer_norm_grad_np(g, gamma.data, xhat, inv)

    _record(out, (x, gamma, beta), bwd)
    return out


def concat(tensors, axis=0):
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]

    def bwd(g):
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(g, splits, axis=axis))

    _record(out, tuple(tensors), bwd)
    return out


def transpose(a, axes=None):
    out = Tensor(a.data.transpose(axes).copy())
    if axes is None:
        inv = None
    else:
        inv = np.argsort(axes)

    def bwd(g):
        return (g.transpose(inv),)

    _record(out, (a,), bwd)
    return out


def sum_(a, axis=None, keepdims=False):
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    _record(out, (a,), bwd)
    return out


# ---------------------------------------------------------------------------
# Tape-path oracles: the primitive compositions the fused nodes replace
# ---------------------------------------------------------------------------

def _recurrence(mode):
    """The package's public in-place sweep of that mode, looked up at call
    time."""
    return ssm.linear_recurrence_sequential if mode == "recurrent" \
        else ssm.linear_recurrence_parallel


def tape_recurrence(a_bar, bx, mode):
    """The linear recurrence as a tape node over Tensors: the forward is
    the package's public sweep of that mode, on a copy of bx, the backward
    the selective scan's adjoint sweep with da_t = lam_t * h_{t-1},
    da_0 = 0."""
    h = Tensor(_recurrence(mode)(a_bar.data, bx.data.copy()))

    def bwd(g):
        # h.grad is g: the adjoint sweeps a copy
        lam = ssm._adjoint_sweep(a_bar.data, g.copy())
        da = np.empty_like(lam)
        da[0] = 0.0
        np.multiply(lam[1:], h.data[:-1], out=da[1:])
        return da, lam

    _record(h, (a_bar, bx), bwd)
    return h


def tape_selective_scan(u, params, mode):
    """The selective scan as tape primitives, state-major like the fused
    node: A is a_log transposed to (1, N, C) and every full-size array is
    (L, N, C)."""
    length, channels = u.shape
    n = params.state_dim
    delta = softplus(add(matmul(u, params.w_delta), params.b_delta))
    b_sel = matmul(u, params.w_b)
    c_sel = matmul(u, params.w_c)
    a = reshape(transpose(neg(exp(params.a_log))), (1, n, channels))
    a_bar = exp(mul(reshape(delta, (length, 1, channels)), a))
    b_bar = mul(div(sub(a_bar, Tensor(1.0)), a),
                reshape(b_sel, (length, n, 1)))
    bx = mul(b_bar, reshape(u, (length, 1, channels)))
    h = tape_recurrence(a_bar, bx, mode)
    y = matmul(reshape(c_sel, (length, 1, n)), h)
    return add(reshape(y, (length, channels)), mul(u, params.d_skip))


def smooth_l1(diff):
    """Elementwise Smooth-L1 with beta = 1 (0.5 d^2 inside, |d| - 0.5 outside)."""
    d = diff.data
    quad = np.abs(d) < 1.0
    # Branch chosen per element from the forward value; both branches are
    # expressed through the tape so gradients follow the active branch.
    inside = mul(mul(diff, diff), Tensor(np.where(quad, 0.5, 0.0)))
    sign = Tensor(np.where(quad, 0.0, np.sign(d)))
    outside = add(mul(diff, sign), Tensor(np.where(quad, 0.0, -0.5)))
    return add(inside, outside)


def tape_recon_loss(x_t_clean, x_tilde, p_t):
    missing = 1.0 - np.asarray(p_t, dtype=np.float64).reshape(-1)
    n_missing = missing.sum()
    if n_missing == 0:
        return Tensor(0.0)
    gate = Tensor(missing[:, None])
    diff = mul(add(x_tilde, mul(x_t_clean, Tensor(-1.0))), gate)
    per_cell = smooth_l1(diff)
    total = sum_(mul(per_cell, gate))
    return mul(total, Tensor(1.0 / (n_missing * x_tilde.shape[1])))


def tape_task_loss(y_hats, labels):
    terms = []
    for y_hat, y in zip(y_hats, labels):
        diff = add(y_hat, Tensor(-float(y)))
        terms.append(mul(diff, diff))
    acc = terms[0]
    for t in terms[1:]:
        acc = add(acc, t)
    return mul(acc, Tensor(1.0 / len(terms)))


def tape_conv_causal(u, weight, bias):
    length, channels = u.shape
    acc = None
    for k in range(weight.shape[0]):
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


def tape_scan_direction(u, conv_w, conv_b, params, mode, reverse):
    """One BiMamba scan direction as tape nodes: the causal conv, SiLU and
    selective scan over u, flipped in time before and after when reverse
    is set."""
    flip = flip_time if reverse else (lambda t: t)
    x = silu(tape_conv_causal(flip(u), conv_w, conv_b))
    return flip(tape_selective_scan(x, params, mode))


def scan_direction_node(u, conv_w, conv_b, params, mode, reverse):
    """One BiMamba scan direction as a single tape node over the package's
    numpy forward and backward, ``ssm._scan_direction``."""
    y, bwd = ssm._scan_direction(u.data, conv_w.data, conv_b.data, params,
                                 mode, reverse)
    out = Tensor(y)
    _check_finite("selective_scan", out.data)
    _record(out, (u, conv_w, conv_b, *params.in_grad_order()), bwd)
    return out


def tape_bimamba(block, x):
    """A BiMamba call as 13 tape nodes: the layer norm, the input matmul
    and bias, two slices, one scan-direction node per direction, their sum,
    the gate's SiLU and product, the output matmul and bias, and the
    residual add."""
    xn = layer_norm(x, block.norm_gamma, block.norm_beta)
    proj = add(matmul(xn, block.w_in), block.b_in)
    u = slicer(proj, (slice(None), slice(0, block.inner)))
    z = slicer(proj, (slice(None), slice(block.inner, 2 * block.inner)))
    y_f = scan_direction_node(u, block.conv_w, block.conv_b, block.fwd,
                              block.scan_mode, reverse=False)
    y_b = scan_direction_node(u, block.conv_w, block.conv_b, block.bwd,
                              block.scan_mode, reverse=True)
    gated = mul(add(y_f, y_b), silu(z))
    return add(x, add(matmul(gated, block.w_out), block.b_out))


def tape_weights_and_values(attn, query, keyvalue):
    """Every head's row-stochastic attention matrix, (H, L_q, L_kv), and
    values, (H, L_kv, d), of a CrossAttention as tape nodes: heads lie on
    the leading axis."""
    qn = layer_norm(query, attn.norm_gamma, attn.norm_beta)
    q = matmul(qn, attn.w_q)
    k = matmul(keyvalue, attn.w_k)
    v = matmul(keyvalue, attn.w_v)
    split = (-1, attn.heads, attn.head_dim)
    qh = transpose(reshape(q, split), (1, 0, 2))
    kh_t = transpose(reshape(k, split), (1, 2, 0))
    vh = transpose(reshape(v, split), (1, 0, 2))
    scale = np.sqrt(float(attn.head_dim))
    return softmax_lastdim(matmul(qh, kh_t), scale), vh


def tape_attend(attn, query, keyvalue):
    """A CrossAttention's output before the residual connection, as tape
    nodes."""
    weights, vh = tape_weights_and_values(attn, query, keyvalue)
    merged = reshape(transpose(matmul(weights, vh), (1, 0, 2)), query.shape)
    return add(matmul(merged, attn.w_o), attn.b_o)


def tape_cross_attention(attn, query, *keyvalues):
    """A CrossAttention call as the 18 tape nodes the one-node call
    replaces, 19 with the concatenation of several key/value sources: the
    layer norm; the q, k and v projections; a reshape and a transpose of
    each onto the head axis; the scores' matmul and softmax; the value
    product; the merge (transpose, reshape); the output projection
    (matmul, bias) and the residual add."""
    if len(keyvalues) > 1:
        keyvalue = concat(keyvalues, axis=0)
    else:
        keyvalue = keyvalues[0] if keyvalues else query
    return add(query, tape_attend(attn, query, keyvalue))


def tape_token_similarity(h_x, h_t, tau):
    """TME's similarity as the five tape nodes the one-node
    ``tme.token_similarity`` replaces: two L2 normalizations, the
    transpose, the matmul and the softmax, which divides by tau."""
    xn = l2_normalize_lastdim(h_x)
    tn = l2_normalize_lastdim(h_t)
    return softmax_lastdim(matmul(xn, transpose(tn)), float(tau))


def tape_enhance(h_x, s, m, h_t):
    """TME's enhancement h_x + (m o s) . h_t as the three tape nodes the
    one-node ``tme.enhance`` replaces."""
    return add(h_x, matmul(mul(m, s), h_t))


def copy_on_first_accumulate_grad(self, g):
    """``Tensor.accumulate_grad`` as it was before gradients were handed
    over: the first contribution is copied, a later one is added."""
    if self.grad is None:
        self.grad = np.array(g, dtype=self.data.dtype, copy=True)
    else:
        self.grad = self.grad + g


def expression_adamw_step(opt):
    """``training.AdamW.step`` as it was before it updated in place: each
    moment and parameter becomes a new array, one expression each, over
    the optimizer's state. The in-place step must match it bitwise."""
    if opt.t == 0:
        opt.m = [np.zeros_like(p.data) for p in opt.params]
        opt.v = [np.zeros_like(p.data) for p in opt.params]
    opt.t += 1
    b1, b2 = opt.beta1, opt.beta2
    for i, p in enumerate(opt.params):
        # no gradient still decays the moments and the weights
        g = 0.0 if p.grad is None else p.grad
        opt.m[i] = b1 * opt.m[i] + (1 - b1) * g
        opt.v[i] = b2 * opt.v[i] + (1 - b2) * g * g
        m_hat = opt.m[i] / (1 - b1 ** opt.t)
        v_hat = opt.v[i] / (1 - b2 ** opt.t)
        p.data = p.data - opt.lr * (
            m_hat / (np.sqrt(v_hat) + opt.eps)
            + opt.weight_decay * p.data)


# ---------------------------------------------------------------------------
# Sweep oracles
# ---------------------------------------------------------------------------

def step_by_step_sweep(a, b):
    """h_t = a_t * h_{t-1} + b_t with h_0 = 0, one whole-row update a step."""
    h = b.copy()
    for t in range(1, a.shape[0]):
        h[t] = a[t] * h[t - 1] + b[t]
    return h


def whole_array_sweep(a, b):
    """Doubling-stride sweep over the whole arrays, one level at a time."""
    aa = a.copy()
    h = b.copy()
    d = 1
    while d < a.shape[0]:
        h[d:] = aa[d:] * h[:-d] + h[d:]
        aa[d:] = aa[d:] * aa[:-d]
        d *= 2
    return h


def reverse_sweep_adjoint(a, g, mode):
    """The adjoint state as that mode's forward sweep run over the
    time-reversed shifted transitions: lam_t = g_t + a_{t+1} * lam_{t+1}."""
    a_rev = np.concatenate([np.ones_like(a[:1]), a[1:][::-1]], axis=0)
    return _recurrence(mode)(a_rev, g[::-1].copy())[::-1]


# ---------------------------------------------------------------------------
# Time-invariant scan
# ---------------------------------------------------------------------------

def discretize(a, b, delta):
    """Exact zero-order-hold discretization for a diagonal state matrix.

    a must be elementwise negative, delta elementwise positive; shapes
    broadcast. Returns constant Tensors (a_bar, b_bar) with
    a_bar = exp(delta*a) in (0, 1) and b_bar = ((exp(delta*a) - 1)/a) * b.
    """
    a_bar, q = ssm._zoh(np.asarray(a, dtype=np.float64),
                        np.asarray(delta, dtype=np.float64))
    return Tensor(a_bar), Tensor(q * np.asarray(b, dtype=np.float64))


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
        self.discretized()  # _zoh rejects A >= 0 and delta <= 0

    def discretized(self):
        a_bar, q = ssm._zoh(self.a, self.delta[:, None])
        return a_bar, q * self.b

    @staticmethod
    def random(rng, channels, state_dim):
        return LTIParams(
            a=-np.exp(rng.uniform(-1.0, 1.0, size=(channels, state_dim))),
            b=rng.standard_normal(state_dim),
            c=rng.standard_normal(state_dim),
            delta=np.exp(rng.uniform(np.log(0.05), np.log(0.5), size=channels)),
            d_skip=rng.standard_normal(channels),
        )


def lti_scan(x, params, mode):
    """Time-invariant scan y = C h + D x of x (L,) or (L, C).

    mode "recurrent" or "parallel" runs the model's public sweep of that
    mode; "kernel" convolves x with the global kernel
    k_l = C a_bar^l b_bar, an independent evaluation to check them against.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    length, channels = x.shape
    a_bar, b_bar = params.discretized()
    if mode == "kernel":
        # k[l, c] = sum_n c_n * a_bar^l * b_bar ; y = causal conv of x with k
        powers = a_bar[None, :, :] ** np.arange(length)[:, None, None]
        kern = (powers * b_bar[None, :, :]) @ params.c  # (L, C)
        ys = np.empty((length, channels))
        for t in range(length):
            ys[t] = np.einsum("lc,lc->c", kern[: t + 1], x[t::-1])
        return ys + params.d_skip * x
    h = _recurrence(mode)(np.broadcast_to(a_bar, (length,) + a_bar.shape),
                          b_bar * x[:, :, None])
    return h @ params.c + params.d_skip * x


# ---------------------------------------------------------------------------
# Analytic parameter counts
# ---------------------------------------------------------------------------

def bimamba_param_count(d_model, state_dim, expansion, conv_width=4,
                        count_state=True):
    """Analytic parameter count of one bidirectional block.

    With count_state False the two (channels x state_dim) state matrices
    are excluded (the shared-storage case where another stream owns them).
    """
    inner = expansion * d_model
    n = 2 * d_model                               # norm gamma/beta
    n += d_model * 2 * inner + 2 * inner          # in projection
    n += conv_width * inner + inner               # depthwise conv
    per_dir = (inner * inner + inner              # delta selection
               + 2 * inner * state_dim            # B and C selection
               + inner)                           # d_skip
    if count_state:
        per_dir += inner * state_dim
    n += 2 * per_dir
    n += inner * d_model + d_model                # out projection
    return n


def shared_param_count(depth, d_model, state_dim, expansion, conv_width=4,
                       share=True):
    """Analytic parameter count of a context stack.

    Sharing saves 2 * channels * state_dim parameters per pair (forward
    plus backward state matrices of the partner stream).
    """
    full = bimamba_param_count(d_model, state_dim, expansion, conv_width)
    partner = bimamba_param_count(d_model, state_dim, expansion, conv_width,
                                  count_state=not share)
    return depth * 2 * (full + partner)


def sharing_saving(d_model, state_dim, expansion):
    """Parameters saved by sharing within one pair."""
    return 2 * expansion * d_model * state_dim


def reconstructor_param_count(d_model, d_text):
    """Analytic parameter count of the text reconstructor."""
    return d_model * d_model + d_model + d_model * d_text + d_text


def model_param_count(c):
    """Analytic parameter count of the full scan-block model of config
    ``c`` with shared transitions and the reconstructor."""
    d, n, e = c.d_model, c.state_dim, c.expansion
    total = 0
    for d_in in (c.d_text, c.d_visual, c.d_audio):      # aligners
        total += d_in * d + d
    total += reconstructor_param_count(d, c.d_text)
    total += shared_param_count(c.tc_depth, d, n, e)    # context pairs
    total += 2 * d + 4 * d * d + d                      # cross-attention
    total += c.tq_depth * bimamba_param_count(d, n, e)  # latent
    total += d + 1                                      # head
    return total
