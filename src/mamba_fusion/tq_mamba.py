"""Text-guided query fusion.

Multi-head cross-attention with refined text as the query over the
time-concatenated audio/visual features, a stack of latent bidirectional
blocks, and the max-pool regression head.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    Module, Parameter, Tensor, _check_finite, _count_macs,
    _layer_norm_grad_np, _layer_norm_np, _record, _softmax_grad_np,
    _softmax_np, add, matmul, max_over_time, reshape,
)

# Bytes of one block of query rows' attention scores, (heads, rows, L_kv).
# The forward and the backward's recomputation hold a few arrays of that
# size at a time instead of the whole (heads, L_q, L_kv) scores and
# weights; every preset's scores fit in one block.
ATTENTION_BLOCK_BYTES = 512 * 1024


def _attention_weights(qh, kh_t, scale, checked):
    """Every head's row-stochastic weights softmax(qh @ kh_t / scale) over
    query heads qh, (H, rows, d), and transposed key heads kh_t,
    (H, d, L_kv). When checked, the scores are checked finite (as
    "matmul") and the multiplies counted, as the forward does."""
    z = qh @ kh_t
    if checked:
        _check_finite("matmul", z)
        _count_macs(z.size * (qh.shape[2] + 1))
    z /= scale
    return _softmax_np(z)


class CrossAttention(Module):
    """Pre-norm residual multi-head scaled dot-product attention.

    Cross-attention over the time-concatenation of the key/value
    sequences, or self-attention over the query when none is given. No
    positional encodings are added to queries or keys.
    """

    def __init__(self, d_model, heads, rng, name="xattn"):
        if d_model % heads != 0:
            raise ValueError(
                f"model dim {d_model} not divisible by {heads} heads")
        self.heads = heads
        self.head_dim = d_model // heads
        s = 1.0 / np.sqrt(d_model)
        self.norm_gamma = Parameter(np.ones(d_model), name=f"{name}.norm_gamma")
        self.norm_beta = Parameter(np.zeros(d_model), name=f"{name}.norm_beta")
        self.w_q = Parameter(rng.uniform(-s, s, (d_model, d_model)), name=f"{name}.w_q")
        self.w_k = Parameter(rng.uniform(-s, s, (d_model, d_model)), name=f"{name}.w_k")
        self.w_v = Parameter(rng.uniform(-s, s, (d_model, d_model)), name=f"{name}.w_v")
        self.w_o = Parameter(rng.uniform(-s, s, (d_model, d_model)), name=f"{name}.w_o")
        self.b_o = Parameter(np.zeros(d_model), name=f"{name}.b_o")

    def __call__(self, query, *keyvalues):
        """query + W_o merge(softmax(q k^T / sqrt(d)) v) + b_o as one tape
        node, with q = LayerNorm(query) W_q, k = kv W_k, v = kv W_v and kv
        the keyvalues concatenated in time (the query itself when none is
        given). Heads lie on a leading axis.

        The forward runs over blocks of query rows (ATTENTION_BLOCK_BYTES)
        and keeps the float operations, operand layouts, MAC counts and
        finite checks of that composition recorded one node per primitive.
        The node holds the normalized query, the q, k and v heads, kv and
        the merged heads; its backward recomputes each block's weights from
        q and k (the recomputation of FlashAttention, Dao et al. 2022,
        without its online softmax, which would change the rounding)."""
        sources = keyvalues or (query,)
        several = len(sources) > 1
        kv = np.concatenate([t.data for t in sources], axis=0) if several \
            else sources[0].data
        gamma, beta = self.norm_gamma.data, self.norm_beta.data
        w_q, w_k, w_v, w_o = (self.w_q.data, self.w_k.data, self.w_v.data,
                              self.w_o.data)
        qn, xhat, inv = _layer_norm_np(query.data, gamma, beta)
        _count_macs(2 * qn.size)
        heads, d = self.heads, self.head_dim
        split = (-1, heads, d)
        # each projection is checked as it is made, then moved onto the
        # head axis as a contiguous copy
        projected = []
        for x, w, axes in ((qn, w_q, (1, 0, 2)), (kv, w_k, (1, 2, 0)),
                           (kv, w_v, (1, 0, 2))):
            p = x @ w
            _check_finite("matmul", p)
            _count_macs(p.size * w.shape[0])
            projected.append(p.reshape(split).transpose(axes).copy())
        qh, kh_t, vh = projected
        l_q, l_kv = qh.shape[1], kh_t.shape[2]
        scale = np.sqrt(float(d))
        step = max(1, ATTENTION_BLOCK_BYTES // (heads * l_kv * 8))
        blocks = [slice(r, r + step) for r in range(0, l_q, step)]
        merged = np.empty((l_q, heads, d))
        for rows in blocks:
            weights = _attention_weights(qh[:, rows], kh_t, scale, True)
            merged[rows] = (weights @ vh).transpose(1, 0, 2)
            _count_macs(weights.size * d)
        merged = merged.reshape(l_q, -1)
        out = merged @ w_o
        # a non-finite value mix reaches every column of this product
        _check_finite("matmul", out)
        _count_macs(out.size * w_o.shape[0])
        out += self.b_o.data
        out += query.data
        _check_finite("add", out)
        out = Tensor(out)

        def bwd(g):
            dmerged = g @ w_o.T
            dw_o = merged.T @ g
            dctx = dmerged.reshape(l_q, heads, d).transpose(1, 0, 2)
            dqh = []
            for rows in blocks:
                weights = _attention_weights(qh[:, rows], kh_t, scale, False)
                g_rows = dctx[:, rows]
                dvh_rows = weights.swapaxes(-1, -2) @ g_rows
                dz = _softmax_grad_np(g_rows @ vh.swapaxes(-1, -2), weights,
                                      scale)
                dqh.append(dz @ kh_t.swapaxes(-1, -2))
                dkh_rows = qh[:, rows].swapaxes(-1, -2) @ dz
                if rows.start == 0:
                    dvh, dkh_t = dvh_rows, dkh_rows
                else:
                    dvh += dvh_rows
                    dkh_t += dkh_rows
            dqh = dqh[0] if len(dqh) == 1 else np.concatenate(dqh, axis=1)
            # back off the head axis, as copies in the projections' layout
            dq = dqh.transpose(1, 0, 2).reshape(l_q, -1)
            dk = dkh_t.transpose(2, 0, 1).reshape(l_kv, -1)
            dv = dvh.transpose(1, 0, 2).reshape(l_kv, -1)
            dkv_v, dkv_k = dv @ w_v.T, dk @ w_k.T
            # recomputed: the node holds xhat, not the layer norm's output
            qn = xhat * gamma + beta
            dx, dgamma, dbeta = _layer_norm_grad_np(dq @ w_q.T, gamma, xhat,
                                                    inv)
            # one source takes its two contributions in turn; several take
            # their rows of the sum, as the concatenation's gradient
            if several:
                sizes = np.cumsum([t.shape[0] for t in sources])[:-1]
                dv_in, dk_in = (), ()
                pieces = np.split(dkv_v + dkv_k, sizes, axis=0)
            else:
                dv_in, dk_in, pieces = (dkv_v,), (dkv_k,), ()
            return (g, g.sum(axis=0), dw_o, *dv_in, kv.T @ dv, *dk_in,
                    kv.T @ dk, qn.T @ dq, dx, dgamma, dbeta, *pieces)

        # listed in the order the separate nodes' backward reached them, so
        # a tensor met twice (the query, a single key/value source) sums its
        # contributions in the same order
        once = () if several else sources
        _record(out, (query, self.b_o, self.w_o, *once, self.w_v, *once,
                      self.w_k, self.w_q, query, self.norm_gamma,
                      self.norm_beta, *(sources if several else ())), bwd)
        return out


def text_query(attn, c_t, c_v, c_a):
    """Query the time-concatenation of visual and audio features with text."""
    if not (c_t.shape == c_v.shape == c_a.shape):
        raise ValueError(
            f"text_query: shape mismatch {c_t.shape} {c_v.shape} {c_a.shape}")
    return attn(c_t, c_v, c_a)


class LatentStack(Module):
    """Blocks applied in sequence after the text query: bidirectional scan
    blocks, or self-attention blocks in the attention-substituted variant."""

    def __init__(self, blocks):
        self.blocks = list(blocks)

    def __call__(self, q_f):
        for block in self.blocks:
            q_f = block(q_f)
        return q_f


class FusionHead(Module):
    """Max pooling over time followed by a fully connected map to a scalar."""

    def __init__(self, d_model, rng, name="head"):
        s = 1.0 / np.sqrt(d_model)
        self.w = Parameter(rng.uniform(-s, s, (d_model, 1)), name=f"{name}.w")
        self.b = Parameter(np.zeros(1), name=f"{name}.b")

    def __call__(self, f_z):
        pooled = max_over_time(f_z)
        out = add(matmul(reshape(pooled, (1, f_z.shape[1])), self.w), self.b)
        return reshape(out, ())
