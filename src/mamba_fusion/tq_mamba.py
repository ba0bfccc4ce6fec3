"""Text-guided query fusion.

Multi-head cross-attention with refined text as the query over the
time-concatenated audio/visual features, a stack of latent bidirectional
blocks, and the max-pool regression head.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    Module, Parameter, add, concat, layer_norm, matmul,
    max_over_time, reshape, softmax_lastdim, transpose,
)


class CrossAttention(Module):
    """Pre-norm residual multi-head scaled dot-product attention.

    Cross-attention over ``keyvalue``, or self-attention over the query
    when none is given. No positional encodings are added to queries or
    keys.
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

    def weights_and_values(self, query, keyvalue):
        """Every head's row-stochastic attention matrix, (H, L_q, L_kv), and
        values, (H, L_kv, d): heads lie on the leading axis."""
        qn = layer_norm(query, self.norm_gamma, self.norm_beta)
        q = matmul(qn, self.w_q)
        k = matmul(keyvalue, self.w_k)
        v = matmul(keyvalue, self.w_v)
        split = (-1, self.heads, self.head_dim)
        qh = transpose(reshape(q, split), (1, 0, 2))
        kh_t = transpose(reshape(k, split), (1, 2, 0))
        vh = transpose(reshape(v, split), (1, 0, 2))
        scale = np.sqrt(float(self.head_dim))
        return softmax_lastdim(matmul(qh, kh_t), scale), vh

    def attend(self, query, keyvalue):
        """Attention output before the residual connection."""
        weights, vh = self.weights_and_values(query, keyvalue)
        merged = reshape(transpose(matmul(weights, vh), (1, 0, 2)),
                         query.shape)
        return add(matmul(merged, self.w_o), self.b_o)

    def __call__(self, query, keyvalue=None):
        if keyvalue is None:
            keyvalue = query
        return add(query, self.attend(query, keyvalue))


def text_query(attn, c_t, c_v, c_a):
    """Query the time-concatenation of visual and audio features with text."""
    if not (c_t.shape == c_v.shape == c_a.shape):
        raise ValueError(
            f"text_query: shape mismatch {c_t.shape} {c_v.shape} {c_a.shape}")
    return attn(c_t, concat([c_v, c_a], axis=0))


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
