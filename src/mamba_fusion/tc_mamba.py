"""Text-based context blocks.

Two paired bidirectional streams per block (text<->visual and
text<->audio). Within a pair, the text stream and the non-text stream
share the continuous state-matrix storage for both directions; their
step-size, input and output selection networks stay separate. Text is
refined by averaging its two per-pair outputs.

What is shared is the continuous state matrix: the discretized transition
still differs per stream because the step size is input-dependent.
"""

from __future__ import annotations

from .autodiff import Module, Tensor, add, mul
from .ssm import BiMamba


class SharedTransitionPair(Module):
    """A text-stream block and a partner-stream block sharing state matrices.

    Sharing is structural: both streams' forward (and backward) SSMs hold
    the same Parameter objects for the state matrix, so gradients from
    either stream accumulate into one storage and an optimizer step keeps
    the values bitwise identical across streams. ``block`` holds the
    keyword arguments of ``BiMamba`` that both streams are built with.
    """

    def __init__(self, d_model, state_dim, rng, share=True, name="pair",
                 **block):
        self.text = BiMamba(d_model, state_dim, rng, name=f"{name}.text",
                            **block)
        self.partner = BiMamba(d_model, state_dim, rng,
                               name=f"{name}.partner", **block)
        if share:
            self.partner.fwd.a_log = self.text.fwd.a_log
            self.partner.bwd.a_log = self.text.bwd.a_log

    def __call__(self, c_t, other):
        return self.text(c_t), self.partner(other)


class TcBlock(Module):
    """One context block: a text<->visual pair and a text<->audio pair.

    ``pair`` holds the keyword arguments of ``SharedTransitionPair``.
    """

    def __init__(self, d_model, state_dim, rng, name="tc", **pair):
        self.tv = SharedTransitionPair(d_model, state_dim, rng,
                                       name=f"{name}.tv", **pair)
        self.ta = SharedTransitionPair(d_model, state_dim, rng,
                                       name=f"{name}.ta", **pair)

    def __call__(self, c_t, e_v, e_a):
        if not (c_t.shape == e_v.shape == e_a.shape):
            raise ValueError(
                f"tc_block: shape mismatch {c_t.shape} {e_v.shape} {e_a.shape}")
        c_t1, c_v = self.tv(c_t, e_v)
        c_t2, c_a = self.ta(c_t, e_a)
        c_t_out = mul(add(c_t1, c_t2), Tensor(0.5))
        return c_t_out, c_v, c_a


class TcStack(Module):
    """Depth-stacked context blocks, each with its own parameters."""

    def __init__(self, depth, d_model, state_dim, rng, name="tc", **pair):
        if depth < 1:
            raise ValueError("context stack depth must be >= 1")
        self.blocks = [TcBlock(d_model, state_dim, rng, name=f"{name}{i}",
                               **pair)
                       for i in range(depth)]

    def __call__(self, c_t, c_v, c_a):
        for block in self.blocks:
            c_t, c_v, c_a = block(c_t, c_v, c_a)
        return c_t, c_v, c_a

