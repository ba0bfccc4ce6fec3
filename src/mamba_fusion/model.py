"""Full text-enhanced fusion model.

Wires alignment and text-aware enhancement, the shared-transition context
stack, the text-guided query stage, and the regression head into a single
trainable object. Ablation switches cover enhancement, reconstruction,
state-matrix sharing, and an attention-substituted variant in which every
bidirectional scan block is replaced by a self-attention block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Module, Tensor
from .ssm import SCAN_MODES, BiMamba
from .tc_mamba import TcStack
from .tme import Aligner, TextReconstructor, enhance, recon_loss, \
    threshold_mask, token_similarity
from .tq_mamba import CrossAttention, FusionHead, LatentStack, text_query


# integer fields that size an array or a stack; tq_depth may be 0
_SIZE_FIELDS = ("d_model", "state_dim", "expansion", "tc_depth", "heads",
                "conv_width", "t_text", "d_text", "t_visual", "d_visual",
                "t_audio", "d_audio")


@dataclass
class ModelConfig:
    d_model: int = 32
    state_dim: int = 8
    expansion: int = 1
    tc_depth: int = 1
    tq_depth: int = 1
    heads: int = 4
    tau: float = 0.07
    conv_width: int = 4
    scan_mode: str = SCAN_MODES[0]
    # raw per-modality shapes; the text length is the aligned length
    t_text: int = 16
    d_text: int = 32
    t_visual: int = 24
    d_visual: int = 16
    t_audio: int = 32
    d_audio: int = 8
    label_low: float = -3.0
    label_high: float = 3.0
    # ablations
    enhancement: bool = True
    reconstruction: bool = True
    share_transitions: bool = True
    use_attention: bool = False

    def __post_init__(self):
        # numpy's largest extent; numpy fails a larger size naming no field
        top = np.iinfo(np.intp).max
        for name in _SIZE_FIELDS + ("tq_depth",):
            low = 0 if name == "tq_depth" else 1
            if not low <= getattr(self, name) <= top:
                raise ValueError(f"{name} must be in [{low}, {top}], "
                                 f"got {getattr(self, name)}")
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        # a finite difference implies finite bounds; NaN fails both tests
        if not (self.label_low < self.label_high
                and math.isfinite(self.label_high - self.label_low)):
            raise ValueError(
                f"label_low must be < label_high, both finite and a finite "
                f"distance apart, got {self.label_low} and {self.label_high}")
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by heads")
        if self.scan_mode not in SCAN_MODES:
            raise ValueError(f"unknown scan_mode {self.scan_mode!r}; "
                             f"choose from {', '.join(SCAN_MODES)}")

    @property
    def length(self):
        """The aligned sequence length L, which is the text length."""
        return self.t_text


# Table-style presets; the desk preset is the default test scale.
PRESETS = {
    "desk": ModelConfig(),
    "mosi": ModelConfig(d_model=128, state_dim=12, expansion=4,
                        tc_depth=1, tq_depth=1, heads=8,
                        t_text=50, d_text=768, t_visual=500, d_visual=20,
                        t_audio=375, d_audio=5),
    "mosei": ModelConfig(d_model=128, state_dim=12, expansion=4,
                         tc_depth=2, tq_depth=2, heads=8,
                         t_text=50, d_text=768, t_visual=500, d_visual=35,
                         t_audio=500, d_audio=74),
    "sims": ModelConfig(d_model=128, state_dim=16, expansion=2,
                        tc_depth=1, tq_depth=2, heads=8,
                        t_text=39, d_text=768, t_visual=55, d_visual=709,
                        t_audio=400, d_audio=33,
                        label_low=-1.0, label_high=1.0),
}


def _attention_stack(depth, d_model, heads, rng, name):
    return LatentStack(CrossAttention(d_model, heads, rng, name=f"{name}{i}")
                       for i in range(depth))


class _TransStreams(Module):
    """Per-stream self-attention stacks replacing the context pairs."""

    def __init__(self, depth, d_model, heads, rng):
        self.streams = [_attention_stack(depth, d_model, heads, rng,
                                         f"tc_trans.{m}")
                        for m in ("t", "v", "a")]

    def __call__(self, c_t, c_v, c_a):
        return tuple(stack(x) for stack, x in
                     zip(self.streams, (c_t, c_v, c_a)))


class _ZeroDraws:
    """Stands in for the rng where a checkpoint replaces every initial value,
    so building the modules draws nothing; each draw is a read-only
    zero-stride placeholder that holds no memory of its size."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)


class TextFusionModel(Module):
    """End-to-end model from raw (possibly corrupted) features to a score."""

    def __init__(self, config: ModelConfig, seed=0):
        self._build(config, np.random.default_rng(seed))

    @classmethod
    def from_state_arrays(cls, config: ModelConfig, named):
        """A model of ``config`` holding the (name, array) pairs of a
        checkpoint, built without drawing any random numbers."""
        model = cls.__new__(cls)
        model._build(config, _ZeroDraws())
        # the arrays are the checkpoint reader's own, so the model keeps
        # them, copying only a read-only or non-C-ordered one
        model._assign_state_arrays(named, np.asarray)
        return model

    def _build(self, config, rng):
        self.config = config
        c = config
        self.align_t = Aligner(c.t_text, c.d_text, c.length, c.d_model, rng,
                               name="align_t")
        self.align_v = Aligner(c.t_visual, c.d_visual, c.length, c.d_model,
                               rng, name="align_v")
        self.align_a = Aligner(c.t_audio, c.d_audio, c.length, c.d_model,
                               rng, name="align_a")
        # drawn in every ablation, so later modules start from the same values
        reconstructor = TextReconstructor(c.d_model, c.d_text, rng)
        if c.reconstruction:
            self.reconstructor = reconstructor
        if c.use_attention:
            self.context = _TransStreams(c.tc_depth, c.d_model, c.heads, rng)
            self.latent = _attention_stack(c.tq_depth, c.d_model, c.heads,
                                           rng, "tq_trans")
        else:
            block = dict(expansion=c.expansion, conv_width=c.conv_width,
                         scan_mode=c.scan_mode)
            self.context = TcStack(c.tc_depth, c.d_model, c.state_dim, rng,
                                   share=c.share_transitions, **block)
            self.latent = LatentStack(
                BiMamba(c.d_model, c.state_dim, rng, name=f"tq{i}", **block)
                for i in range(c.tq_depth))
        self.cross_attn = CrossAttention(c.d_model, c.heads, rng)
        self.head = FusionHead(c.d_model, rng)

    def forward(self, x_t, x_v, x_a, x_t_clean=None, p_t=None):
        """Run the model on one sample.

        x_m are raw (corrupted) feature arrays or Tensors. When the clean
        text features and the text presence mask are given, the masked
        reconstruction loss is returned alongside the prediction;
        otherwise it is zero.
        """
        c = self.config
        x_t = x_t if isinstance(x_t, Tensor) else Tensor(x_t)
        x_v = x_v if isinstance(x_v, Tensor) else Tensor(x_v)
        x_a = x_a if isinstance(x_a, Tensor) else Tensor(x_a)
        h_t = self.align_t(x_t)
        h_v = self.align_v(x_v)
        h_a = self.align_a(x_a)

        if c.enhancement:
            s_vt = token_similarity(h_v, h_t, c.tau)
            e_v = enhance(h_v, s_vt, threshold_mask(s_vt, c.length), h_t)
            s_at = token_similarity(h_a, h_t, c.tau)
            e_a = enhance(h_a, s_at, threshold_mask(s_at, c.length), h_t)
        else:
            e_v, e_a = h_v, h_a

        if c.reconstruction and x_t_clean is not None and p_t is not None:
            x_tilde = self.reconstructor(h_t)
            rec = recon_loss(Tensor(np.asarray(x_t_clean)), x_tilde, p_t)
        else:
            rec = Tensor(0.0)

        c_t, c_v, c_a = self.context(h_t, e_v, e_a)
        q_f = text_query(self.cross_attn, c_t, c_v, c_a)
        f_z = self.latent(q_f)
        y_hat = self.head(f_z)
        return y_hat, rec

    def predict(self, x_t, x_v, x_a):
        y_hat, _ = self.forward(x_t, x_v, x_a)
        return float(y_hat.data)

    # -- checkpointing ------------------------------------------------------

    def state_arrays(self):
        """(name, array) pairs of the parameters, in ``parameters()`` order.

        The arrays are the live parameters, not copies: a later optimizer
        step writes into them, so a caller that keeps them copies them."""
        return [(p.name, p.data) for p in self.parameters()]

    def load_state_arrays(self, named):
        """Load copies of (name, array) pairs in any order, so the model
        never aliases the caller's arrays; each parameter's name must appear
        exactly once with the parameter's shape."""
        self._assign_state_arrays(named, np.array)

    def _assign_state_arrays(self, named, convert):
        params = {p.name: p for p in self.parameters()}
        if len(named) != len(params):
            raise ValueError(
                f"checkpoint has {len(named)} tensors, model has {len(params)}")
        arrays = {}
        for name, arr in named:
            if name in arrays:
                raise ValueError(f"name mismatch: checkpoint repeats {name!r}")
            arrays[name] = arr
        unknown = sorted(arrays.keys() - params.keys())
        if unknown:
            raise ValueError(
                f"name mismatch: model has no tensor {unknown[0]!r}")
        for name, p in params.items():
            if arrays[name].shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint "
                    f"{arrays[name].shape}, model {p.data.shape}")
        # the optimizer writes each parameter in place, through a flat view
        # that only a C-ordered, writeable array gives
        for name, p in params.items():
            p.data = np.require(convert(arrays[name], dtype=p.data.dtype),
                                requirements="CW")


def build_model(preset="desk", seed=0, **overrides):
    cfg = replace(PRESETS[preset], **overrides) if overrides else PRESETS[preset]
    return TextFusionModel(cfg, seed=seed)
