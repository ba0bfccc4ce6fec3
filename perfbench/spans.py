"""Outside-in span recording around the package's public callables.

The package is never edited: a span is recorded by replacing a callable
the model looks up at call time (an instance attribute, a list item or a
module-level function) with a proxy, and putting the original back
afterwards. Spans stay in memory until the run ends.

A span is a list ``[name, start, end, parent, op, tape_nodes, nbytes]``:
``name`` is ``"<layer>:<instance>"``; ``parent`` is the index of the
enclosing span (-1 at top level); ``op`` is the step or prediction id;
``tape_nodes`` is the growth of ``len(tape.records)`` across the call;
``nbytes`` is the computed size of the recurrence's ``a_bar``, ``bx`` and
``h`` arrays (0 elsewhere).
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

import mamba_fusion.model as model_module
import mamba_fusion.ssm as ssm_module

_clock = time.perf_counter

NAME, START, END, PARENT, OP, NODES, NBYTES = range(7)


def targets(model):
    """Every (owner, key, span name) the trace wraps in a scan-block model.

    Collect them from the unwrapped model: owners are read through the
    attributes that installing replaces.
    """
    out = [(model, "align_t", "tme.align:align_t"),
           (model, "align_v", "tme.align:align_v"),
           (model, "align_a", "tme.align:align_a"),
           (model, "reconstructor", "tme.reconstruct:reconstructor"),
           (model_module, "recon_loss", "tme.recon_loss:recon_loss"),
           (model_module, "token_similarity", "tme.enhance:token_similarity"),
           (model_module, "threshold_mask", "tme.enhance:threshold_mask"),
           (model_module, "enhance", "tme.enhance:enhance"),
           (model, "context", "tc_mamba.context:context")]
    for i, block in enumerate(model.context.blocks):
        for key in ("tv", "ta"):
            pair = getattr(block, key)
            out.append((block, key, f"tc_mamba.pair_{key}:tc{i}.{key}"))
            out.append((pair, "text", f"ssm.bimamba:{pair.text.name}"))
            out.append((pair, "partner", f"ssm.bimamba:{pair.partner.name}"))
    out += [(model, "cross_attn", "tq_mamba.cross_attention:cross_attn"),
            (model, "latent", "tq_mamba.latent:latent")]
    for i, block in enumerate(model.latent.blocks):
        out.append((model.latent.blocks, i, f"ssm.bimamba:{block.name}"))
    out += [(model, "head", "tq_mamba.head:head"),
            (ssm_module, "depthwise_conv_causal",
             "ssm.conv:depthwise_conv_causal"),
            (ssm_module, "linear_recurrence_sequential",
             "ssm.recurrence:linear_recurrence_sequential"),
            (ssm_module, "linear_recurrence_parallel",
             "ssm.recurrence:linear_recurrence_parallel")]
    return out


def _get(owner, key):
    return owner[key] if isinstance(owner, list) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, list):
        owner[key] = value
    else:
        setattr(owner, key, value)


@contextlib.contextmanager
def swapped(entries):
    """Put each ``(owner, key, replacement)`` in place, restoring the
    originals on exit."""
    saved = [(owner, key, _get(owner, key)) for owner, key, _ in entries]
    try:
        for owner, key, value in entries:
            _set(owner, key, value)
        yield
    finally:
        for owner, key, original in reversed(saved):
            _set(owner, key, original)


def proxied(entries, on_call):
    """``swapped`` with a ``Proxy`` around each ``(owner, key, name)``."""
    return swapped([(owner, key, Proxy(name, _get(owner, key), on_call))
                    for owner, key, name in entries])


class Proxy:
    """Callable stand-in that routes calls through ``on_call`` and forwards
    attribute reads (``parameters``, ``blocks``, ...) to the target."""

    __slots__ = ("_name", "_target", "_on_call")

    def __init__(self, name, target, on_call):
        self._name = name
        self._target = target
        self._on_call = on_call

    def __call__(self, *args, **kwargs):
        return self._on_call(self._name, self._target, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Tracer:
    """Records spans with parent links, op ids and tape-node counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.tape = None   # the active Tape, when the op records one

    def on_call(self, name, fn, args, kwargs):
        return self.call(name, fn, *args, **kwargs)

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                self.op, 0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        tape = self.tape
        nodes = len(tape.records) if tape is not None else 0
        span[START] = _clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[END] = _clock()
            self.stack.pop()
        if tape is not None:
            span[NODES] = len(tape.records) - nodes
        if name.startswith("ssm.recurrence:"):
            span[NBYTES] = args[0].data.nbytes + args[1].data.nbytes \
                + out.data.nbytes
        return out

    def begin_op(self, op):
        self.op = op
        self.stack = [len(self.spans)]
        self.spans.append(["op", _clock(), 0.0, -1, op, 0, 0])

    def end_op(self):
        self.spans[self.stack[0]][END] = _clock()
        self.stack = []
        self.op = None
        self.tape = None

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "op", "tape_nodes",
                     "nbytes"), s))) + "\n")


def layer(name):
    return name.partition(":")[0]


def summarize(spans):
    """Per-layer figures per op: inclusive and self seconds, calls, tape
    nodes and computed bytes, each as the median over traced ops, plus
    the share of each op's wall time its top-level spans cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    per_op = {}
    coverage = []
    for i, s in enumerate(spans):
        if s[NAME] == "op":
            coverage.append(child_time[i] / (s[END] - s[START]))
            per_op.setdefault(s[OP], {})
            continue
        if s[OP] is None:
            continue
        acc = per_op.setdefault(s[OP], {}).setdefault(
            layer(s[NAME]), [0.0, 0.0, 0, 0, 0])
        acc[0] += s[END] - s[START]
        acc[1] += s[END] - s[START] - child_time[i]
        acc[2] += 1
        acc[3] += s[NODES]
        acc[4] += s[NBYTES]
    layers = sorted({k for op in per_op.values() for k in op})
    table = {}
    for name in layers:
        rows = [op.get(name, [0.0, 0.0, 0, 0, 0]) for op in per_op.values()]
        table[name] = {
            "s": statistics.median(r[0] for r in rows),
            "self_s": statistics.median(r[1] for r in rows),
            "calls": statistics.median_low(r[2] for r in rows),
            "tape_nodes": statistics.median_low(r[3] for r in rows),
            "bytes": statistics.median_low(r[4] for r in rows),
        }
    return table, coverage


def outside_ops(spans, layer_name):
    """Durations of the spans of one layer recorded outside any op."""
    return [s[END] - s[START] for s in spans
            if s[OP] is None and layer(s[NAME]) == layer_name]
