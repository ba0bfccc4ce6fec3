"""Parameter and FLOPs accounting plus wall-clock micro-benchmarks.

Costs are counted in multiply-accumulates (MACs); reports state the
convention explicitly (1 MAC = 2 FLOPs). The analytic scan-path formula
is validated elsewhere against an instrumented execution counter that
tallies actual multiplies primitive by primitive.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from .ssm import SCAN_MODES

CONVENTION = "multiply-accumulates (1 MAC = 2 FLOPs)"


def count_params(model):
    """Exact trainable parameter count; shared storage counted once."""
    return int(sum(p.size for p in model.parameters()))


# ---------------------------------------------------------------------------
# Analytic MAC formulas (mirror the primitive-level execution exactly)
# ---------------------------------------------------------------------------

def macs_recurrence(length, channels, state_dim, mode):
    if mode == "recurrent":
        return (length - 1) * channels * state_dim
    if mode == "parallel":
        levels = math.ceil(math.log2(length)) if length > 1 else 0
        return 2 * length * channels * state_dim * levels
    raise ValueError(f"unknown scan mode {mode!r}")


def macs_selective_scan(length, channels, state_dim, mode=SCAN_MODES[0]):
    """Multiplies in one selective-scan direction on an L x C input."""
    l, c, n = length, channels, state_dim
    macs = l * c * c          # step-size selection
    macs += 2 * l * c * n     # input/output selection
    macs += 3 * l * c * n     # discretization
    macs += l * c * n         # input injection
    macs += macs_recurrence(l, c, n, mode)
    macs += l * c * n         # state readout
    macs += l * c             # direct feedthrough
    return macs


def macs_bimamba(length, d_model, expansion, state_dim, conv_width=4,
                 mode=SCAN_MODES[0]):
    l, d = length, d_model
    c = expansion * d
    macs = 2 * l * d                      # pre-norm
    macs += l * d * 2 * c                 # input projection
    macs += 2 * conv_width * l * c        # causal conv, both directions
    macs += 3 * l * c                     # silu on both branches and the gate
    macs += 2 * macs_selective_scan(l, c, state_dim, mode)
    macs += l * c                         # gating product
    macs += l * c * d                     # output projection
    return macs


def macs_attention_interaction(l_q, l_kv, d_model, heads):
    """Score and value-mixing multiplies only: Theta(L_q * L_kv * D)."""
    return 2 * l_q * l_kv * d_model + heads * l_q * l_kv


def macs_attention(l_q, l_kv, d_model, heads):
    """One pre-norm residual attention block including projections."""
    d = d_model
    macs = 2 * l_q * d                            # pre-norm on the query
    macs += 2 * l_q * d * d + 2 * l_kv * d * d    # q, k, v, o projections
    macs += macs_attention_interaction(l_q, l_kv, d, heads)
    return macs


def model_macs(config, length=None, mode=SCAN_MODES[0]):
    """Per-module MAC breakdown for one forward pass at sequence length L."""
    c = config
    l = length if length is not None else c.length
    d = c.d_model
    breakdown = {}
    # alignment: time resample then feature projection, three modalities
    align = 0
    for t_m, d_m in ((c.t_text, c.d_text), (c.t_visual, c.d_visual),
                     (c.t_audio, c.d_audio)):
        align += l * t_m * d_m + l * d_m * d
    breakdown["align"] = align
    if c.enhancement:
        per_pair = (2 * l * d            # two L2 normalizations
                    + l * d * l + l * l  # scaled similarity
                    + l * l + l * l * d) # masked mixing
        breakdown["enhance"] = 2 * per_pair
    else:
        breakdown["enhance"] = 0
    breakdown["reconstruct"] = l * d * d + l * d * c.d_text \
        if c.reconstruction else 0
    if c.use_attention:
        block = macs_attention(l, l, d, c.heads)
        breakdown["context"] = 3 * c.tc_depth * block
        breakdown["latent"] = c.tq_depth * block
    else:
        block = macs_bimamba(l, d, c.expansion, c.state_dim, c.conv_width,
                             mode)
        # four blocks plus the halving of the two text outputs per depth
        breakdown["context"] = c.tc_depth * (4 * block + l * d)
        breakdown["latent"] = c.tq_depth * block
    breakdown["cross_attention"] = macs_attention(l, 2 * l, d, c.heads)
    breakdown["head"] = d
    breakdown["total"] = sum(v for k, v in breakdown.items() if k != "total")
    return breakdown


# ---------------------------------------------------------------------------
# Wall-clock
# ---------------------------------------------------------------------------

def wallclock(fn, reps=30, warmup=3):
    """Median and IQR of fn() wall time over reps, warmup discarded."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    q25, med, q75 = np.percentile(times, [25, 50, 75])
    return {"median_s": float(med), "iqr_s": float(q75 - q25), "reps": reps}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def cost_report(model, length=None, timing=None):
    breakdown = model_macs(model.config, length=length,
                           mode=model.config.scan_mode)
    report = {
        "convention": CONVENTION,
        "parameters": count_params(model),
        "macs": breakdown,
        "flops": {k: 2 * v for k, v in breakdown.items()},
    }
    if timing is not None:
        report["wallclock"] = timing
    return report


def report_table(report):
    lines = [f"cost convention: {report['convention']}",
             f"parameters: {report['parameters']}",
             f"{'module':<18}{'MACs':>14}{'FLOPs':>14}"]
    for k, v in report["macs"].items():
        lines.append(f"{k:<18}{v:>14}{2 * v:>14}")
    if "wallclock" in report:
        w = report["wallclock"]
        lines.append(f"wallclock: median {w['median_s']:.6f}s "
                     f"iqr {w['iqr_s']:.6f}s over {w['reps']} reps")
    return "\n".join(lines)


def report_json(report):
    return json.dumps(report, indent=2, sort_keys=True)
