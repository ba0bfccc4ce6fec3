"""Tests for parameter/FLOPs accounting and the complexity comparison."""

import numpy as np
import pytest

from mamba_fusion.autodiff import MacCounter, Module, Tensor, no_grad
from mamba_fusion.bench import (
    CONVENTION, cost_report, count_params, macs_attention_interaction,
    macs_bimamba, macs_selective_scan, model_macs, report_json, report_table,
    wallclock,
)
from mamba_fusion.model import PRESETS, ModelConfig, build_model
from mamba_fusion.ssm import SCAN_MODES, BiMamba, SSMParams
from oracles import (
    LTIParams, bimamba_param_count, lti_scan, model_param_count,
    reconstructor_param_count, scan_direction_node, sharing_saving,
)


# ---------------------------------------------------------------------------
# Analytic formulas vs instrumented execution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(7, 4, 3), (16, 8, 5), (1, 3, 2),
                                   (33, 6, 4)])
@pytest.mark.parametrize("mode", ["recurrent", "parallel"])
def test_selective_scan_macs_match_instrumented_count(shape, mode):
    # a direction's node runs the causal conv (K multiplies per element)
    # and the SiLU (one) before the selective scan
    length, channels, state_dim = shape
    rng = np.random.default_rng(0)
    params = SSMParams(channels, state_dim, rng, name="p")
    conv_w = Tensor(rng.standard_normal((4, channels)))
    conv_b = Tensor(np.zeros(channels))
    u = Tensor(rng.standard_normal((length, channels)))
    for reverse in (False, True):
        with MacCounter() as counter:
            scan_direction_node(u, conv_w, conv_b, params, mode, reverse)
        assert counter.macs == (
            5 * length * channels
            + macs_selective_scan(length, channels, state_dim, mode))


@pytest.mark.parametrize("cfg", [(8, 6, 2, 4), (5, 4, 1, 3), (12, 8, 2, 16)])
def test_bimamba_macs_match_instrumented_count(cfg):
    length, d_model, expansion, state_dim = cfg
    rng = np.random.default_rng(1)
    block = BiMamba(d_model, state_dim, rng, expansion=expansion,
                    scan_mode="recurrent")
    x = Tensor(rng.standard_normal((length, d_model)))
    with MacCounter() as counter:
        block(x)
    assert counter.macs == macs_bimamba(length, d_model, expansion, state_dim)


# the default order keeps the preset's plain id
@pytest.mark.parametrize("preset,scan_mode", [
    pytest.param(preset, mode,
                 id=preset if mode == SCAN_MODES[0] else f"{preset}-{mode}")
    for preset in ("desk", "sims") for mode in SCAN_MODES])
@pytest.mark.parametrize("use_attention", [False, True])
def test_model_macs_match_instrumented_forward(preset, scan_mode,
                                               use_attention):
    model = build_model(preset, seed=0, use_attention=use_attention,
                        scan_mode=scan_mode)
    c = model.config
    rng = np.random.default_rng(2)
    x_t = rng.standard_normal((c.t_text, c.d_text))
    x_v = rng.standard_normal((c.t_visual, c.d_visual))
    x_a = rng.standard_normal((c.t_audio, c.d_audio))
    with no_grad(), MacCounter() as counter:
        model.forward(x_t, x_v, x_a)
    # without clean text the reconstructor does not run
    expected = model_macs(c, mode=c.scan_mode)
    assert counter.macs == expected["total"] - expected["reconstruct"]


def test_model_without_reconstruction_counts_no_reconstructor():
    c = PRESETS["desk"]
    model = build_model("desk", seed=0, reconstruction=False)
    expected = (model_param_count(c)
                - reconstructor_param_count(c.d_model, c.d_text))
    assert count_params(model) == expected == 40_609
    assert cost_report(model)["parameters"] == expected


def _bimamba_blocks(module):
    for value in vars(module).values():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, BiMamba):
                yield v
            elif isinstance(v, Module):
                yield from _bimamba_blocks(v)


def test_model_block_and_bench_share_one_default_scan_order():
    default = ModelConfig().scan_mode
    assert default == "recurrent"
    blocks = list(_bimamba_blocks(build_model("desk", seed=0)))
    assert len(blocks) == 5
    assert {b.scan_mode for b in blocks} == {default}
    assert BiMamba(4, 2, np.random.default_rng(0)).scan_mode == default
    cfg = PRESETS["sims"]
    assert model_macs(cfg) == model_macs(cfg, mode=default)
    assert all(model_macs(cfg) != model_macs(cfg, mode=m)
               for m in SCAN_MODES if m != default)


# ---------------------------------------------------------------------------
# Complexity argument
# ---------------------------------------------------------------------------

def test_scan_flops_double_linearly():
    for length in (64, 128, 512):
        ratio = (macs_selective_scan(2 * length, 32, 8)
                 / macs_selective_scan(length, 32, 8))
        assert 1.9 <= ratio <= 2.1


def test_cross_attention_flops_quadruple():
    for length in (64, 128, 512):
        ratio = (macs_attention_interaction(2 * length, 4 * length, 32, 4)
                 / macs_attention_interaction(length, 2 * length, 32, 4))
        assert 3.8 <= ratio <= 4.2


def test_attention_variant_costs_more_at_long_lengths():
    cfg = PRESETS["desk"]
    mamba_total = model_macs(cfg, length=512)["total"]
    import dataclasses
    trans_cfg = dataclasses.replace(cfg, use_attention=True)
    trans_total = model_macs(trans_cfg, length=512)["total"]
    assert trans_total > mamba_total


def test_crossover_exists_between_variants():
    # the attention variant is cheaper at tiny L but loses for large L
    import dataclasses
    cfg = PRESETS["desk"]
    trans_cfg = dataclasses.replace(cfg, use_attention=True)
    diffs = [model_macs(trans_cfg, length=l)["total"]
             - model_macs(cfg, length=l)["total"] for l in (512, 2048)]
    assert diffs[-1] > diffs[0] > 0  # gap grows with length


def test_breakdown_sums_to_total():
    for preset in PRESETS:
        breakdown = model_macs(PRESETS[preset])
        assert breakdown["total"] == sum(
            v for k, v in breakdown.items() if k != "total")


# ---------------------------------------------------------------------------
# Parameter accounting
# ---------------------------------------------------------------------------

def test_param_count_independent_of_length():
    a = build_model("desk", seed=0)
    b = build_model("desk", seed=0, t_text=32)
    assert count_params(a) == count_params(b)


def test_unshared_model_count_rises_by_analytic_saving():
    cfg = PRESETS["desk"]
    shared = build_model("desk", seed=0)
    unshared = build_model("desk", seed=0, share_transitions=False)
    saving_per_pair = sharing_saving(cfg.d_model, cfg.state_dim,
                                    cfg.expansion)
    pairs = 2 * cfg.tc_depth
    assert count_params(unshared) - count_params(shared) \
        == pairs * saving_per_pair


def test_doubling_width_roughly_quadruples_block_params():
    ratio = bimamba_param_count(64, 8, 2) / bimamba_param_count(32, 8, 2)
    assert 3.0 <= ratio <= 4.5


def test_param_count_matches_checkpoint_bytes(tmp_path):
    from mamba_fusion.cli import save_checkpoint
    model = build_model("desk", seed=0)
    save_checkpoint(model, tmp_path / "ckpt")
    blob = (tmp_path / "ckpt" / "tensors.bin").stat().st_size
    header_bytes = sum(16 + 8 * p.data.ndim for p in model.parameters())
    assert blob == count_params(model) * 8 + header_bytes


# ---------------------------------------------------------------------------
# Wall-clock protocol and reports
# ---------------------------------------------------------------------------

def test_wallclock_reports_median_and_iqr():
    stats = wallclock(lambda: sum(range(1000)), reps=30, warmup=3)
    assert stats["reps"] == 30
    assert stats["median_s"] >= 0.0
    assert stats["iqr_s"] >= 0.0


def test_scan_growth_is_subquadratic_and_attention_superlinear():
    rng = np.random.default_rng(0)

    def scan_time(length):
        params = LTIParams.random(rng, channels=16, state_dim=8)
        x = rng.standard_normal((length, 16))
        return wallclock(lambda: lti_scan(x, params, "parallel"), reps=9,
                         warmup=2)["median_s"]

    def attention_time(length):
        q = rng.standard_normal((length, 32))
        k = rng.standard_normal((length, 32))
        return wallclock(lambda: (q @ k.T) @ k, reps=9,
                         warmup=2)["median_s"]

    scan_ratio = scan_time(4096) / scan_time(1024)
    attn_ratio = attention_time(4096) / attention_time(1024)
    assert scan_ratio < 16.0 * 0.75       # clearly below quadratic growth
    assert attn_ratio > 4.0               # clearly above linear growth


def test_cost_report_structure():
    model = build_model("desk", seed=0)
    report = cost_report(model, timing={"median_s": 0.01, "iqr_s": 0.001,
                                        "reps": 30})
    assert report["convention"] == CONVENTION
    assert report["parameters"] == count_params(model)
    for k, v in report["macs"].items():
        assert report["flops"][k] == 2 * v
    table = report_table(report)
    assert "multiply-accumulates" in table
    assert "wallclock" in table
    import json
    parsed = json.loads(report_json(report))
    assert parsed["parameters"] == report["parameters"]
