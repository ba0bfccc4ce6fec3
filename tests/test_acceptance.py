"""Acceptance suite.

Each test exercises one headline property of the implementation at desk
scale and registers a single PASS/FAIL line, printed in an "acceptance
criteria" section at the end of the pytest run. Tolerances are stated
inline. The training-based criteria use a fixed data seed and fixed model
seeds {0, 1, 2}; they assert trends (inequalities over seed averages), not
absolute values.
"""

import sys
import time

import numpy as np
import pytest

import conftest

from mamba_fusion.autodiff import (
    Parameter, Tape, Tensor, backward, finite_difference_check,
)
from mamba_fusion.bench import (
    count_params, macs_attention_interaction, macs_selective_scan, model_macs,
)
from mamba_fusion.datagen import generate
from mamba_fusion.harness import (
    SWEEP_RATES, CorruptionConfig, corrupt_sample, evaluate_fixed,
    evaluate_sweep,
)
from mamba_fusion.model import PRESETS, build_model
from mamba_fusion.ssm import SSMParams
from mamba_fusion.tc_mamba import SharedTransitionPair
from mamba_fusion.tme import recon_loss, threshold_mask, token_similarity
from mamba_fusion.training import TrainConfig, train, batch_loss
from oracles import (
    LTIParams, discretize, lti_scan, model_param_count, scan_direction_node,
    sharing_saving, sum_,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] acceptance {num:>2}: {name}"
    if detail:
        line += f" — {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    sys.stdout.write(line + "\n")
    assert ok, line


# ---------------------------------------------------------------------------
# Shared training fixtures (data seed 11, model seeds 0..2)
# ---------------------------------------------------------------------------

_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def synthetic_256():
    return generate(256, seed=11)


@pytest.fixture(scope="module")
def trained_variants(synthetic_256):
    """3 seeds x {full, no_enhancement, no_reconstruction}, 25 epochs on a
    64-sample training subset with train-uncertain corruption."""
    ds = synthetic_256
    subset = ds.split("train")[:64]
    out = {}
    for seed in _SEEDS:
        for name, overrides in (("full", {}),
                                ("no_enh", {"enhancement": False}),
                                ("no_rec", {"reconstruction": False})):
            model = build_model("desk", seed=seed, **overrides)
            cfg = TrainConfig(lr=2e-3, epochs=25, batch_size=8, seed=seed,
                              lambda_rec=0.7)
            train(model, subset, cfg, ds.unknown_text_vector)
            out[(seed, name)] = model
    return out


# ---------------------------------------------------------------------------
# 1. Three-way scan equivalence
# ---------------------------------------------------------------------------

def test_acceptance_01_scan_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        length = int(rng.integers(1, 65))
        state_dim = int(rng.integers(1, 17))
        channels = int(rng.integers(1, 5))
        params = LTIParams.random(rng, channels, state_dim)
        x = rng.standard_normal((length, channels))
        y_r = lti_scan(x, params, "recurrent")
        y_p = lti_scan(x, params, "parallel")
        y_k = lti_scan(x, params, "kernel")
        scale = np.maximum(np.abs(y_r), 1e-30)
        worst = max(worst,
                    float(np.max(np.abs(y_p - y_r) / scale)),
                    float(np.max(np.abs(y_k - y_r) / scale)))
    elapsed = time.perf_counter() - start
    _report(1, "the model's recurrent/parallel sweeps agree with the LTI "
               "kernel (rtol 1e-9, 50 instances, L<=64, N<=16)",
            worst < 1e-9 and elapsed < 10.0,
            f"max rel diff {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Discretization exactness
# ---------------------------------------------------------------------------

def test_acceptance_02_discretization_exactness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        a = -np.exp(rng.uniform(-3.0, 2.0))
        delta = np.exp(rng.uniform(-5.0, 1.0))
        b = rng.standard_normal()
        a_bar, b_bar = discretize(np.array(a), np.array(b), np.array(delta))
        ref_a = np.exp(np.float128(delta) * np.float128(a))
        ref_b = (ref_a - 1.0) / np.float128(a) * np.float128(b)
        worst = max(worst,
                    abs(a_bar.data - float(ref_a)) / abs(float(ref_a)),
                    abs(b_bar.data - float(ref_b)) / max(1e-30,
                                                         abs(float(ref_b))))
    a_lim, b_lim = discretize(np.array(-1.5), np.array(2.0), np.array(1e-10))
    limit_ok = abs(a_lim.data - 1.0) < 1e-8 and abs(b_lim.data) < 1e-8
    _report(2, "closed-form ZOH matches high-precision scalar oracle "
               "(rtol 1e-12, 1000 triples; identity limit 1e-8)",
            worst < 1e-12 and limit_ok, f"max rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Full-model gradient check
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_acceptance_03_full_model_gradient_check():
    start = time.perf_counter()
    model = build_model("desk", seed=1)
    ds = generate(2, seed=3)
    cfg = CorruptionConfig(mode="test_fixed", rate=0.3, seed=5)
    batch = [corrupt_sample(s, cfg, ds.unknown_text_vector, sample_index=i)
             for i, s in enumerate(ds.samples)]

    # every Parameter object, 8 evenly spaced coordinates per array
    err = finite_difference_check(lambda: batch_loss(model, batch, 0.7)[0],
                                  model.parameters(), per_coordinate=8)
    elapsed = time.perf_counter() - start
    _report(3, "full desk-scale model passes central finite differences "
               "(rtol 1e-4, all parameter arrays, 8 coords each, < 5 min)",
            err < 1e-4 and elapsed < 300.0,
            f"max rel err {err:.2e}, {elapsed:.1f}s, "
            f"{len(model.parameters())} arrays")


# ---------------------------------------------------------------------------
# 4. Shared-transition correctness
# ---------------------------------------------------------------------------

def test_acceptance_04_shared_transition_correctness():
    rng = np.random.default_rng(12)
    pair = SharedTransitionPair(6, 4, np.random.default_rng(8), expansion=1)
    c_t = Tensor(rng.standard_normal((7, 6)))
    e_v = Tensor(rng.standard_normal((7, 6)))

    def zero():
        seen = set()
        for p in pair.parameters():
            if id(p) not in seen:
                seen.add(id(p))
                p.zero_grad()

    zero()
    with Tape():
        y_t, y_v = pair(c_t, e_v)
        backward(sum_(y_t) + sum_(y_v))
    joint = pair.text.fwd.a_log.grad.copy()
    zero()
    with Tape():
        backward(sum_(pair.text(c_t)))
    iso_text = pair.text.fwd.a_log.grad.copy()
    zero()
    with Tape():
        backward(sum_(pair.partner(e_v)))
    iso_partner = pair.text.fwd.a_log.grad.copy()
    grad_gap = float(np.max(np.abs(joint - (iso_text + iso_partner))))

    # exact analytic parameter count of the full desk model
    c = PRESETS["desk"]
    d, n, e = c.d_model, c.state_dim, c.expansion
    analytic = model_param_count(c)
    model = build_model("desk", seed=0)
    count_ok = count_params(model) == analytic
    unshared = build_model("desk", seed=0, share_transitions=False)
    saving_ok = (count_params(unshared) - count_params(model)
                 == 2 * c.tc_depth * sharing_saving(d, n, e))
    _report(4, "shared-A gradient equals sum of isolated per-stream "
               "gradients (1e-10) and parameter count matches the "
               "analytic sharing formula exactly",
            grad_gap < 1e-10 and count_ok and saving_ok,
            f"grad gap {grad_gap:.2e}, params {count_params(model)}")


# ---------------------------------------------------------------------------
# 5. Enhancement invariants
# ---------------------------------------------------------------------------

def test_acceptance_05_tme_invariants():
    rng = np.random.default_rng(19)
    h_x = Tensor(rng.standard_normal((8, 6)))
    h_t = Tensor(rng.standard_normal((8, 6)))
    s = token_similarity(h_x, h_t, tau=0.07)
    rows_ok = np.max(np.abs(s.data.sum(axis=1) - 1.0)) < 1e-9

    # exactly-uniform rows fall below the strict threshold -> zero mask
    uniform = Tensor(np.full((8, 8), 1.0 / 8))
    mask_ok = np.all(threshold_mask(uniform, 8).data == 0.0)
    from mamba_fusion.tme import enhance
    e_x = enhance(h_x, uniform, threshold_mask(uniform, 8), h_t)
    conservative_ok = np.array_equal(e_x.data, h_x.data)

    pred = Parameter(rng.standard_normal((6, 4)), name="pred")
    clean = Tensor(rng.standard_normal((6, 4)))
    p_t = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0])
    with Tape():
        backward(recon_loss(clean, pred, p_t))
    grad_ok = (np.all(pred.grad[p_t.astype(bool)] == 0.0)
               and np.any(pred.grad[~p_t.astype(bool)] != 0.0))

    half = recon_loss(Tensor(np.zeros((1, 1))), Tensor(np.array([[0.5]])),
                      np.zeros(1))
    value_ok = abs(float(half.data) - 0.125) < 1e-15
    _report(5, "similarity rows sum to 1 (1e-9); strict 1/L threshold "
               "zeroes uniform rows (E_x == H_x exactly); reconstruction "
               "gradient vanishes at observed positions; diff 0.5 -> 0.125",
            rows_ok and mask_ok and conservative_ok and grad_ok and value_ok)


# ---------------------------------------------------------------------------
# 6. Corruption protocol
# ---------------------------------------------------------------------------

def test_acceptance_06_corruption_protocol(synthetic_256):
    ds = synthetic_256
    s = ds.samples[0]
    unk = ds.unknown_text_vector

    clean = corrupt_sample(s, CorruptionConfig(mode="test_fixed", rate=0.0,
                                               seed=1), unk)
    identity_ok = (np.array_equal(clean.x_t, s.x_t)
                   and np.array_equal(clean.x_v, s.x_v)
                   and np.array_equal(clean.x_a, s.x_a)
                   and np.all(clean.p_t == 1.0))

    count_ok = True
    for rate in SWEEP_RATES:
        cs = corrupt_sample(s, CorruptionConfig(mode="test_fixed", rate=rate,
                                                seed=2), unk)
        for mask, x in ((cs.p_t, s.x_t), (cs.p_v, s.x_v), (cs.p_a, s.x_a)):
            count_ok &= int((mask == 0).sum()) == round(rate * x.shape[0])

    try:
        CorruptionConfig(mode="test_fixed", rate=1.0)
        reject_ok = False
    except ValueError:
        reject_ok = True

    cm = corrupt_sample(s, CorruptionConfig(
        mode="complete_missing", missing_modalities=frozenset({"t"}),
        seed=3), unk)
    cm_ok = (np.all(cm.p_t == 0.0)
             and all(np.array_equal(row, unk) for row in cm.x_t)
             and np.array_equal(cm.x_v, s.x_v)
             and np.array_equal(cm.x_a, s.x_a))

    cfg = CorruptionConfig(mode="train_uncertain", seed=9)
    a = corrupt_sample(s, cfg, unk, sample_index=4, epoch=6)
    b = corrupt_sample(s, cfg, unk, sample_index=4, epoch=6)
    repro_ok = (np.array_equal(a.x_t, b.x_t)
                and np.array_equal(a.p_v, b.p_v)
                and np.array_equal(a.x_a, b.x_a))
    _report(6, "corruption protocol: r=0 identity, round(r*T) counts, "
               "r=1.0 rejected, complete-missing text zeroes P_t only, "
               "bitwise reproducible",
            identity_ok and count_ok and reject_ok and cm_ok and repro_ok)


# ---------------------------------------------------------------------------
# 7. Toy-task learning
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_acceptance_07_toy_task_learning(synthetic_256, trained_variants):
    ds = synthetic_256
    subset = ds.split("train")[:32]
    model = build_model("desk", seed=0)
    # desk-scale optimizer constants (same AdamW/warmup/cosine protocol);
    # 150 epochs used of the 500-epoch budget
    cfg = TrainConfig(lr=2e-3, epochs=150, batch_size=8, seed=0,
                      lambda_rec=0.7)
    train(model, subset, cfg, ds.unknown_text_vector)
    mae = evaluate_fixed(model, subset, ds.unknown_text_vector, 0.0)["mae"]

    test_samples = ds.split("test")
    acc_lo, acc_hi = [], []
    for seed in _SEEDS:
        full = trained_variants[(seed, "full")]
        acc_hi.append(evaluate_fixed(full, test_samples,
                                     ds.unknown_text_vector, 0.0,
                                     seed=seed)["acc2_pos"])
        acc_lo.append(evaluate_fixed(full, test_samples,
                                     ds.unknown_text_vector, 0.9,
                                     seed=seed)["acc2_pos"])
    trend_ok = float(np.mean(acc_hi)) > float(np.mean(acc_lo))
    _report(7, "32-sample subset overfits to train MAE < 0.1 within the "
               "500-epoch budget; mean held-out Acc-2 at r=0 exceeds r=0.9 "
               "over seeds {0,1,2}",
            mae < 0.1 and trend_ok,
            f"train MAE {mae:.3f} after 150 epochs; Acc-2 "
            f"{np.mean(acc_hi):.3f} vs {np.mean(acc_lo):.3f}")


# ---------------------------------------------------------------------------
# 8. Ablation direction
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_acceptance_08_ablation_direction(synthetic_256, trained_variants):
    """Held-out MAE averaged over the missing-rate sweep (the same
    averaging the ablation comparison is defined over), mean over seeds.

    Caveat stated in the output: the enhancement effect is far above
    seed-to-seed noise, but the reconstruction effect at desk scale is
    not — its direction holds for this frozen protocol by a margin two
    orders of magnitude below the seed spread, so it should be read as
    "does not hurt", not as a confirmed improvement.
    """
    ds = synthetic_256
    test_samples = ds.split("test")
    mean_mae = {}
    for name in ("full", "no_enh", "no_rec"):
        maes = []
        for seed in _SEEDS:
            report = evaluate_sweep(trained_variants[(seed, name)],
                                    test_samples, ds.unknown_text_vector,
                                    seed=seed)
            maes.append(report.averaged["mae"])
        mean_mae[name] = float(np.mean(maes))
    ok = (mean_mae["no_enh"] > mean_mae["full"]
          and mean_mae["no_rec"] > mean_mae["full"])
    _report(8, "disabling enhancement and disabling reconstruction each "
               "raise held-out sweep-averaged MAE vs the full model "
               "(mean over seeds {0,1,2}; reconstruction margin is within "
               "seed noise — see docstring)",
            ok,
            f"full {mean_mae['full']:.4f}, no-enhancement "
            f"{mean_mae['no_enh']:.4f}, no-reconstruction "
            f"{mean_mae['no_rec']:.4f}")


# ---------------------------------------------------------------------------
# 9. Complexity argument
# ---------------------------------------------------------------------------

def test_acceptance_09_complexity_argument():
    scan_ok = all(
        1.9 <= macs_selective_scan(2 * l, 32, 8) / macs_selective_scan(l, 32, 8)
        <= 2.1 for l in (64, 128, 512))
    attn_ok = all(
        3.8 <= (macs_attention_interaction(2 * l, 4 * l, 32, 4)
                / macs_attention_interaction(l, 2 * l, 32, 4))
        <= 4.2 for l in (64, 128, 512))
    import dataclasses
    cfg = PRESETS["desk"]
    trans_cfg = dataclasses.replace(cfg, use_attention=True)
    crossover_ok = (model_macs(trans_cfg, length=512)["total"]
                    > model_macs(cfg, length=512)["total"])

    # instrumented validation: analytic formula == counted multiplies
    from mamba_fusion.autodiff import MacCounter
    rng = np.random.default_rng(0)
    instr_ok = True
    for length, channels, state_dim in ((7, 4, 3), (16, 8, 5)):
        params = SSMParams(channels, state_dim, rng, name="p")
        conv_w = Tensor(rng.standard_normal((4, channels)))
        conv_b = Tensor(np.zeros(channels))
        u = Tensor(rng.standard_normal((length, channels)))
        for mode in ("recurrent", "parallel"):
            for reverse in (False, True):
                with MacCounter() as counter:
                    scan_direction_node(u, conv_w, conv_b, params, mode,
                                        reverse)
                # the direction's width-4 conv and SiLU, then the scan
                instr_ok &= counter.macs == 5 * length * channels \
                    + macs_selective_scan(length, channels, state_dim, mode)
    _report(9, "scan cost doubles with L (ratio in [1.9, 2.1]), "
               "cross-attention quadruples ([3.8, 4.2]), attention variant "
               "costs more at L=512, formulas match instrumented counts "
               "exactly",
            scan_ok and attn_ok and crossover_ok and instr_ok)


# ---------------------------------------------------------------------------
# 10. Protocol output shape
# ---------------------------------------------------------------------------

def test_acceptance_10_sweep_output_shape(synthetic_256):
    ds = synthetic_256
    model = build_model("desk", seed=0)
    report = evaluate_sweep(model, ds.split("test")[:12],
                            ds.unknown_text_vector)
    rates = [row["r"] for row in report.rows]
    shape_ok = rates == [round(0.1 * i, 1) for i in range(10)]
    avg_ok = all(
        abs(report.averaged[k] - np.mean([row[k] for row in report.rows]))
        <= 1e-12
        for k in report.averaged if k != "r")
    _report(10, "sweep emits 10 per-r rows (0.0..0.9) plus an averaged row "
                "equal to their arithmetic mean within 1e-12",
            shape_ok and avg_ok)


# ---------------------------------------------------------------------------
# 11. Determinism
# ---------------------------------------------------------------------------

def test_acceptance_11_determinism(tmp_path):
    import hashlib
    from mamba_fusion.cli import main

    def run(tag):
        root = tmp_path / tag
        assert main(["generate", "--n", "24", "--seed", "3",
                     "--out", str(root / "data")]) == 0
        assert main(["train", "--data", str(root / "data"), "--epochs", "2",
                     "--seed", "5", "--set", "train.batch_size=8",
                     "--out", str(root / "run")]) == 0
        assert main(["sweep", "--data", str(root / "data"),
                     "--checkpoint", str(root / "run" / "checkpoint"),
                     "--out", str(root / "sweep")]) == 0
        h = hashlib.sha256()
        for rel in ("run/checkpoint/tensors.bin", "run/checkpoint/manifest.txt",
                    "sweep/sweep.csv", "sweep/sweep.json"):
            h.update((root / rel).read_bytes())
        return h.hexdigest()

    first, second = run("a"), run("b")
    _report(11, "identical (config, seed, dataset) produce hash-identical "
                "checkpoints and metric files across two runs",
            first == second, first[:16])
