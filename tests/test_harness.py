"""Tests for the corruption protocol, losses, metrics, and missing-rate sweep."""

import numpy as np
import pytest

from mamba_fusion.autodiff import (
    Parameter, Tape, Tensor, backward, finite_difference_check, mul,
)
from mamba_fusion.datagen import generate
from mamba_fusion.harness import (
    SWEEP_RATES, CorruptionConfig, corrupt_batch, corrupt_sample,
    evaluate_sweep, metrics, pearson, task_loss_tensor, total_loss,
)
from oracles import tape_task_loss


@pytest.fixture(scope="module")
def dataset():
    return generate(12, seed=100)


# ---------------------------------------------------------------------------
# Corruption
# ---------------------------------------------------------------------------

def test_rate_zero_is_identity(dataset):
    cfg = CorruptionConfig(mode="test_fixed", rate=0.0, seed=1)
    s = dataset.samples[0]
    cs = corrupt_sample(s, cfg, dataset.unknown_text_vector)
    np.testing.assert_array_equal(cs.x_t, s.x_t)
    np.testing.assert_array_equal(cs.x_v, s.x_v)
    np.testing.assert_array_equal(cs.x_a, s.x_a)
    for mask in (cs.p_t, cs.p_v, cs.p_a):
        assert np.all(mask == 1.0)


def test_replaced_count_is_round_of_rate_times_length(dataset):
    s = dataset.samples[1]
    for rate in SWEEP_RATES:
        cfg = CorruptionConfig(mode="test_fixed", rate=rate, seed=2)
        cs = corrupt_sample(s, cfg, dataset.unknown_text_vector)
        for mask, x in ((cs.p_t, s.x_t), (cs.p_v, s.x_v), (cs.p_a, s.x_a)):
            assert int((mask == 0).sum()) == round(rate * x.shape[0])


def test_half_rate_on_fifty_steps_replaces_exactly_25():
    from mamba_fusion.datagen import ShapeSpec
    ds = generate(1, seed=5, shapes=ShapeSpec(t_text=50, d_text=8,
                                              t_visual=50, d_visual=4,
                                              t_audio=50, d_audio=4))
    cfg = CorruptionConfig(mode="test_fixed", rate=0.5, seed=3)
    cs = corrupt_sample(ds.samples[0], cfg, ds.unknown_text_vector)
    assert int((cs.p_t == 0).sum()) == 25
    assert int((cs.p_v == 0).sum()) == 25


def test_av_replacement_is_zero_and_text_is_unknown_vector(dataset):
    cfg = CorruptionConfig(mode="test_fixed", rate=0.4, seed=4)
    s = dataset.samples[2]
    cs = corrupt_sample(s, cfg, dataset.unknown_text_vector)
    np.testing.assert_array_equal(cs.x_v[cs.p_v == 0], 0.0)
    np.testing.assert_array_equal(cs.x_a[cs.p_a == 0], 0.0)
    for row in cs.x_t[cs.p_t == 0]:
        np.testing.assert_array_equal(row, dataset.unknown_text_vector)


def test_full_rate_is_rejected():
    with pytest.raises(ValueError, match="1.0"):
        CorruptionConfig(mode="test_fixed", rate=1.0)
    with pytest.raises(ValueError):
        CorruptionConfig(mode="test_fixed", rate=-0.1)


def test_complete_missing_text_only(dataset):
    cfg = CorruptionConfig(mode="complete_missing",
                           missing_modalities=frozenset({"t"}), seed=5)
    s = dataset.samples[3]
    cs = corrupt_sample(s, cfg, dataset.unknown_text_vector)
    assert np.all(cs.p_t == 0.0)
    for row in cs.x_t:
        np.testing.assert_array_equal(row, dataset.unknown_text_vector)
    np.testing.assert_array_equal(cs.x_v, s.x_v)
    np.testing.assert_array_equal(cs.x_a, s.x_a)
    assert np.all(cs.p_v == 1.0) and np.all(cs.p_a == 1.0)


def test_unknown_modality_name_rejected():
    with pytest.raises(ValueError, match="modalities"):
        CorruptionConfig(mode="complete_missing",
                         missing_modalities=frozenset({"x"}))


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        CorruptionConfig(mode="sometimes")


def test_corruption_is_bitwise_reproducible(dataset):
    cfg = CorruptionConfig(mode="train_uncertain", seed=11)
    a = corrupt_batch(dataset.samples, cfg, dataset.unknown_text_vector,
                      epoch=3)
    b = corrupt_batch(dataset.samples, cfg, dataset.unknown_text_vector,
                      epoch=3)
    for x, y in zip(a, b):
        assert np.array_equal(x.x_t, y.x_t)
        assert np.array_equal(x.x_v, y.x_v)
        assert np.array_equal(x.p_a, y.p_a)


def test_corruption_varies_across_epochs_and_samples(dataset):
    cfg = CorruptionConfig(mode="train_uncertain", seed=11)
    e1 = corrupt_sample(dataset.samples[0], cfg, dataset.unknown_text_vector,
                        epoch=1)
    e2 = corrupt_sample(dataset.samples[0], cfg, dataset.unknown_text_vector,
                        epoch=2)
    assert not (np.array_equal(e1.p_t, e2.p_t)
                and np.array_equal(e1.p_v, e2.p_v)
                and np.array_equal(e1.p_a, e2.p_a))


def test_clean_text_is_carried_alongside(dataset):
    cfg = CorruptionConfig(mode="test_fixed", rate=0.8, seed=6)
    s = dataset.samples[4]
    cs = corrupt_sample(s, cfg, dataset.unknown_text_vector)
    np.testing.assert_array_equal(cs.clean_x_t, s.x_t)
    assert cs.y == s.y


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def test_task_loss_gradient_is_two_diff_over_n():
    preds = [Parameter(np.asarray(v), name=f"p{i}")
             for i, v in enumerate([2.0, 4.0])]
    labels = [1.0, 2.0]
    err = finite_difference_check(lambda: task_loss_tensor(preds, labels),
                                  preds)
    assert err < 1e-6
    np.testing.assert_allclose([float(p.grad) for p in preds],
                               [2 * (2 - 1) / 2, 2 * (4 - 2) / 2], rtol=1e-12)


def _task_value_and_grads(loss_fn, preds, labels):
    ps = [Parameter(np.asarray(v), name=f"p{i}") for i, v in enumerate(preds)]
    with Tape():
        loss = loss_fn(ps, labels)
        backward(mul(loss, Tensor(0.37)))
    return loss.data, [p.grad for p in ps]


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_task_loss_node_equals_tape_composition(n):
    rng = np.random.default_rng(n)
    preds = 3.0 * rng.standard_normal(n)
    labels = list(rng.uniform(-3.0, 3.0, size=n))
    node = _task_value_and_grads(task_loss_tensor, preds, labels)
    tape = _task_value_and_grads(tape_task_loss, preds, labels)
    np.testing.assert_array_equal(node[0], tape[0])
    np.testing.assert_array_equal(node[1], tape[1])


def test_task_loss_records_one_tape_node():
    preds = [Parameter(np.asarray(v)) for v in (0.5, -1.0, 2.0)]
    with Tape() as tape:
        task_loss_tensor(preds, [0.0, 1.0, 1.5])
    assert len(tape.records) == 1


def _total(task, rec, lam):
    return float(total_loss(Tensor(task), Tensor(rec), lam).data)


def test_total_loss_values_and_linearity():
    assert _total(2.5, 0.125, 0.0) == 2.5
    assert _total(2.5, 0.125, 1.0) == 2.625
    l1 = _total(1.0, 0.5, 0.3)
    l2 = _total(1.0, 0.5, 0.6)
    l3 = _total(1.0, 0.5, 0.9)
    np.testing.assert_allclose(l3 - l2, l2 - l1, rtol=1e-12)


def test_total_loss_rejects_negative_weight():
    with pytest.raises(ValueError):
        _total(1.0, 1.0, -0.1)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_seven_class_rounding_oracle():
    out = metrics([1.0, -3.0], [1.4, -2.6], scheme="mosi")
    assert out["acc7"] == 1.0


def test_perfect_prediction():
    out = metrics([1.0, -2.0, 0.5], [1.0, -2.0, 0.5], scheme="mosi")
    assert out["mae"] == 0.0
    assert out["corr"] == pytest.approx(1.0)
    assert out["corr_degenerate"] == 0.0


def test_sign_flipped_prediction():
    out = metrics([-1.0, 1.0], [1.0, -1.0], scheme="mosi")
    assert out["acc2_pos"] == 0.0
    assert out["mae"] == 2.0


def test_binary_metrics_conventions():
    # zero labels excluded from neg/pos, counted as non-negative otherwise
    out = metrics([0.0, 1.0, -1.0], [0.5, 0.5, 0.5], scheme="mosi")
    assert out["acc2_pos"] == 0.5
    assert out["acc2_nonneg"] == pytest.approx(2 / 3)


def test_degenerate_correlation_flagged():
    corr, flag = pearson([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
    assert corr == 0.0 and flag
    out = metrics([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], scheme="mosi")
    assert out["corr"] == 0.0 and out["corr_degenerate"] == 1.0


def test_sims_scheme_bins():
    out = metrics([-0.9, -0.4, 0.0, 0.4, 0.9],
                  [-0.7, -0.3, 0.1, 0.5, 0.7], scheme="sims")
    assert out["acc5"] == 1.0
    assert np.isnan(out["acc7"])


def test_metrics_invariant_to_sample_order():
    rng = np.random.default_rng(0)
    y = rng.uniform(-3, 3, 20)
    y_hat = y + rng.normal(0, 0.5, 20)
    base = metrics(y, y_hat, scheme="mosi")
    perm = rng.permutation(20)
    shuffled = metrics(y[perm], y_hat[perm], scheme="mosi")
    for k in base:
        assert base[k] == pytest.approx(shuffled[k], abs=1e-12)


def test_metrics_error_cases():
    with pytest.raises(ValueError, match="empty"):
        metrics([], [], scheme="mosi")
    with pytest.raises(ValueError, match="scheme"):
        metrics([1.0], [1.0], scheme="imdb")
    with pytest.raises(ValueError, match="mismatch"):
        metrics([1.0, 2.0], [1.0], scheme="mosi")


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

class _ConstantModel:
    def predict(self, x_t, x_v, x_a):
        return 0.25


def test_sweep_rows_and_average(dataset):
    report = evaluate_sweep(_ConstantModel(), dataset.samples,
                            dataset.unknown_text_vector)
    rates = [row["r"] for row in report.rows]
    assert rates == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    for key, value in report.averaged.items():
        if key == "r":
            assert value == "avg"
            continue
        expected = np.mean([row[key] for row in report.rows])
        assert abs(value - expected) <= 1e-12
    # constant predictor: correlation degenerate at every rate
    assert all(row["corr"] == 0.0 and row["corr_degenerate"] == 1.0
               for row in report.rows)


def test_report_serialization_round_trips(dataset):
    import json
    report = evaluate_sweep(_ConstantModel(), dataset.samples[:4],
                            dataset.unknown_text_vector)
    csv_text = report.to_csv()
    lines = csv_text.strip().split("\n")
    assert len(lines) == 12  # header + 10 rates + averaged
    parsed = json.loads(report.to_json())
    assert len(parsed["rows"]) == 10
    assert parsed["averaged"]["r"] == "avg"
