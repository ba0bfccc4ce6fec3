"""Tests for discretization, the three scan strategies, and the Bi-Mamba block."""

import tracemalloc

import numpy as np
import pytest

import mamba_fusion.ssm as ssm
from mamba_fusion.autodiff import (
    MacCounter, Parameter, Tape, Tensor, add, backward,
    finite_difference_check, mul, no_grad,
)
from mamba_fusion.model import build_model
from mamba_fusion.ssm import (
    BiMamba, SSMParams, _adjoint_sweep,
    depthwise_conv_causal, linear_recurrence_parallel,
    linear_recurrence_sequential,
)
from mamba_fusion.tc_mamba import SharedTransitionPair
from oracles import (
    LTIParams, discretize, flip_time, lti_scan, reverse_sweep_adjoint,
    scan_direction_node, silu, step_by_step_sweep, sum_, tape_bimamba,
    tape_conv_causal, tape_scan_direction, whole_array_sweep,
)


def _grads_of(fn, inputs, weight):
    """Gradients of sum(fn() * weight) with respect to every input."""
    for t in inputs:
        t.grad = None
    with Tape():
        backward(sum_(mul(fn(), Tensor(weight))))
    return [t.grad.copy() for t in inputs]


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

def test_discretize_scalar_closed_form():
    a_bar, b_bar = discretize(np.array(-1.0), np.array(1.0),
                              np.array(np.log(2.0)))
    np.testing.assert_allclose(a_bar.data, 0.5, rtol=1e-15)
    np.testing.assert_allclose(b_bar.data, 0.5, rtol=1e-15)


def test_discretize_second_closed_form():
    a_bar, b_bar = discretize(np.array(-2.0), np.array(3.0), np.array(1.0))
    np.testing.assert_allclose(a_bar.data, np.exp(-2.0), rtol=1e-15)
    np.testing.assert_allclose(b_bar.data, 3.0 * (1 - np.exp(-2.0)) / 2.0,
                               rtol=1e-15)


def test_discretize_identity_limit():
    a_bar, b_bar = discretize(np.array(-1.5), np.array(2.0), np.array(1e-10))
    assert abs(a_bar.data - 1.0) < 1e-8
    assert abs(b_bar.data) < 1e-8


def test_discretize_matches_high_precision_scalar_oracle():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a = -np.exp(rng.uniform(-3, 2))
        d = np.exp(rng.uniform(-5, 1))
        b = rng.standard_normal()
        a_bar, b_bar = discretize(np.array(a), np.array(b), np.array(d))
        ref_a = np.exp(np.float128(d) * np.float128(a))
        ref_b = (ref_a - 1) / np.float128(a) * np.float128(b)
        assert abs(a_bar.data - float(ref_a)) <= 1e-12 * abs(float(ref_a))
        assert abs(b_bar.data - float(ref_b)) <= 1e-12 * max(1e-300,
                                                             abs(float(ref_b)))


def test_discretize_rejects_bad_domains():
    # the model computes both, so a bad value is a numeric failure
    with pytest.raises(FloatingPointError, match="negative"):
        discretize(np.array(1.0), np.array(1.0), np.array(0.5))
    with pytest.raises(FloatingPointError, match="positive"):
        discretize(np.array(-1.0), np.array(1.0), np.array(0.0))


def test_discretize_range():
    rng = np.random.default_rng(3)
    a = -np.exp(rng.uniform(-2, 2, size=(4, 5)))
    d = np.exp(rng.uniform(-4, 0, size=(4, 5)))
    a_bar, _ = discretize(a, np.ones((4, 5)), d)
    assert np.all(a_bar.data > 0) and np.all(a_bar.data < 1)


# ---------------------------------------------------------------------------
# Recurrence and the time-invariant oracle
# ---------------------------------------------------------------------------

def test_hand_unrolled_scalar_recurrence():
    # a_bar = 0.5, b_bar = 0.5, c = 1, d_skip = 0, x = [1, 1] -> y = [0.5, 0.75]
    params = LTIParams(a=[[-1.0]], b=[1.0], c=[1.0],
                       delta=[np.log(2.0)], d_skip=[0.0])
    for mode in ("recurrent", "parallel", "kernel"):
        y = lti_scan(np.array([1.0, 1.0]), params, mode)
        np.testing.assert_allclose(y, [[0.5], [0.75]], rtol=1e-12)


def test_zero_input_gives_zero_output():
    rng = np.random.default_rng(5)
    params = LTIParams.random(rng, channels=3, state_dim=4)
    y = lti_scan(np.zeros((6, 3)), params, "recurrent")
    np.testing.assert_array_equal(y, np.zeros((6, 3)))


def test_kernel_single_step_case():
    params = LTIParams(a=[[-0.7]], b=[2.0], c=[3.0], delta=[0.4], d_skip=[0.5])
    a_bar, b_bar = params.discretized()
    x = np.array([1.3])
    y = lti_scan(x, params, "kernel")
    np.testing.assert_allclose(
        y, [[3.0 * b_bar[0, 0] * 1.3 + 0.5 * 1.3]], rtol=1e-12)


def test_integrator_case_is_prefix_sum():
    # a_bar = 1, b_bar = 1 reached through the public recurrences
    x = np.random.default_rng(8).standard_normal((9, 2, 1))
    for rec in (linear_recurrence_sequential, linear_recurrence_parallel):
        h = rec(np.ones_like(x), x.copy())
        np.testing.assert_allclose(h, np.cumsum(x, axis=0), rtol=1e-12)


def test_three_way_scan_equivalence_lti():
    rng = np.random.default_rng(21)
    for _ in range(25):
        length = int(rng.integers(1, 65))
        n = int(rng.integers(1, 17))
        channels = int(rng.integers(1, 5))
        params = LTIParams.random(rng, channels, n)
        x = rng.standard_normal((length, channels))
        y_r = lti_scan(x, params, "recurrent")
        y_p = lti_scan(x, params, "parallel")
        y_k = lti_scan(x, params, "kernel")
        np.testing.assert_allclose(y_p, y_r, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(y_k, y_r, rtol=1e-9, atol=1e-12)


def test_lti_scan_runs_the_models_sweeps(monkeypatch):
    calls = []

    def counted(mode, sweep):
        def wrapper(a, b):
            calls.append(mode)
            return sweep(a, b)
        return wrapper

    monkeypatch.setattr(ssm, "linear_recurrence_sequential",
                        counted("recurrent", linear_recurrence_sequential))
    monkeypatch.setattr(ssm, "linear_recurrence_parallel",
                        counted("parallel", linear_recurrence_parallel))
    params = LTIParams.random(np.random.default_rng(4), channels=2,
                              state_dim=3)
    x = np.random.default_rng(5).standard_normal((7, 2))
    for mode in ("recurrent", "parallel", "kernel"):
        lti_scan(x, params, mode)
    assert calls == ["recurrent", "parallel"]


def test_oracle_discretization_runs_the_models_zoh(monkeypatch):
    calls = []

    def counted(a, delta):
        calls.append(np.shape(a))
        return zoh(a, delta)

    zoh = ssm._zoh
    monkeypatch.setattr(ssm, "_zoh", counted)
    discretize(np.array(-1.0), np.array(1.0), np.array(0.5))
    params = LTIParams.random(np.random.default_rng(4), channels=2,
                              state_dim=3)  # __post_init__ checks domains
    params.discretized()
    lti_scan(np.ones((4, 2)), params, "kernel")
    assert calls == [(), (2, 3), (2, 3), (2, 3)]


def test_lti_params_reject_bad_domains():
    with pytest.raises(FloatingPointError, match="negative"):
        LTIParams(a=[[0.5]], b=[1.0], c=[1.0], delta=[0.1], d_skip=[0.0])
    with pytest.raises(FloatingPointError, match="positive"):
        LTIParams(a=[[-0.5]], b=[1.0], c=[1.0], delta=[0.0], d_skip=[0.0])


def test_recurrence_diverging_state_names_timestep():
    a = np.full((4, 1, 1), 1e300)
    b = np.full((4, 1, 1), 1e300)
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="timestep"):
            linear_recurrence_sequential(a, b)


@pytest.mark.parametrize("shape", [(21, 7, 5), (1, 3, 2), (2, 1, 1),
                                   (50, 40, 12)])
def test_scan_adjoint_matches_the_reverse_sweep_oracle(shape):
    rng = np.random.default_rng(14)
    a = rng.uniform(0.2, 1.0, size=shape)
    g = rng.standard_normal(shape)
    lam = _adjoint_sweep(a, g.copy())
    lam_r = reverse_sweep_adjoint(a, g, "recurrent")
    np.testing.assert_array_equal(lam, lam_r)
    lam_p = reverse_sweep_adjoint(a, g, "parallel")
    np.testing.assert_allclose(lam, lam_p, rtol=1e-12)


@pytest.mark.parametrize("rec,mode", [
    (linear_recurrence_sequential, "recurrent"),
    (linear_recurrence_parallel, "parallel")], ids=["recurrent", "parallel"])
def test_only_the_scan_node_records_on_the_tape(rec, mode):
    # the recurrence runs on plain arrays; the selective scan is the one
    # tape node that calls it
    rng = np.random.default_rng(6)
    a = rng.uniform(0.2, 1.0, size=(9, 3, 2))
    b = rng.standard_normal((9, 3, 2))
    weights, u = _random_selective(6)
    for reverse in (False, True):
        with Tape() as tape:
            h = rec(a, b)
            assert type(h) is np.ndarray and tape.records == []
            scan_direction_node(u, *weights, mode, reverse)
        assert len(tape.records) == 1


@pytest.mark.parametrize("rec,oracle", [
    (linear_recurrence_sequential, step_by_step_sweep),
    (linear_recurrence_parallel, whole_array_sweep)],
    ids=["recurrent", "parallel"])
@pytest.mark.parametrize("shape", [(1, 3, 2), (21, 7, 5), (50, 40, 12)])
def test_recurrence_writes_its_states_over_bx(monkeypatch, rec, oracle,
                                              shape):
    # four columns per slab, so the parallel sweep runs over many slabs and
    # the last one is narrower at (21, 7, 5)
    monkeypatch.setattr(ssm, "SWEEP_BLOCK_BYTES", shape[0] * 8 * 4)
    rng = np.random.default_rng(3)
    a = rng.uniform(0.2, 1.0, size=shape)
    b = rng.standard_normal(shape)
    expected = oracle(a, b)
    h = rec(a, b)
    assert h is b
    np.testing.assert_array_equal(h, expected)


@pytest.mark.parametrize("rec", [linear_recurrence_sequential,
                                 linear_recurrence_parallel])
def test_recurrence_rejects_a_bx_it_cannot_sweep_in_place(rec):
    a = np.full((4, 3, 2), 0.5)
    for a_bar, bx, message in (
            (np.full((4, 2, 3), 0.5), np.ones((4, 3, 2)), "shape mismatch"),
            (a, np.ones((4, 3, 4))[:, :, ::2], "C-contiguous")):
        with pytest.raises(ValueError, match=message) as err:
            rec(a_bar, bx)
        assert "\n" not in str(err.value)


def test_recurrence_diverging_adjoint_names_timestep():
    a = np.full((4, 1, 1), 1e300)
    g = np.full((4, 1, 1), 1e300)
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="timestep 2"):
            _adjoint_sweep(a, g)


def _plant_divergence(case, length=12, t0=5):
    """Transitions and inputs of a (length, 3, 4) sweep whose column (1, 2)
    goes non-finite at timestep t0: a nan, or an inf that the next exact-zero
    transition turns into 0 * inf = nan."""
    rng = np.random.default_rng(4)
    a = rng.uniform(0.2, 1.0, size=(length, 3, 4))
    b = rng.standard_normal((length, 3, 4))
    if case == "nan":
        b[t0, 1, 2] = np.nan
    else:
        b[t0, 1, 2] = np.inf
        a[t0 + 1, 1, 2] = 0.0
        # the adjoint sweep carries lam_t0 into lam_{t0-1} through a_t0
        a[t0, 1, 2] = 0.0
    return a, b


def _bad_rows(x):
    return ~np.isfinite(x).reshape(len(x), -1).all(axis=1)


@pytest.mark.parametrize("case", ["nan", "inf-then-zero"])
def test_forward_sweep_row_check_names_the_full_checks_timestep(case):
    a, b = _plant_divergence(case)
    h = np.empty_like(b)
    h[0] = b[0]
    with np.errstate(invalid="ignore"):
        for t in range(1, len(a)):
            h[t] = a[t] * h[t - 1] + b[t]
        # the full check names the first non-finite timestep
        first = int(np.argmax(_bad_rows(h)))
        assert first == 5 and _bad_rows(h)[first:].all()
        # the sweep, which writes the states over b, names the same one
        with pytest.raises(FloatingPointError,
                           match=f"diverged at timestep {first}$"):
            linear_recurrence_sequential(a, b)


@pytest.mark.parametrize("case", ["nan", "inf-then-zero"])
def test_adjoint_sweep_row_check_names_the_full_checks_timestep(case):
    a, g = _plant_divergence(case)
    lam = g.copy()
    with np.errstate(invalid="ignore"):
        for t in range(len(a) - 2, -1, -1):
            lam[t] = g[t] + a[t + 1] * lam[t + 1]
        # the full check names the latest non-finite timestep
        last = len(a) - 1 - int(np.argmax(_bad_rows(lam)[::-1]))
        assert last == 5 and _bad_rows(lam)[:last + 1].all()
        with pytest.raises(FloatingPointError,
                           match=f"adjoint diverged at timestep {last}$"):
            _adjoint_sweep(a, g.copy())


def test_stability_bound_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(20):
        params = LTIParams.random(rng, channels=2, state_dim=3)
        a_bar, b_bar = params.discretized()
        x = rng.standard_normal((32, 2))
        h = np.zeros((2, 3))
        bound = (np.abs(b_bar[None] * x[:, :, None]).max()
                 / (1.0 - a_bar.max()))
        for t in range(32):
            h = a_bar * h + b_bar * x[t][:, None]
            assert np.abs(h).max() <= bound + 1e-12


# ---------------------------------------------------------------------------
# Selective scan (input-dependent selection)
# ---------------------------------------------------------------------------

def _random_selective(seed, length=10, channels=6, state_dim=5, width=4):
    """A direction's conv weight, conv bias and SSM parameters, and an
    input u."""
    rng = np.random.default_rng(seed)
    params = SSMParams(channels, state_dim, rng, name="ssm")
    s = 1.0 / np.sqrt(width)
    conv_w = Parameter(rng.uniform(-s, s, (width, channels)), name="conv_w")
    conv_b = Parameter(rng.uniform(-s, s, channels), name="conv_b")
    u = Tensor(rng.standard_normal((length, channels)))
    return (conv_w, conv_b, params), u


def _inputs(u, weights):
    conv_w, conv_b, params = weights
    return [u, conv_w, conv_b] + params.parameters()


# each scan test runs both directions in a loop, over u and over u flipped
# in time
REVERSE = (False, True)


def test_selective_scan_parallel_matches_recurrent():
    for seed in range(5):
        weights, u = _random_selective(seed)
        for reverse in REVERSE:
            y_r = scan_direction_node(u, *weights, "recurrent", reverse)
            y_p = scan_direction_node(u, *weights, "parallel", reverse)
            np.testing.assert_allclose(y_p.data, y_r.data, rtol=1e-9,
                                       atol=1e-12)


def test_selective_scan_length_one():
    weights, _ = _random_selective(7, length=1)
    u = Tensor(np.random.default_rng(2).standard_normal((1, 6)))
    for reverse in REVERSE:
        np.testing.assert_array_equal(
            scan_direction_node(u, *weights, "recurrent", reverse).data,
            scan_direction_node(u, *weights, "parallel", reverse).data)


def test_selective_scan_gradients_recurrent_vs_parallel():
    weights, u = _random_selective(17)
    conv_w, conv_b, params = weights
    inputs = [conv_w, conv_b] + params.parameters()
    for reverse in REVERSE:
        grads = {}
        for mode in ("recurrent", "parallel"):
            for p in inputs:
                p.zero_grad()
            with Tape():
                backward(sum_(scan_direction_node(u, *weights, mode, reverse)))
            grads[mode] = [p.grad.copy() for p in inputs]
        for g_r, g_p in zip(grads["recurrent"], grads["parallel"]):
            np.testing.assert_allclose(g_p, g_r, rtol=1e-6, atol=1e-10)


def _scan_inputs(seed, length, channels, state_dim):
    weights, _ = _random_selective(seed, length, channels, state_dim)
    params = weights[2]
    rng = np.random.default_rng(seed + 100)
    params.d_skip.data = rng.standard_normal(channels)
    params.a_log.data = params.a_log.data + rng.uniform(-0.5, 0.5,
                                                        (channels, state_dim))
    u = Parameter(rng.standard_normal((length, channels)), name="u")
    return weights, u, rng.standard_normal((length, channels))


# the last three are the desk, sims and mosi scan shapes
SCAN_SHAPES = [(10, 6, 5), (1, 3, 2), (17, 4, 3), (33, 8, 4), (16, 32, 8),
               (39, 256, 16), (50, 512, 12)]


@pytest.mark.parametrize("mode", ["recurrent", "parallel"])
@pytest.mark.parametrize("shape", SCAN_SHAPES)
def test_fused_scan_forward_is_bitwise_the_tape_path(mode, shape):
    weights, u, _ = _scan_inputs(3, *shape)
    for reverse in REVERSE:
        np.testing.assert_array_equal(
            scan_direction_node(u, *weights, mode, reverse).data,
            tape_scan_direction(u, *weights, mode, reverse).data)


@pytest.mark.parametrize("mode", ["recurrent", "parallel"])
@pytest.mark.parametrize("shape", SCAN_SHAPES)
def test_fused_scan_gradients_match_the_tape_path(mode, shape):
    weights, u, weight = _scan_inputs(5, *shape)
    inputs = _inputs(u, weights)
    for reverse in REVERSE:
        fused = _grads_of(
            lambda: scan_direction_node(u, *weights, mode, reverse), inputs,
            weight)
        tape = _grads_of(
            lambda: tape_scan_direction(u, *weights, mode, reverse), inputs,
            weight)
        for t, g_f, g_t in zip(inputs, fused, tape):
            np.testing.assert_allclose(g_f, g_t, rtol=1e-9,
                                       err_msg=f"{t.name} reverse={reverse}")


def _logaddexp_sum_forward(x, params, mode):
    """The scan forward over the SiLU output x with softplus as
    np.logaddexp and the readout as a broadcast multiply summed over the
    state axis, and the summed magnitude of each output's terms."""
    z = x @ params.w_delta.data + params.b_delta.data
    b_sel = x @ params.w_b.data
    c_sel = x @ params.w_c.data
    a_bar, bx = ssm._zoh(-np.exp(params.a_log.data),
                         np.logaddexp(0.0, z)[:, :, None])
    bx *= b_sel[:, None, :]
    bx *= x[:, :, None]
    h = (linear_recurrence_sequential if mode == "recurrent"
         else linear_recurrence_parallel)(a_bar, bx)
    terms = h * c_sel[:, None, :]
    skip = x * params.d_skip.data
    # the magnitude of what each output sums, which bounds its rounding
    scale = np.abs(terms).sum(axis=2) + np.abs(skip)
    return terms.sum(axis=2) + skip, scale


@pytest.mark.parametrize("mode", ["recurrent", "parallel"])
@pytest.mark.parametrize("shape", [(16, 32, 8), (50, 512, 12), (39, 256, 16)],
                         ids=["desk", "mosi", "sims"])
def test_fused_scan_forward_is_close_to_the_logaddexp_sum_forward(mode,
                                                                  shape):
    # the stacked readout and the plain-pass softplus change only the float
    # order of a sum and of one transcendental, so each output moves by a
    # few ulps of the terms it sums; an output that cancels to near zero
    # can move by more than 1e-12 of itself
    weights, u, _ = _scan_inputs(13, *shape)
    conv_w, conv_b, params = weights
    for reverse in REVERSE:
        u_in = u.data[::-1] if reverse else u.data
        x = silu(tape_conv_causal(Tensor(u_in), conv_w, conv_b)).data
        old, scale = _logaddexp_sum_forward(x, params, mode)
        y = scan_direction_node(u, *weights, mode, reverse).data
        err = np.abs((y[::-1] if reverse else y) - old)
        assert np.all(err <= 1e-12 * scale), np.max(err / scale)


def test_softplus_is_close_to_logaddexp():
    # each grid's ends and the tiny grid's middle are the edge cases
    z = np.concatenate([np.linspace(-700.0, 700.0, 20001),
                        np.linspace(-30.0, 30.0, 6001),
                        np.linspace(-1e-300, 1e-300, 11), [-0.0]])
    np.testing.assert_allclose(ssm._softplus(z), np.logaddexp(0.0, z),
                               rtol=1e-15, atol=0.0)
    huge = ssm._softplus(np.array([1e308, -1e308]))
    assert np.all(np.isfinite(huge))
    np.testing.assert_array_equal(huge, [1e308, 0.0])


def test_fused_scan_counts_the_tape_paths_multiplies():
    weights, u, _ = _scan_inputs(9, 12, 5, 3)
    for mode in ("recurrent", "parallel"):
        for reverse in REVERSE:
            counts = []
            for fn in (scan_direction_node, tape_scan_direction):
                with MacCounter() as counter:
                    fn(u, *weights, mode, reverse)
                counts.append(counter.macs)
            assert counts[0] == counts[1]


def test_selective_scan_gradients_match_finite_differences():
    weights, u, weight = _scan_inputs(23, 6, 3, 4)
    for mode in ("recurrent", "parallel"):
        for reverse in REVERSE:
            err = finite_difference_check(
                lambda: sum_(mul(
                    scan_direction_node(u, *weights, mode, reverse),
                    Tensor(weight))),
                _inputs(u, weights))
            assert err < 1e-4, f"{mode} reverse={reverse}: {err}"


PEAK_SHAPE = (50, 256, 12)


def _peak_full_arrays(fn):
    """tracemalloc's peak while fn runs, in (L, C, N) float64 arrays."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (np.prod(PEAK_SHAPE) * 8)


@pytest.mark.parametrize("mode", ["recurrent", "parallel"])
def test_scan_backward_peak_memory(mode):
    # the recomputed exp(delta * a) (turned into lam * (exp - 1)/a in
    # place), the adjoint buffer lam and B * x / a (turned into
    # lam * (h + B * x / a) in place) are the three (L, N, C) arrays one
    # backward needs, and numpy's broadcast buffers and the (L, C) arrays,
    # the recomputed conv and sigmoid among them, bring the peak to about
    # 3.3; a fourth, such as a d(a_bar) array or the product of a broadcast
    # sum over l, pushes it past 3.5
    weights, u, weight = _scan_inputs(8, *PEAK_SHAPE)
    for reverse in REVERSE:
        with Tape() as tape:
            scan_direction_node(u, *weights, mode, reverse)
        (_, _, bwd), = tape.records
        peak = _peak_full_arrays(lambda: bwd(weight))
        assert peak < 3.5, f"reverse={reverse}: peak {peak:.2f} full arrays"


@pytest.mark.parametrize("mode", ["recurrent", "parallel"])
def test_scan_forward_peak_memory(monkeypatch, mode):
    # exp(delta * a) and B_bar * x, which the sweep overwrites with the
    # states h, are the two (L, N, C) arrays a forward needs, and the
    # peak is about 2.3; each of the parallel sweep's four slab buffers is
    # at most SWEEP_BLOCK_BYTES, made small here; a separate h takes the
    # peak to about 3.2
    monkeypatch.setattr(ssm, "SWEEP_BLOCK_BYTES", 8 * 1024)
    weights, u, _ = _scan_inputs(8, *PEAK_SHAPE)
    for reverse in REVERSE:
        def forward():
            with no_grad():
                scan_direction_node(u, *weights, mode, reverse)

        peak = _peak_full_arrays(forward)
        assert peak < 2.5, f"reverse={reverse}: peak {peak:.2f} full arrays"


@pytest.mark.parametrize("shape", [(21, 7, 5), (1, 3, 2), (64, 4, 3),
                                   (50, 40, 12)])
def test_blocked_parallel_sweep_is_bitwise_the_whole_array_sweep(
        monkeypatch, shape):
    rng = np.random.default_rng(12)
    a = rng.uniform(0.2, 1.0, size=shape)
    b = rng.standard_normal(shape)
    whole = whole_array_sweep(a, b)
    np.testing.assert_array_equal(linear_recurrence_parallel(a, b.copy()),
                                  whole)
    # one column per slab, then a width that does not divide the columns
    for block_bytes in (1, shape[0] * 8 * 4):
        monkeypatch.setattr(ssm, "SWEEP_BLOCK_BYTES", block_bytes)
        np.testing.assert_array_equal(
            linear_recurrence_parallel(a, b.copy()), whole)


def test_ssm_params_invariants():
    rng = np.random.default_rng(41)
    params = SSMParams(8, 6, rng, name="p")
    a = -np.exp(params.a_log.data)
    assert np.all(a < 0)
    u = rng.standard_normal((20, 8))
    delta = np.logaddexp(0.0, u @ params.w_delta.data + params.b_delta.data)
    assert np.all(delta > 0)


def test_shared_a_log_is_the_same_object():
    # streams share a_log by assignment after construction; a_log is filled
    # without the rng, so both start from the same values anyway
    owner = SSMParams(4, 3, np.random.default_rng(1), name="owner")
    borrower = SSMParams(4, 3, np.random.default_rng(1), name="borrower")
    np.testing.assert_array_equal(borrower.a_log.data, owner.a_log.data)
    borrower.a_log = owner.a_log
    assert borrower.a_log is owner.a_log
    assert borrower.parameters()[0] is owner.a_log
    assert [p.name for p in borrower.parameters()][1:] == [
        f"borrower.{k}" for k in ("w_delta", "b_delta", "w_b", "w_c",
                                  "d_skip")]


# ---------------------------------------------------------------------------
# Bi-Mamba block
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("length", [1, 5, 39, 50])
def test_bimamba_preserves_shape(length):
    rng = np.random.default_rng(length)
    block = BiMamba(8, 4, rng, expansion=2)
    x = Tensor(rng.standard_normal((length, 8)))
    assert block(x).shape == (length, 8)


def test_bimamba_zero_projections_give_zero_branch():
    rng = np.random.default_rng(0)
    block = BiMamba(6, 3, rng)
    block.w_out.data = np.zeros_like(block.w_out.data)
    block.b_out.data = np.zeros_like(block.b_out.data)
    x = Tensor(np.zeros((4, 6)))
    np.testing.assert_array_equal(block(x).data, np.zeros((4, 6)))


def test_bimamba_time_symmetry_with_tied_directions():
    rng = np.random.default_rng(9)
    block = BiMamba(6, 4, rng, expansion=1)
    block.bwd = block.fwd  # tie the two directions
    half = rng.standard_normal((3, 6))
    x = Tensor(np.concatenate([half, half[::-1]], axis=0))  # X == flip(X)
    out = block(x)  # the residual adds the symmetric x
    np.testing.assert_allclose(out.data, out.data[::-1], atol=1e-10)


def test_bimamba_rejects_non_finite_input():
    block = BiMamba(4, 2, np.random.default_rng(0))
    with pytest.raises(FloatingPointError):
        block(Tensor(np.full((3, 4), np.nan)))


def test_bimamba_rejects_bad_expansion():
    with pytest.raises(ValueError, match="expansion"):
        BiMamba(4, 2, np.random.default_rng(0), expansion=0)


def test_bimamba_rejects_unknown_scan_mode():
    with pytest.raises(ValueError, match="scan mode 'kernel'"):
        BiMamba(4, 2, np.random.default_rng(0), scan_mode="kernel")


@pytest.mark.parametrize("mode", ["recurrent", "parallel"])
def test_bimamba_calls_the_module_level_hooks(monkeypatch, mode):
    # the benchmark's trace wraps these module attributes; a forward must
    # reach them through the module, once per direction
    calls = {}

    def counting(name):
        fn = getattr(ssm, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("linear_recurrence_sequential", "linear_recurrence_parallel",
                 "depthwise_conv_causal"):
        monkeypatch.setattr(ssm, name, counting(name))
    block = BiMamba(4, 2, np.random.default_rng(0), scan_mode=mode)
    block(Tensor(np.random.default_rng(1).standard_normal((5, 4))))
    recurrence = "linear_recurrence_sequential" if mode == "recurrent" \
        else "linear_recurrence_parallel"
    assert calls == {recurrence: 2, "depthwise_conv_causal": 2}


def test_bimamba_gradients_match_finite_differences():
    rng = np.random.default_rng(77)
    block = BiMamba(4, 3, rng, expansion=1)
    x = Tensor(rng.standard_normal((5, 4)))
    err = finite_difference_check(lambda: sum_(mul(block(x), x)),
                                  block.parameters(), per_coordinate=6)
    assert err < 1e-4


def test_bimamba_op_count_grows_linearly_in_length():
    # measured in recurrent mode: the parallel scan spends an extra log(L)
    # factor of redundant multiplies in exchange for parallel depth
    rng = np.random.default_rng(55)
    block = BiMamba(8, 4, rng, expansion=1, scan_mode="recurrent")

    def macs_at(length):
        x = Tensor(np.random.default_rng(1).standard_normal((length, 8)))
        with MacCounter() as c:
            block(x)
        return c.macs

    ratio = macs_at(64) / macs_at(32)
    assert 1.9 <= ratio <= 2.1


@pytest.mark.parametrize("length,width", [(9, 4), (3, 4), (1, 4), (6, 1)])
def test_fused_conv_matches_the_tape_path(length, width):
    # the conv's backward runs inside the scan-direction node, whose
    # gradients the tape-path and finite-difference tests check
    rng = np.random.default_rng(length * 10 + width)
    u = Tensor(rng.standard_normal((length, 5)))
    weight = Tensor(rng.standard_normal((width, 5)))
    bias = Tensor(rng.standard_normal(5))
    with MacCounter() as fused:
        out = depthwise_conv_causal(u.data, weight.data, bias.data)
    with MacCounter() as tape:
        np.testing.assert_array_equal(
            out, tape_conv_causal(u, weight, bias).data)
    assert fused.macs == tape.macs == width * length * 5


def test_desk_bimamba_records_one_tape_node():
    # the layer norm, input projection, both scan directions, gate, output
    # projection and residual run inside one node; tape_bimamba records 13
    block = build_model("desk", seed=0).latent.blocks[0]
    x = Tensor(np.random.default_rng(0).standard_normal((16, 32)))
    for call, nodes in ((BiMamba.__call__, 1), (tape_bimamba, 13)):
        with Tape() as tape:
            call(block, x)
        assert len(tape.records) == nodes


# (d_model, state_dim, expansion, conv_width, length) of each case; the
# "grads-held" case starts x and every parameter with a gradient, as a
# batch's later samples find them, so the order in which a tensor sums its
# contributions shows; "tied-directions" gives both directions one
# SSMParams, and "shared-a_log" runs the two streams of a
# SharedTransitionPair, which share their a_log Parameters
BLOCK_CASES = {
    "expansion-1": (6, 3, 1, 4, 7),
    "expansion-2": (6, 3, 2, 4, 7),
    "length-1": (6, 3, 2, 4, 1),
    "conv-wider-than-length": (5, 2, 2, 6, 3),
    "grads-held": (6, 3, 2, 4, 7),
    "tied-directions": (4, 3, 2, 4, 6),
    "shared-a_log": (6, 3, 2, 4, 7),
}


def _block_case(case, mode):
    """The case's blocks, their inputs and output probes, and the
    gradients that the parameters and inputs hold beforehand, by name."""
    d_model, state_dim, expansion, width, length = BLOCK_CASES[case]
    rng = np.random.default_rng(sorted(BLOCK_CASES).index(case))
    kwargs = dict(expansion=expansion, conv_width=width, scan_mode=mode)
    if case == "shared-a_log":
        pair = SharedTransitionPair(d_model, state_dim, rng, **kwargs)
        blocks = [pair.text, pair.partner]
    else:
        blocks = [BiMamba(d_model, state_dim, rng, **kwargs)]
    if case == "tied-directions":
        blocks[0].bwd = blocks[0].fwd
    # move the zero biases and unit scales off their initial values
    for block in blocks:
        for p in block.parameters():
            p.data = p.data + rng.uniform(-0.2, 0.2, p.shape)
    xs = [Parameter(rng.standard_normal((length, d_model)), name=f"x{i}")
          for i in range(len(blocks))]
    probes = [Tensor(rng.standard_normal((length, d_model))) for _ in xs]
    held = [p for b in blocks for p in b.parameters()] + xs
    priors = {t.name: rng.standard_normal(t.shape) for t in held} \
        if case == "grads-held" else {}
    return blocks, xs, probes, priors


def _run_blocks(call, blocks, xs, probes, priors):
    """Outputs, then the gradients of every parameter and input, after
    backward through sum(call(block, x) * probe) over the blocks."""
    params = list({id(p): p for b in blocks for p in b.parameters()}.values())
    for t in params + xs:
        prior = priors.get(t.name)
        t.grad = None if prior is None else prior.copy()
    with Tape():
        outs = [call(b, x) for b, x in zip(blocks, xs)]
        loss = sum_(mul(outs[0], probes[0]))
        for out, probe in zip(outs[1:], probes[1:]):
            loss = add(loss, sum_(mul(out, probe)))
        backward(loss)
    return ([o.data for o in outs],
            [(t.name, t.grad) for t in params + xs])


@pytest.mark.parametrize("mode", ["recurrent", "parallel"])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_bimamba_node_is_bitwise_the_tape_path(case, mode):
    blocks, xs, probes, priors = _block_case(case, mode)
    outs, grads = _run_blocks(BiMamba.__call__, blocks, xs, probes, priors)
    outs_t, grads_t = _run_blocks(tape_bimamba, blocks, xs, probes, priors)
    for out, out_t in zip(outs, outs_t):
        np.testing.assert_array_equal(out, out_t)
    for (name, g), (_, g_t) in zip(grads, grads_t):
        np.testing.assert_array_equal(g, g_t, err_msg=name)


def test_bimamba_node_fails_where_the_tape_path_fails():
    # a non-finite input projection is caught by the matmul's check, before
    # the conv, in both
    block = BiMamba(4, 2, np.random.default_rng(0))
    block.w_in.data[0, 0] = np.inf
    x = Tensor(np.random.default_rng(1).standard_normal((5, 4)))
    for call in (BiMamba.__call__, tape_bimamba):
        with pytest.raises(FloatingPointError,
                           match="^matmul: non-finite values encountered$"):
            call(block, x)


def test_flip_time_matches_numpy_flip():
    x = np.arange(12.0).reshape(4, 3)
    np.testing.assert_array_equal(flip_time(Tensor(x)).data, x[::-1])
