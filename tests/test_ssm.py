"""Tests for discretization, the three scan strategies, and the Bi-Mamba block."""

import numpy as np
import pytest

import mamba_fusion.ssm as ssm
from mamba_fusion.autodiff import (
    MacCounter, Parameter, Tape, Tensor, add, backward, concat, div, exp,
    finite_difference_check, flip_time, matmul, mul, neg, reshape, slicer,
    softplus, sub, sum_,
)
from mamba_fusion.model import build_model
from mamba_fusion.ssm import (
    BiMamba, LTIParams, SSMParams, _scan_forward_parallel, _selective_scan,
    combine, depthwise_conv_causal, discretize, linear_recurrence_parallel,
    linear_recurrence_sequential, scan_kernel, scan_parallel, scan_recurrent,
)


# ---------------------------------------------------------------------------
# Tape-path oracles: the primitive compositions the fused nodes replace
# ---------------------------------------------------------------------------

def tape_selective_scan(u, params, mode):
    length, channels = u.shape
    n = params.state_dim
    delta = softplus(add(matmul(u, params.w_delta), params.b_delta))
    b_sel = matmul(u, params.w_b)
    c_sel = matmul(u, params.w_c)
    a = reshape(neg(exp(params.a_log)), (1, channels, n))
    a_bar = exp(mul(reshape(delta, (length, channels, 1)), a))
    b_bar = mul(div(sub(a_bar, Tensor(1.0)), a),
                reshape(b_sel, (length, 1, n)))
    bx = mul(b_bar, reshape(u, (length, channels, 1)))
    recurrence = linear_recurrence_sequential if mode == "recurrent" \
        else linear_recurrence_parallel
    h = recurrence(a_bar, bx)
    y = sum_(mul(h, reshape(c_sel, (length, 1, n))), axis=2)
    return add(y, mul(u, params.d_skip))


def tape_conv_causal(u, weight, bias):
    length, channels = u.shape
    acc = None
    for k in range(weight.shape[0]):
        wk = slicer(weight, (slice(k, k + 1),))
        if k == 0:
            shifted = u
        elif k >= length:
            shifted = Tensor(np.zeros((length, channels)))
        else:
            pad = Tensor(np.zeros((k, channels)))
            shifted = concat([pad, slicer(u, (slice(0, length - k),))],
                             axis=0)
        term = mul(shifted, wk)
        acc = term if acc is None else add(acc, term)
    return add(acc, bias)


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
    with pytest.raises(ValueError, match="negative"):
        discretize(np.array(1.0), np.array(1.0), np.array(0.5))
    with pytest.raises(ValueError, match="positive"):
        discretize(np.array(-1.0), np.array(1.0), np.array(0.0))


def test_discretize_range():
    rng = np.random.default_rng(3)
    a = -np.exp(rng.uniform(-2, 2, size=(4, 5)))
    d = np.exp(rng.uniform(-4, 0, size=(4, 5)))
    a_bar, _ = discretize(a, np.ones((4, 5)), d)
    assert np.all(a_bar.data > 0) and np.all(a_bar.data < 1)


# ---------------------------------------------------------------------------
# Recurrence and the combine operator
# ---------------------------------------------------------------------------

def test_hand_unrolled_scalar_recurrence():
    # a_bar = 0.5, b_bar = 0.5, c = 1, d_skip = 0, x = [1, 1] -> y = [0.5, 0.75]
    params = LTIParams(a=[[-1.0]], b=[1.0], c=[1.0],
                       delta=[np.log(2.0)], d_skip=[0.0])
    for scan in (scan_recurrent, scan_parallel, scan_kernel):
        y = scan(np.array([1.0, 1.0]), params)
        np.testing.assert_allclose(y, [[0.5], [0.75]], rtol=1e-12)


def test_zero_input_gives_zero_output():
    rng = np.random.default_rng(5)
    params = LTIParams.random(rng, channels=3, state_dim=4)
    y = scan_recurrent(np.zeros((6, 3)), params)
    np.testing.assert_array_equal(y, np.zeros((6, 3)))


def test_kernel_single_step_case():
    params = LTIParams(a=[[-0.7]], b=[2.0], c=[3.0], delta=[0.4], d_skip=[0.5])
    a_bar, b_bar = params.discretized()
    x = np.array([1.3])
    y = scan_kernel(x, params)
    np.testing.assert_allclose(
        y, [[3.0 * b_bar[0, 0] * 1.3 + 0.5 * 1.3]], rtol=1e-12)


def test_integrator_case_is_prefix_sum():
    # a_bar = 1, b_bar = 1 reached through the raw recurrence primitive
    x = np.random.default_rng(8).standard_normal((9, 2, 1))
    for rec in (linear_recurrence_sequential, linear_recurrence_parallel):
        h = rec(Tensor(np.ones_like(x)), Tensor(x))
        np.testing.assert_allclose(h.data, np.cumsum(x, axis=0), rtol=1e-12)


def test_three_way_scan_equivalence_lti():
    rng = np.random.default_rng(21)
    for _ in range(25):
        length = int(rng.integers(1, 65))
        n = int(rng.integers(1, 17))
        channels = int(rng.integers(1, 5))
        params = LTIParams.random(rng, channels, n)
        x = rng.standard_normal((length, channels))
        y_r = scan_recurrent(x, params)
        y_p = scan_parallel(x, params)
        y_k = scan_kernel(x, params)
        np.testing.assert_allclose(y_p, y_r, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(y_k, y_r, rtol=1e-9, atol=1e-12)


def test_combine_is_associative():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p, q, r = [(Tensor(rng.standard_normal(4)),
                    Tensor(rng.standard_normal(4))) for _ in range(3)]
        left = combine(combine(p, q), r)
        right = combine(p, combine(q, r))
        np.testing.assert_allclose(left[0].data, right[0].data, atol=1e-12)
        np.testing.assert_allclose(left[1].data, right[1].data, atol=1e-12)


def test_scan_kernel_rejects_selective_params():
    params = SSMParams(4, 3, np.random.default_rng(0), name="s")
    with pytest.raises(ValueError, match="time-invariant"):
        scan_kernel(Tensor(np.zeros((5, 4))), params)


def test_recurrence_diverging_state_names_timestep():
    a = Tensor(np.full((4, 1, 1), 1e300))
    b = Tensor(np.full((4, 1, 1), 1e300))
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="timestep"):
            linear_recurrence_sequential(a, b)


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

def _random_selective(seed, length=10, channels=6, state_dim=5):
    rng = np.random.default_rng(seed)
    params = SSMParams(channels, state_dim, rng, name="ssm")
    u = Tensor(rng.standard_normal((length, channels)))
    return params, u


def test_selective_scan_parallel_matches_recurrent():
    for seed in range(5):
        params, u = _random_selective(seed)
        y_r = scan_recurrent(u, params)
        y_p = scan_parallel(u, params)
        np.testing.assert_allclose(y_p.data, y_r.data, rtol=1e-9, atol=1e-12)


def test_selective_scan_length_one():
    params, _ = _random_selective(7, length=1)
    u = Tensor(np.random.default_rng(2).standard_normal((1, 6)))
    np.testing.assert_array_equal(scan_recurrent(u, params).data,
                                  scan_parallel(u, params).data)


def test_selective_scan_gradients_recurrent_vs_parallel():
    params, u = _random_selective(17)
    grads = {}
    for mode in ("recurrent", "parallel"):
        for p in params.parameters():
            p.zero_grad()
        with Tape():
            backward(sum_(_selective_scan(u, params, mode)))
        grads[mode] = [p.grad.copy() for p in params.parameters()]
    for g_r, g_p in zip(grads["recurrent"], grads["parallel"]):
        np.testing.assert_allclose(g_p, g_r, rtol=1e-6, atol=1e-10)


def _scan_inputs(seed, length, channels, state_dim):
    params, _ = _random_selective(seed, length, channels, state_dim)
    rng = np.random.default_rng(seed + 100)
    params.d_skip.data = rng.standard_normal(channels)
    params.a_log.data = params.a_log.data + rng.uniform(-0.5, 0.5,
                                                        (channels, state_dim))
    u = Parameter(rng.standard_normal((length, channels)), name="u")
    return params, u, rng.standard_normal((length, channels))


SCAN_SHAPES = [(10, 6, 5), (1, 3, 2), (17, 4, 3), (33, 8, 4)]


@pytest.mark.parametrize("mode", ["recurrent", "parallel"])
@pytest.mark.parametrize("shape", SCAN_SHAPES)
def test_fused_scan_forward_is_bitwise_the_tape_path(mode, shape):
    params, u, _ = _scan_inputs(3, *shape)
    np.testing.assert_array_equal(_selective_scan(u, params, mode).data,
                                  tape_selective_scan(u, params, mode).data)


@pytest.mark.parametrize("mode", ["recurrent", "parallel"])
@pytest.mark.parametrize("shape", SCAN_SHAPES)
def test_fused_scan_gradients_match_the_tape_path(mode, shape):
    params, u, weight = _scan_inputs(5, *shape)
    inputs = [u] + params.parameters()
    fused = _grads_of(lambda: _selective_scan(u, params, mode), inputs,
                      weight)
    tape = _grads_of(lambda: tape_selective_scan(u, params, mode), inputs,
                     weight)
    for t, g_f, g_t in zip(inputs, fused, tape):
        np.testing.assert_allclose(g_f, g_t, rtol=1e-9, err_msg=t.name)


def test_fused_scan_counts_the_tape_paths_multiplies():
    params, u, _ = _scan_inputs(9, 12, 5, 3)
    for mode in ("recurrent", "parallel"):
        counts = []
        for fn in (_selective_scan, tape_selective_scan):
            with MacCounter() as counter:
                fn(u, params, mode)
            counts.append(counter.macs)
        assert counts[0] == counts[1]


def test_selective_scan_gradients_match_finite_differences():
    params, u, weight = _scan_inputs(23, 6, 3, 4)
    for mode in ("recurrent", "parallel"):
        err = finite_difference_check(
            lambda: sum_(mul(_selective_scan(u, params, mode),
                             Tensor(weight))),
            [u] + params.parameters())
        assert err < 1e-4, f"{mode}: {err}"


def whole_array_sweep(a, b):
    """Doubling-stride sweep over the whole arrays, one level at a time."""
    aa = a.copy()
    h = b.copy()
    d = 1
    while d < a.shape[0]:
        h[d:] = aa[d:] * h[:-d] + h[d:]
        aa[d:] = aa[d:] * aa[:-d]
        d *= 2
    return h


@pytest.mark.parametrize("shape", [(21, 7, 5), (1, 3, 2), (64, 4, 3),
                                   (50, 40, 12)])
def test_blocked_parallel_sweep_is_bitwise_the_whole_array_sweep(
        monkeypatch, shape):
    rng = np.random.default_rng(12)
    a = rng.uniform(0.2, 1.0, size=shape)
    b = rng.standard_normal(shape)
    whole = whole_array_sweep(a, b)
    np.testing.assert_array_equal(_scan_forward_parallel(a, b), whole)
    # one column per slab, then a width that does not divide the columns
    for block_bytes in (1, shape[0] * 8 * 4):
        monkeypatch.setattr(ssm, "SWEEP_BLOCK_BYTES", block_bytes)
        np.testing.assert_array_equal(_scan_forward_parallel(a, b), whole)


def test_ssm_params_invariants():
    rng = np.random.default_rng(41)
    params = SSMParams(8, 6, rng, name="p")
    a = -np.exp(params.a_log.data)
    assert np.all(a < 0)
    u = rng.standard_normal((20, 8))
    delta = np.logaddexp(0.0, u @ params.w_delta.data + params.b_delta.data)
    assert np.all(delta > 0)


def test_shared_a_log_is_the_same_object():
    rng = np.random.default_rng(1)
    owner = SSMParams(4, 3, rng, name="owner")
    borrower = SSMParams(4, 3, rng, shared_a_log=owner.a_log, name="borrower")
    assert borrower.a_log is owner.a_log
    assert owner.a_log not in borrower.own_parameters()


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
    out = block.branch(x)
    np.testing.assert_allclose(out.data, out.data[::-1], atol=1e-10)


def test_bimamba_rejects_non_finite_input():
    block = BiMamba(4, 2, np.random.default_rng(0))
    with pytest.raises(FloatingPointError):
        block(Tensor(np.full((3, 4), np.nan)))


def test_bimamba_rejects_bad_expansion():
    with pytest.raises(ValueError, match="expansion"):
        BiMamba(4, 2, np.random.default_rng(0), expansion=0)


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
    rng = np.random.default_rng(length * 10 + width)
    u = Parameter(rng.standard_normal((length, 5)), name="u")
    weight = Parameter(rng.standard_normal((width, 5)), name="w")
    bias = Parameter(rng.standard_normal(5), name="b")
    np.testing.assert_array_equal(
        depthwise_conv_causal(u, weight, bias).data,
        tape_conv_causal(u, weight, bias).data)
    g = rng.standard_normal((length, 5))
    inputs = [u, weight, bias]
    fused = _grads_of(lambda: depthwise_conv_causal(u, weight, bias),
                      inputs, g)
    tape = _grads_of(lambda: tape_conv_causal(u, weight, bias), inputs, g)
    for t, g_f, g_t in zip(inputs, fused, tape):
        np.testing.assert_allclose(g_f, g_t, rtol=1e-9, err_msg=t.name)
    for fn in (depthwise_conv_causal, tape_conv_causal):
        with MacCounter() as counter:
            fn(u, weight, bias)
        assert counter.macs == width * length * 5
    err = finite_difference_check(
        lambda: sum_(mul(depthwise_conv_causal(u, weight, bias), Tensor(g))),
        inputs)
    assert err < 1e-4


def test_desk_bimamba_records_19_tape_nodes():
    # layer norm; input projection (matmul, bias, two slices); two time
    # flips; per direction one conv, one silu and one scan node; the gate
    # (sum, silu, product); output projection (matmul, bias); residual add
    block = build_model("desk", seed=0).latent.blocks[0]
    x = Tensor(np.random.default_rng(0).standard_normal((16, 32)))
    with Tape() as tape:
        block(x)
    assert len(tape.records) == 19


def test_flip_time_matches_numpy_flip():
    x = np.arange(12.0).reshape(4, 3)
    np.testing.assert_array_equal(flip_time(Tensor(x)).data, x[::-1])
