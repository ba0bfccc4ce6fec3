"""Tests for the tape-based reverse-mode autodiff substrate."""

import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mamba_fusion
from mamba_fusion import autodiff
from mamba_fusion.autodiff import (
    MacCounter, Parameter, Tape, Tensor, add, backward,
    finite_difference_check, matmul, max_over_time, mul, no_grad, relu,
    reshape,
)
from oracles import (
    concat, div, exp, flip_time, l2_normalize_lastdim, layer_norm, neg,
    silu, slicer, softmax_lastdim, softplus, sub, sum_, transpose,
)


# ---------------------------------------------------------------------------
# Forward values
# ---------------------------------------------------------------------------

def test_exp_identity_case():
    out = exp(Tensor([[0.0]]))
    assert out.data.tolist() == [[1.0]]


def test_softmax_symmetry_case():
    out = softmax_lastdim(Tensor([0.0, 0.0, 0.0]), 1.0)
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 4))
    out = matmul(Tensor(a), Tensor(b))
    assert out.shape == (2, 4)
    oracle = np.zeros((2, 4))
    for i in range(2):
        for j in range(4):
            for k in range(3):
                oracle[i, j] += a[i, k] * b[k, j]
    np.testing.assert_allclose(out.data, oracle, rtol=1e-12)


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(ValueError, match=r"matmul.*\(2, 3\).*\(4, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


@pytest.mark.parametrize("lead", [(3,), (2, 3)])
def test_stacked_matmul_equals_per_slice_products(lead):
    rng = np.random.default_rng(len(lead))
    a = rng.standard_normal(lead + (4, 5))
    b = rng.standard_normal(lead + (5, 6))
    with MacCounter() as counter:
        out = matmul(Tensor(a), Tensor(b))
    assert out.shape == lead + (4, 6)
    for idx in np.ndindex(*lead):
        np.testing.assert_array_equal(
            out.data[idx], matmul(Tensor(a[idx]), Tensor(b[idx])).data)
    assert counter.macs == out.size * 5


def test_stacked_matmul_gradients_match_central_differences():
    for trial in range(3):
        rng = np.random.default_rng([9090, trial])
        a = Parameter(rng.standard_normal((3, 2, 4)), name="a")
        b = Parameter(rng.standard_normal((3, 4, 5)), name="b")
        probe = Tensor(rng.standard_normal((3, 2, 5)))
        err = finite_difference_check(
            lambda: sum_(mul(matmul(a, b), probe)), [a, b])
        assert err < 1e-4


@pytest.mark.parametrize("shape_a, shape_b", [
    ((2, 3, 4), (3, 4, 5)),      # leading axes differ
    ((3, 4), (2, 4, 5)),         # ndim differs (no broadcasting)
    ((2, 3, 4), (4, 5)),
    ((4,), (4,)),                # 1-D operands
    ((2, 4), (4,)),
])
def test_matmul_rejects_unstackable_shapes(shape_a, shape_b):
    pattern = rf"matmul.*{re.escape(str(shape_a))}.*{re.escape(str(shape_b))}"
    with pytest.raises(ValueError, match=pattern):
        matmul(Tensor(np.zeros(shape_a)), Tensor(np.zeros(shape_b)))


def test_div_by_zero_raises():
    with pytest.raises(FloatingPointError, match="div"):
        div(Tensor([1.0]), Tensor([0.0]))


# ---------------------------------------------------------------------------
# Backward basics
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    p = Parameter([1.0, 2.0, 3.0], name="p")
    with Tape():
        backward(sum_(p))
    np.testing.assert_array_equal(p.grad, np.ones(3))


def test_backward_sum_of_squares():
    p = Parameter([1.0, -2.0], name="p")
    with Tape():
        backward(sum_(mul(p, p)))
    np.testing.assert_allclose(p.grad, [2.0, -4.0], rtol=1e-12)


def test_backward_requires_scalar_loss():
    p = Parameter([1.0, 2.0])
    with Tape():
        out = mul(p, p)
        with pytest.raises(ValueError, match="scalar"):
            backward(out)


def test_backward_twice_without_rerecording_raises():
    p = Parameter([1.0])
    with Tape():
        loss = sum_(p)
        backward(loss)
        with pytest.raises(RuntimeError, match="consumed"):
            backward(loss)


def test_backward_without_tape_raises():
    p = Parameter([1.0])
    loss = Tensor(0.0)
    with pytest.raises(RuntimeError, match="no active tape"):
        backward(loss)
    del p


def test_gradient_accumulates_across_two_losses():
    p = Parameter([1.0, 2.0], name="p")
    with Tape():
        backward(sum_(mul(p, p)))          # grad 2p = [2, 4]
    with Tape():
        backward(sum_(p))                  # grad +1 each
    np.testing.assert_allclose(p.grad, [3.0, 5.0], rtol=1e-12)
    p.zero_grad()
    assert p.grad is None


def test_shared_parameter_used_twice_accumulates():
    p = Parameter([[1.0, 2.0], [3.0, 4.0]], name="w")
    x = Tensor([[1.0, 1.0]])
    with Tape():
        # two paths through the same parameter
        y = add(sum_(matmul(x, p)), sum_(matmul(x, p)))
        backward(y)
    np.testing.assert_allclose(p.grad, 2.0 * np.ones((2, 2)))


def test_no_grad_suspends_recording():
    p = Parameter([1.0, 2.0], name="p")
    with Tape():
        with no_grad():
            _ = mul(p, p)
        loss = sum_(p)
        backward(loss)
    np.testing.assert_array_equal(p.grad, np.ones(2))


def test_broadcast_bias_gradient_shape():
    w = Parameter(np.ones((3, 4)), name="w")
    b = Parameter(np.zeros(4), name="b")
    with Tape():
        backward(sum_(add(w, b)))
    assert b.grad.shape == (4,)
    np.testing.assert_array_equal(b.grad, 3.0 * np.ones(4))


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def test_fd_check_sum_of_squares():
    p = Parameter([1.0, 2.0, 3.0], name="p")
    err = finite_difference_check(lambda: sum_(mul(p, p)), [p])
    assert err < 1e-6


def test_fd_check_constant_function():
    p = Parameter([1.0, 2.0], name="p")
    err = finite_difference_check(lambda: Tensor(7.0) * Tensor(1.0), [p])
    assert err == 0.0
    assert p.grad is None


def test_fd_check_rejects_bad_eps():
    p = Parameter([1.0])
    with pytest.raises(ValueError, match="eps"):
        finite_difference_check(lambda: sum_(p), [p], eps=0.0)


# Every primitive's gradient against central differences at random points.
_UNARY_OPS = [
    ("exp", exp),
    ("softplus", softplus),
    ("silu", silu),
    ("neg", neg),
    ("softmax_lastdim", lambda t: softmax_lastdim(t, 0.7)),
    ("l2_normalize_lastdim", l2_normalize_lastdim),
    ("flip_time", flip_time),
    ("transpose", transpose),
    ("slice", lambda t: slicer(t, (slice(1, 3), slice(0, 2)))),
    ("reshape", lambda t: reshape(t, (12,))),
]


@pytest.mark.parametrize("name,op", _UNARY_OPS, ids=[n for n, _ in _UNARY_OPS])
def test_unary_primitive_gradients_match_central_differences(name, op):
    # 100+ random coordinates per primitive: ten points of a 4x3 operand
    for trial in range(10):
        rng = np.random.default_rng([abs(hash(name)) % 2**32, trial])
        p = Parameter(rng.standard_normal((4, 3)), name="p")
        with no_grad():
            probe = Tensor(rng.standard_normal(op(p).shape))
        err = finite_difference_check(lambda: sum_(mul(op(p), probe)), [p])
        assert err < 1e-4, f"{name} trial {trial}: {err}"


@pytest.mark.parametrize("name", ["relu", "max_over_time"])
def test_piecewise_primitive_gradients(name):
    # kink-free points: keep coordinates away from ties / zero
    op = relu if name == "relu" else max_over_time
    for trial in range(10):
        rng = np.random.default_rng([2**20 + len(name), trial])
        base = rng.standard_normal((5, 3))
        base[np.abs(base) < 0.05] = 0.2
        p = Parameter(base, name="p")
        err = finite_difference_check(lambda: sum_(op(p)), [p])
        assert err < 1e-4, f"{name} trial {trial}: {err}"


def test_binary_primitive_gradients():
    for trial in range(10):
        rng = np.random.default_rng([4242, trial])
        a = Parameter(rng.standard_normal((3, 4)), name="a")
        b = Parameter(rng.standard_normal((3, 4)) + 3.0, name="b")
        w = Parameter(rng.standard_normal((4, 2)), name="w")
        def f():
            s = add(sub(mul(a, a), div(a, b)), b)
            return sum_(matmul(s, w))
        err = finite_difference_check(f, [a, b, w])
        assert err < 1e-4


def test_layer_norm_gradient():
    for trial in range(5):
        rng = np.random.default_rng([777, trial])
        x = Parameter(rng.standard_normal((4, 6)), name="x")
        g = Parameter(rng.uniform(0.5, 1.5, 6), name="g")
        b = Parameter(rng.standard_normal(6), name="b")
        err = finite_difference_check(
            lambda: sum_(mul(layer_norm(x, g, b), Tensor(
                np.random.default_rng(trial).standard_normal((4, 6))))),
            [x, g, b])
        assert err < 1e-4


def test_concat_time_gradient_routes_to_pieces():
    a = Parameter([[1.0, 2.0]], name="a")
    b = Parameter([[3.0, 4.0], [5.0, 6.0]], name="b")
    w = Tensor([[1.0, 10.0], [100.0, 1000.0], [2.0, 20.0]])
    with Tape():
        backward(sum_(mul(concat([a, b], axis=0), w)))
    np.testing.assert_array_equal(a.grad, [[1.0, 10.0]])
    np.testing.assert_array_equal(b.grad, [[100.0, 1000.0], [2.0, 20.0]])


def test_max_over_time_gradient_goes_to_first_argmax():
    p = Parameter([[1.0, 5.0], [3.0, 5.0]], name="p")
    with Tape():
        backward(sum_(max_over_time(p)))
    np.testing.assert_array_equal(p.grad, [[0.0, 1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------

@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_flip_time_is_an_involution(seed):
    x = np.random.default_rng(seed).standard_normal((7, 3))
    out = flip_time(flip_time(Tensor(x)))
    assert np.array_equal(out.data, x)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_rows_sum_to_one_and_shift_invariant(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((5, 6)) * 5.0
    s = softmax_lastdim(Tensor(x), 1.0)
    np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(5), atol=1e-12)
    shifted = softmax_lastdim(Tensor(x + 123.456), 1.0)
    np.testing.assert_allclose(s.data, shifted.data, atol=1e-12)


@pytest.mark.parametrize("temperature", [0.07, 2.0])
@pytest.mark.parametrize("shape", [(5, 7), (4, 5, 7)])
def test_softmax_temperature_is_bitwise_the_division_it_folds(shape,
                                                              temperature):
    # one node against the composition it replaced: div, then softmax at 1.0
    rng = np.random.default_rng(len(shape))
    x = rng.standard_normal(shape)
    probe = Tensor(rng.standard_normal(shape))
    results = []
    for op in (lambda a: softmax_lastdim(a, temperature),
               lambda a: softmax_lastdim(div(a, Tensor(temperature)), 1.0)):
        a = Parameter(x, name="a")
        with Tape():
            out = op(a)
            backward(sum_(mul(out, probe)))
        results.append((out.data, a.grad))
    (folded, folded_grad), (composed, composed_grad) = results
    np.testing.assert_array_equal(folded, composed)
    np.testing.assert_array_equal(folded_grad, composed_grad)


def test_l2_normalize_rejects_zero_rows():
    with pytest.raises(FloatingPointError, match="zero-norm"):
        l2_normalize_lastdim(Tensor(np.zeros((2, 3))))


def test_tensor_operator_sugar_lifts_scalars():
    p = Parameter([2.0, 4.0], name="p")
    with Tape():
        backward(sum_(p * 3.0 + 1.0 + p * np.array([-1.0, 2.0])))
    np.testing.assert_array_equal(p.grad, [2.0, 5.0])


def test_reshape_of_a_contiguous_input_is_a_view():
    p = Parameter(np.arange(12.0).reshape(3, 4), name="p")
    weight = np.arange(12.0) - 5.0
    with Tape():
        out = reshape(p, (12,))
        backward(sum_(mul(out, Tensor(weight))))
    assert np.shares_memory(out.data, p.data)
    np.testing.assert_array_equal(p.grad, weight.reshape(3, 4))


def test_parameter_grad_starts_none():
    assert Parameter(np.ones((2, 2))).grad is None


def test_zero_grad_releases_the_gradient():
    p = Parameter(np.ones((2, 2)))
    with Tape():
        backward(sum_(mul(p, p)))
    p.zero_grad()
    assert p.grad is None


def test_first_contribution_is_handed_over():
    a, b = Tensor(np.ones(3)), Tensor(np.ones(3))
    with Tape():
        out = add(a, b)
        backward(sum_(out))
    assert a.grad is out.grad and b.grad is out.grad


def test_gradient_of_another_shape_is_rejected():
    p = Parameter(np.ones(3), name="p")
    out = Tensor(np.ones(3))
    with Tape() as tape:
        tape.append(out, (p,), lambda g: (g.reshape(1, 3),))
        loss = sum_(out)
        with pytest.raises(ValueError, match=re.escape(
                "gradient shape (1, 3) for a tensor of shape (3,)")):
            backward(loss)


def test_backward_releases_each_closure_and_keeps_the_records():
    # a 1 MiB array that only the node's backward function holds is freed
    # by backward itself, while the tape is still alive; the records stay,
    # so their number and which outputs a gradient reached can be counted
    def holding(saved):
        return lambda g: (g * saved[:3],)

    saved = np.full(2 ** 17, 2.0)
    alive = weakref.ref(saved)
    p = Parameter(np.ones(3), name="p")
    out = Tensor(np.ones(3))
    with Tape() as tape:
        tape.append(out, (p,), holding(saved))
        del saved
        loss = sum_(out)
        assert alive() is not None
        backward(loss)
        assert alive() is None
        assert [bwd for _, _, bwd in tape.records] == [None, None]
        assert len(tape.records) == 2
        assert tape.records[0][0] is out and tape.records[1][0] is loss
        np.testing.assert_array_equal(out.grad, np.ones(3))
        np.testing.assert_array_equal(loss.grad, 1.0)
    np.testing.assert_array_equal(p.grad, np.full(3, 2.0))


@pytest.mark.parametrize("module", [autodiff, mamba_fusion],
                         ids=lambda m: m.__name__)
def test_every_public_name_resolves(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
