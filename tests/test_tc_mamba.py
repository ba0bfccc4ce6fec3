"""Tests for the paired context streams with shared state-transition storage."""

import numpy as np
import pytest

from mamba_fusion.autodiff import Tape, Tensor, backward
from mamba_fusion.tc_mamba import SharedTransitionPair, TcBlock, TcStack
from mamba_fusion.training import AdamW
from oracles import (
    bimamba_param_count, shared_param_count, sharing_saving, sum_,
)


def _param_count(obj):
    return sum(p.size for p in obj.parameters())


def test_shared_storage_is_structural():
    pair = SharedTransitionPair(6, 4, np.random.default_rng(0), expansion=1)
    assert pair.partner.fwd.a_log is pair.text.fwd.a_log
    assert pair.partner.bwd.a_log is pair.text.bwd.a_log
    # mutating one side is visible from the other
    pair.text.fwd.a_log.data[0, 0] = 123.0
    assert pair.partner.fwd.a_log.data[0, 0] == 123.0


def test_unshared_pair_has_distinct_storage():
    pair = SharedTransitionPair(6, 4, np.random.default_rng(0), expansion=1,
                                share=False)
    assert pair.partner.fwd.a_log is not pair.text.fwd.a_log


def test_sharing_leaves_every_initial_value_and_name_unchanged():
    # the partner's a_log is replaced after both streams are built, so the
    # rng stream, and with it every other initial value, is the same
    shared = SharedTransitionPair(6, 4, np.random.default_rng(0), expansion=1)
    unshared = SharedTransitionPair(6, 4, np.random.default_rng(0),
                                    expansion=1, share=False)
    by_name = {p.name: p.data for p in unshared.parameters()}
    names = [p.name for p in shared.parameters()]
    assert set(by_name) - set(names) == {"pair.partner.fwd.a_log",
                                         "pair.partner.bwd.a_log"}
    for p in shared.parameters():
        np.testing.assert_array_equal(p.data, by_name[p.name])


def test_selection_networks_stay_per_stream():
    pair = SharedTransitionPair(6, 4, np.random.default_rng(1), expansion=1)
    assert pair.partner.fwd.w_b is not pair.text.fwd.w_b
    assert pair.partner.fwd.w_c is not pair.text.fwd.w_c
    assert pair.partner.fwd.w_delta is not pair.text.fwd.w_delta


def test_shared_gradient_is_sum_of_isolated_stream_gradients():
    rng = np.random.default_rng(2)
    pair = SharedTransitionPair(5, 3, np.random.default_rng(7), expansion=1)
    c_t = Tensor(rng.standard_normal((6, 5)))
    e_v = Tensor(rng.standard_normal((6, 5)))

    def a_log_grads():
        return (pair.text.fwd.a_log.grad.copy(),
                pair.text.bwd.a_log.grad.copy())

    def zero_all():
        for p in pair.parameters():
            p.zero_grad()

    # joint loss touching both streams
    zero_all()
    with Tape():
        y_t, y_v = pair(c_t, e_v)
        backward(sum_(y_t) + sum_(y_v))
    joint_f, joint_b = a_log_grads()

    # isolated single-stream graphs
    zero_all()
    with Tape():
        backward(sum_(pair.text(c_t)))
    text_f, text_b = a_log_grads()

    zero_all()
    with Tape():
        backward(sum_(pair.partner(e_v)))
    partner_f, partner_b = a_log_grads()

    np.testing.assert_allclose(joint_f, text_f + partner_f, atol=1e-10)
    np.testing.assert_allclose(joint_b, text_b + partner_b, atol=1e-10)


def test_shared_values_stay_bitwise_identical_after_optimizer_step():
    rng = np.random.default_rng(3)
    pair = SharedTransitionPair(4, 3, np.random.default_rng(5), expansion=1)
    params = pair.parameters()
    opt = AdamW(params, lr=1e-2)
    x = Tensor(rng.standard_normal((5, 4)))
    for _ in range(3):
        opt.zero_grad()
        with Tape():
            y_t, y_v = pair(x, x)
            backward(sum_(y_t) + sum_(y_v))
        opt.step()
    assert np.array_equal(pair.text.fwd.a_log.data,
                          pair.partner.fwd.a_log.data)
    assert pair.text.fwd.a_log is pair.partner.fwd.a_log


# ---------------------------------------------------------------------------
# Block and stack
# ---------------------------------------------------------------------------

def test_block_average_of_tied_pairs_is_either_branch():
    block = TcBlock(4, 3, np.random.default_rng(8), expansion=1)
    block.ta = block.tv  # tie the two pairs
    rng = np.random.default_rng(9)
    c_t = Tensor(rng.standard_normal((5, 4)))
    e = Tensor(rng.standard_normal((5, 4)))
    c_t_out, _, _ = block(c_t, e, e)
    tied, _ = block.tv(c_t, e)
    np.testing.assert_allclose(c_t_out.data, tied.data, rtol=1e-12)


def test_block_average_is_symmetric_in_the_pair_outputs():
    block = TcBlock(4, 3, np.random.default_rng(10), expansion=1)
    rng = np.random.default_rng(11)
    c_t = Tensor(rng.standard_normal((5, 4)))
    c_t1, _ = block.tv(c_t, c_t)
    c_t2, _ = block.ta(c_t, c_t)
    mean_ab = 0.5 * (c_t1.data + c_t2.data)
    mean_ba = 0.5 * (c_t2.data + c_t1.data)
    np.testing.assert_array_equal(mean_ab, mean_ba)


def test_block_zero_projection_passthrough():
    block = TcBlock(4, 3, np.random.default_rng(12), expansion=1)
    for bm in (block.tv.text, block.tv.partner, block.ta.text,
               block.ta.partner):
        bm.w_out.data = np.zeros_like(bm.w_out.data)
        bm.b_out.data = np.zeros_like(bm.b_out.data)
    z = Tensor(np.zeros((3, 4)))
    c_t, c_v, c_a = block(z, z, z)
    for out in (c_t, c_v, c_a):
        np.testing.assert_array_equal(out.data, np.zeros((3, 4)))


def test_block_rejects_shape_mismatch():
    block = TcBlock(4, 3, np.random.default_rng(13), expansion=1)
    with pytest.raises(ValueError, match="shape"):
        block(Tensor(np.zeros((5, 4))), Tensor(np.zeros((5, 4))),
              Tensor(np.zeros((6, 4))))


def test_pairs_within_a_block_share_nothing_with_each_other():
    block = TcBlock(4, 3, np.random.default_rng(14), expansion=1)
    tv_ids = {id(p) for p in block.tv.parameters()}
    ta_ids = {id(p) for p in block.ta.parameters()}
    assert not (tv_ids & ta_ids)


@pytest.mark.parametrize("depth", [1, 2])
def test_stack_shapes_invariant_across_depth(depth):
    stack = TcStack(depth, 6, 3, np.random.default_rng(15), expansion=1)
    rng = np.random.default_rng(16)
    outs = stack(Tensor(rng.standard_normal((7, 6))),
                 Tensor(rng.standard_normal((7, 6))),
                 Tensor(rng.standard_normal((7, 6))))
    for out in outs:
        assert out.shape == (7, 6)


def test_stack_rejects_zero_depth():
    with pytest.raises(ValueError, match="depth"):
        TcStack(0, 6, 3, np.random.default_rng(0))


def test_stack_blocks_have_fresh_parameters():
    stack = TcStack(2, 4, 3, np.random.default_rng(17), expansion=1)
    ids0 = {id(p) for p in stack.blocks[0].parameters()}
    ids1 = {id(p) for p in stack.blocks[1].parameters()}
    assert not (ids0 & ids1)


# ---------------------------------------------------------------------------
# Parameter accounting
# ---------------------------------------------------------------------------

def test_bimamba_count_formula_matches_actual():
    from mamba_fusion.ssm import BiMamba
    for d, n, e in [(4, 3, 1), (6, 4, 2), (8, 16, 2)]:
        block = BiMamba(d, n, np.random.default_rng(0), expansion=e)
        assert _param_count(block) == bimamba_param_count(d, n, e)


def test_sharing_saves_exactly_two_state_matrices_per_pair():
    d, n, e = 6, 12, 1
    shared = SharedTransitionPair(d, n, np.random.default_rng(0), expansion=e)
    unshared = SharedTransitionPair(d, n, np.random.default_rng(0),
                                    expansion=e, share=False)
    saving = _param_count(unshared) - _param_count(shared)
    assert saving == sharing_saving(d, n, e) == 2 * e * d * n


def test_stack_count_matches_analytic_formula():
    for depth, d, n, e, share in [(1, 6, 4, 1, True), (2, 4, 3, 2, True),
                                  (1, 8, 16, 2, True), (1, 6, 4, 1, False)]:
        stack = TcStack(depth, d, n, np.random.default_rng(1), expansion=e,
                        share=share)
        assert _param_count(stack) == shared_param_count(depth, d, n, e,
                                                         share=share)


def test_unshared_counts_exceed_shared_with_identical_shapes():
    shared = TcStack(1, 6, 4, np.random.default_rng(2), expansion=1)
    unshared = TcStack(1, 6, 4, np.random.default_rng(2), expansion=1,
                       share=False)
    assert _param_count(unshared) > _param_count(shared)
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((5, 6)))
    for a, b in zip(shared(x, x, x), unshared(x, x, x)):
        assert a.shape == b.shape
