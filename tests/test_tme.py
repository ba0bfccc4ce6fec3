"""Tests for alignment, thresholded text-similarity enhancement, and the
masked text reconstruction loss."""

import numpy as np
import pytest

from mamba_fusion.autodiff import (
    Parameter, Tape, Tensor, add, backward, finite_difference_check, mul,
)
from mamba_fusion.tme import (
    Aligner, TextReconstructor, enhance, recon_loss, resample_matrix,
    threshold_mask, token_similarity,
)
from oracles import smooth_l1, sum_, tape_recon_loss


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------

def test_resample_identity_when_lengths_match():
    np.testing.assert_array_equal(resample_matrix(6, 6), np.eye(6))


def test_resample_rows_sum_to_one():
    for t_in, t_out in [(3, 5), (50, 16), (1, 4), (7, 1), (2, 9)]:
        w = resample_matrix(t_in, t_out)
        np.testing.assert_allclose(w.sum(axis=1), np.ones(t_out), atol=1e-12)


def test_resample_3_to_5_matches_hand_interpolation():
    # row i samples position i * 2/4 = i/2 of [0, 1, 2]
    expected = np.array([
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.5, 0.5],
        [0.0, 0.0, 1.0],
    ])
    np.testing.assert_allclose(resample_matrix(3, 5), expected, atol=1e-12)


def test_align_identity_case():
    rng = np.random.default_rng(0)
    al = Aligner(t_in=4, d_in=3, length=4, d_model=3, rng=rng)
    al.w.data = np.eye(3)
    al.b.data = np.zeros(3)
    x = rng.standard_normal((4, 3))
    np.testing.assert_allclose(al(Tensor(x)).data, x, atol=1e-12)


def test_align_preserves_time_constants():
    rng = np.random.default_rng(1)
    al = Aligner(t_in=16, d_in=3, length=8, d_model=5, rng=rng)
    row = rng.standard_normal(3)
    x = np.tile(row, (16, 1))
    out = al(Tensor(x)).data
    np.testing.assert_allclose(out, np.tile(out[0], (8, 1)), atol=1e-12)


def test_align_records_only_the_learned_projection():
    rng = np.random.default_rng(7)
    al = Aligner(t_in=6, d_in=3, length=4, d_model=5, rng=rng)
    with Tape() as tape:
        out = al(Tensor(rng.standard_normal((6, 3))))
        recorded = len(tape.records)
        backward(sum_(out))
    # the projection's matmul and bias add; the fixed resampling is no node
    assert recorded == 2
    assert al.resample.grad is None
    assert np.any(al.w.grad) and np.any(al.b.grad)


def test_align_rejects_empty_sequence():
    rng = np.random.default_rng(2)
    al = Aligner(t_in=4, d_in=3, length=4, d_model=3, rng=rng)
    with pytest.raises(ValueError, match="empty"):
        al(Tensor(np.zeros((0, 3))))
    with pytest.raises(ValueError, match="empty"):
        resample_matrix(0, 4)


# ---------------------------------------------------------------------------
# Similarity and masking
# ---------------------------------------------------------------------------

def test_similarity_identical_tokens_gives_uniform_rows():
    h = Tensor(np.tile(np.array([1.0, 2.0, 2.0]), (5, 1)))
    s = token_similarity(h, h, tau=0.07)
    np.testing.assert_allclose(s.data, np.full((5, 5), 0.2), atol=1e-12)


def test_similarity_diagonal_dominant_at_small_tau():
    rng = np.random.default_rng(3)
    h = Tensor(rng.standard_normal((6, 8)))
    s = token_similarity(h, h, tau=1e-3).data
    assert np.array_equal(np.argmax(s, axis=1), np.arange(6))


def test_similarity_direct_oracle_l3():
    rng = np.random.default_rng(4)
    hx = rng.standard_normal((3, 4))
    ht = rng.standard_normal((3, 4))
    s = token_similarity(Tensor(hx), Tensor(ht), tau=1.0).data
    xn = hx / np.linalg.norm(hx, axis=1, keepdims=True)
    tn = ht / np.linalg.norm(ht, axis=1, keepdims=True)
    logits = xn @ tn.T
    ref = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(s, ref, rtol=1e-12)


def test_similarity_rows_sum_to_one():
    rng = np.random.default_rng(5)
    s = token_similarity(Tensor(rng.standard_normal((9, 7))),
                         Tensor(rng.standard_normal((9, 7))), tau=0.07)
    np.testing.assert_allclose(s.data.sum(axis=1), np.ones(9), atol=1e-9)


def test_similarity_invariant_under_positive_scaling():
    rng = np.random.default_rng(6)
    hx = rng.standard_normal((4, 5))
    ht = rng.standard_normal((4, 5))
    s1 = token_similarity(Tensor(hx), Tensor(ht), tau=0.07).data
    s2 = token_similarity(Tensor(37.5 * hx), Tensor(0.04 * ht), tau=0.07).data
    np.testing.assert_allclose(s1, s2, atol=1e-12)


def test_similarity_records_five_tape_nodes():
    # two L2 normalizations, the transpose, the matmul and the softmax,
    # which also divides by the temperature
    rng = np.random.default_rng(8)
    with Tape() as tape:
        token_similarity(Tensor(rng.standard_normal((4, 5))),
                         Tensor(rng.standard_normal((6, 5))), tau=0.07)
    assert len(tape.records) == 5


def test_similarity_rejects_bad_tau_and_zero_tokens():
    h = Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="temperature"):
        token_similarity(h, h, tau=0.0)
    with pytest.raises(FloatingPointError):
        token_similarity(Tensor(np.zeros((2, 3))), h, tau=0.07)


def test_threshold_is_one_over_length():
    s = Tensor(np.array([[0.019, 0.02, 0.021, 0.94]]))
    m = threshold_mask(s, 50)  # theta = 0.02
    np.testing.assert_array_equal(m.data, [[0.0, 0.0, 1.0, 1.0]])


def test_threshold_uniform_row_masks_to_zero():
    length = 8
    s = Tensor(np.full((length, length), 1.0 / length))
    np.testing.assert_array_equal(threshold_mask(s, length).data,
                                  np.zeros((length, length)))


def test_nonuniform_rows_keep_at_least_one_entry():
    rng = np.random.default_rng(7)
    for _ in range(20):
        row = rng.dirichlet(np.ones(6))
        m = threshold_mask(Tensor(row[None, :]), 6)
        if not np.allclose(row, 1 / 6):
            assert m.data.sum() >= 1


def test_mask_is_constant_in_backward():
    p = Parameter(np.array([[0.4, 0.6]]), name="s")
    with Tape():
        m = threshold_mask(p, 2)
        loss = sum_(m * p)
        backward(loss)
    # gradient flows through s but not through the mask construction
    np.testing.assert_array_equal(p.grad, m.data)


# ---------------------------------------------------------------------------
# Enhancement
# ---------------------------------------------------------------------------

def test_enhance_zero_mask_is_identity():
    rng = np.random.default_rng(8)
    h_x = rng.standard_normal((4, 5))
    s = Tensor(rng.dirichlet(np.ones(4), size=4))
    out = enhance(Tensor(h_x), s, Tensor(np.zeros((4, 4))),
                  Tensor(rng.standard_normal((4, 5))))
    np.testing.assert_array_equal(out.data, h_x)


def test_enhance_full_mask_adds_similarity_mix():
    rng = np.random.default_rng(9)
    h_x = rng.standard_normal((4, 5))
    h_t = rng.standard_normal((4, 5))
    s = rng.dirichlet(np.ones(4), size=4)
    out = enhance(Tensor(h_x), Tensor(s), Tensor(np.ones((4, 4))),
                  Tensor(h_t))
    np.testing.assert_allclose(out.data, h_x + s @ h_t, rtol=1e-12)


def test_enhance_matches_entrywise_oracle():
    rng = np.random.default_rng(10)
    h_x = rng.standard_normal((4, 3))
    h_t = rng.standard_normal((4, 3))
    s = rng.dirichlet(np.ones(4), size=4)
    m = (rng.random((4, 4)) > 0.5).astype(float)
    out = enhance(Tensor(h_x), Tensor(s), Tensor(m), Tensor(h_t)).data
    oracle = h_x.copy()
    for i in range(4):
        for d in range(3):
            for j in range(4):
                oracle[i, d] += m[i, j] * s[i, j] * h_t[j, d]
    np.testing.assert_allclose(out, oracle, rtol=1e-12)


def test_enhance_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        enhance(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 4))),
                Tensor(np.zeros((4, 4))), Tensor(np.zeros((5, 3))))


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

def test_reconstructor_zero_weights_give_zero():
    rng = np.random.default_rng(11)
    rec = TextReconstructor(d_model=6, d_raw=9, rng=rng)
    for p in rec.parameters():
        p.data = np.zeros_like(p.data)
    out = rec(Tensor(rng.standard_normal((5, 6))))
    np.testing.assert_array_equal(out.data, np.zeros((5, 9)))


def test_reconstructor_output_shape():
    rng = np.random.default_rng(12)
    rec = TextReconstructor(d_model=6, d_raw=11, rng=rng)
    assert rec(Tensor(rng.standard_normal((7, 6)))).shape == (7, 11)


def test_reconstructor_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    rec = TextReconstructor(d_model=4, d_raw=3, rng=rng)
    x = Tensor(rng.standard_normal((5, 4)))
    neg_target = Tensor(-rng.standard_normal((5, 3)))
    err = finite_difference_check(
        lambda: sum_(smooth_l1(add(rec(x), neg_target))), rec.parameters())
    assert err < 1e-4


def test_recon_loss_zero_when_prediction_matches():
    x = np.random.default_rng(14).standard_normal((4, 3))
    loss = recon_loss(Tensor(x), Tensor(x), p_t=np.zeros(4))
    assert loss.data == 0.0


def test_recon_loss_half_diff_is_eighth():
    clean = Tensor(np.zeros((1, 1)))
    pred = Tensor(np.array([[0.5]]))
    loss = recon_loss(clean, pred, p_t=np.zeros(1))
    np.testing.assert_allclose(loss.data, 0.125, rtol=1e-15)


def test_recon_loss_large_diff_uses_linear_branch():
    loss = recon_loss(Tensor(np.zeros((1, 1))), Tensor(np.array([[3.0]])),
                      p_t=np.zeros(1))
    np.testing.assert_allclose(loss.data, 2.5, rtol=1e-15)


def test_recon_loss_all_observed_is_exactly_zero():
    rng = np.random.default_rng(15)
    loss = recon_loss(Tensor(rng.standard_normal((6, 4))),
                      Tensor(rng.standard_normal((6, 4))), p_t=np.ones(6))
    assert loss.data == 0.0


def test_recon_loss_gradient_zero_at_observed_positions():
    rng = np.random.default_rng(16)
    clean = Tensor(rng.standard_normal((5, 3)))
    pred = Parameter(rng.standard_normal((5, 3)), name="pred")
    p_t = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    with Tape():
        backward(recon_loss(clean, pred, p_t))
    observed = p_t.astype(bool)
    np.testing.assert_array_equal(pred.grad[observed], 0.0)
    assert np.any(pred.grad[~observed] != 0.0)


def test_recon_loss_invariant_to_prediction_at_observed_positions():
    rng = np.random.default_rng(17)
    clean = rng.standard_normal((5, 3))
    pred = rng.standard_normal((5, 3))
    p_t = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    base = recon_loss(Tensor(clean), Tensor(pred), p_t).data
    tampered = pred.copy()
    tampered[p_t.astype(bool)] = 1e6
    after = recon_loss(Tensor(clean), Tensor(tampered), p_t).data
    assert base == after


def test_recon_loss_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        recon_loss(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 2))),
                   p_t=np.zeros(4))


def test_smooth_l1_gradient_matches_finite_differences():
    rng = np.random.default_rng(18)
    d = rng.standard_normal((6, 4)) * 2.0
    d[np.abs(np.abs(d) - 1.0) < 0.05] = 0.5   # stay off the branch seam
    p = Parameter(d, name="d")
    err = finite_difference_check(lambda: sum_(smooth_l1(p)), [p])
    assert err < 1e-4


def _recon_value_and_grad(loss_fn, clean, pred, p_t):
    # an upstream weight other than 1, as training's batch mean and lambda give
    x_tilde = Parameter(pred, name="x_tilde")
    with Tape():
        loss = loss_fn(Tensor(clean), x_tilde, p_t)
        backward(mul(loss, Tensor(0.37)))
    return loss.data, x_tilde.grad


@pytest.mark.parametrize("seed,observed", [
    (0, 0.4), (1, 0.4), (2, 0.0), (3, 0.8), (5, 0.7), (4, 1.0)])
def test_recon_loss_node_equals_tape_composition(seed, observed):
    # `observed` is the share of text positions observed: some rows all
    # observed, none, or every row (a loss of exactly zero)
    rng = np.random.default_rng(seed)
    length, d_raw = (int(v) for v in rng.integers(1, 13, size=2))
    clean = rng.standard_normal((length, d_raw))
    # |d| spans both Smooth-L1 branches
    pred = clean + 2.0 * rng.standard_normal((length, d_raw))
    # |d| == 1 exactly, where the linear branch starts
    clean[0, 0], pred[0, 0] = 0.25, 1.25
    clean[-1, -1], pred[-1, -1] = 0.5, -0.5
    p_t = (rng.random(length) < observed).astype(float)
    node = _recon_value_and_grad(recon_loss, clean, pred, p_t)
    tape = _recon_value_and_grad(tape_recon_loss, clean, pred, p_t)
    np.testing.assert_array_equal(node[0], tape[0])
    np.testing.assert_array_equal(node[1], tape[1])


def test_recon_loss_records_one_tape_node():
    rng = np.random.default_rng(20)
    with Tape() as tape:
        recon_loss(Tensor(rng.standard_normal((6, 4))),
                   Parameter(rng.standard_normal((6, 4))),
                   np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0]))
    assert len(tape.records) == 1


def test_recon_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    clean = Tensor(rng.standard_normal((6, 4)))
    d = rng.standard_normal((6, 4)) * 2.0
    d[np.abs(np.abs(d) - 1.0) < 0.05] = 0.5   # stay off the branch seam
    pred = Parameter(clean.data + d, name="pred")
    p_t = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    err = finite_difference_check(lambda: recon_loss(clean, pred, p_t), [pred])
    assert err < 1e-4
