"""Tests for text-guided cross-attention, latent fusion, and the pooled head."""

import numpy as np
import pytest

from mamba_fusion.autodiff import (
    Parameter, Tape, Tensor, add, backward, concat, layer_norm, matmul,
    mul, no_grad, softmax_lastdim, transpose,
)
from mamba_fusion.ssm import BiMamba
from mamba_fusion.tq_mamba import (
    CrossAttention, FusionHead, LatentStack, text_query,
)
from oracles import div, slicer, sum_


def _layer_normed(x, attn):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    xn = (x - mu) / np.sqrt(var + 1e-5)
    return xn * attn.norm_gamma.data + attn.norm_beta.data


def per_head_attend(attn, query, keyvalue):
    """Oracle: the head-by-head tape composition that ``attend`` replaced,
    one column slice of q, k and v per head, merged by concatenation."""
    qn = layer_norm(query, attn.norm_gamma, attn.norm_beta)
    q = matmul(qn, attn.w_q)
    k = matmul(keyvalue, attn.w_k)
    v = matmul(keyvalue, attn.w_v)
    scale = Tensor(np.sqrt(float(attn.head_dim)))
    outs = []
    for h in range(attn.heads):
        cols = (slice(None), slice(h * attn.head_dim, (h + 1) * attn.head_dim))
        qh, kh, vh = slicer(q, cols), slicer(k, cols), slicer(v, cols)
        weights = softmax_lastdim(div(matmul(qh, transpose(kh)), scale), 1.0)
        outs.append(matmul(weights, vh))
    return add(matmul(concat(outs, axis=1), attn.w_o), attn.b_o)


# ---------------------------------------------------------------------------
# Cross-attention
# ---------------------------------------------------------------------------

def test_single_key_value_passes_through_output_projection():
    rng = np.random.default_rng(0)
    attn = CrossAttention(6, heads=2, rng=rng)
    query = Tensor(rng.standard_normal((3, 6)))
    kv = Tensor(rng.standard_normal((1, 6)))
    out = attn.attend(query, kv).data
    v = kv.data @ attn.w_v.data
    expected = np.tile(v @ attn.w_o.data + attn.b_o.data, (3, 1))
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_identical_keys_give_uniform_attention_and_mean_value():
    rng = np.random.default_rng(1)
    attn = CrossAttention(4, heads=2, rng=rng)
    query = Tensor(rng.standard_normal((2, 4)))
    kv = Tensor(np.tile(rng.standard_normal(4), (5, 1)))
    weights, _ = attn.weights_and_values(query, kv)
    for w in weights.data:
        np.testing.assert_allclose(w, np.full((2, 5), 0.2), atol=1e-12)
    out = attn.attend(query, kv).data
    v_mean = (kv.data @ attn.w_v.data).mean(axis=0)
    expected = np.tile(v_mean @ attn.w_o.data + attn.b_o.data, (2, 1))
    np.testing.assert_allclose(out, expected, rtol=1e-10)


def test_single_head_matches_direct_attention_oracle():
    rng = np.random.default_rng(2)
    attn = CrossAttention(4, heads=1, rng=rng)
    query = Tensor(rng.standard_normal((2, 4)))
    kv = Tensor(rng.standard_normal((3, 4)))
    out = attn.attend(query, kv).data
    q = _layer_normed(query.data, attn) @ attn.w_q.data
    k = kv.data @ attn.w_k.data
    v = kv.data @ attn.w_v.data
    scores = q @ k.T / np.sqrt(4.0)
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(out, weights @ v @ attn.w_o.data
                               + attn.b_o.data, rtol=1e-10)


def test_attention_rows_sum_to_one_per_head():
    rng = np.random.default_rng(3)
    attn = CrossAttention(8, heads=4, rng=rng)
    query = Tensor(rng.standard_normal((5, 8)))
    kv = Tensor(rng.standard_normal((9, 8)))
    weights, _ = attn.weights_and_values(query, kv)
    for w in weights.data:
        np.testing.assert_allclose(w.sum(axis=1), np.ones(5), atol=1e-9)


def test_residual_wrapper_adds_query():
    rng = np.random.default_rng(4)
    attn = CrossAttention(4, heads=2, rng=rng)
    query = Tensor(rng.standard_normal((3, 4)))
    kv = Tensor(rng.standard_normal((6, 4)))
    np.testing.assert_allclose(attn(query, kv).data,
                               query.data + attn.attend(query, kv).data,
                               rtol=1e-12)


@pytest.mark.parametrize("heads", [1, 2, 4, 8])
def test_stacked_heads_match_per_head_oracle(heads):
    rng = np.random.default_rng(100 + heads)
    attn = CrossAttention(16, heads=heads, rng=rng)
    attn.norm_gamma.data = rng.uniform(0.5, 1.5, 16)
    attn.norm_beta.data = rng.standard_normal(16)
    attn.b_o.data = rng.standard_normal(16)
    query = Parameter(rng.standard_normal((5, 16)), name="query")
    kv = Parameter(rng.standard_normal((7, 16)), name="kv")
    probe = Tensor(rng.standard_normal((5, 16)))
    params = [query, kv] + attn.parameters()
    outs, grads = [], []
    for attend in (attn.attend, lambda q, k: per_head_attend(attn, q, k)):
        for p in params:
            p.zero_grad()
        with Tape():
            out = attend(query, kv)
            backward(sum_(mul(out, probe)))
        outs.append(out.data)
        grads.append([p.grad.copy() for p in params])
    np.testing.assert_array_equal(outs[0], outs[1])
    for p, stacked, looped in zip(params, *grads):
        np.testing.assert_allclose(stacked, looped, rtol=1e-10, atol=0,
                                   err_msg=p.name)


@pytest.mark.parametrize("heads", [1, 2, 4, 8])
def test_cross_attention_records_18_tape_nodes_for_any_head_count(heads):
    # layer norm; q, k, v projections; per projection one reshape and one
    # transpose onto the head axis; the scaled product (matmul, softmax);
    # the product with the values; the merge (transpose, reshape); output
    # projection (matmul, bias); residual add
    rng = np.random.default_rng(heads)
    attn = CrossAttention(16, heads=heads, rng=rng)
    query = Tensor(rng.standard_normal((5, 16)))
    kv = Tensor(rng.standard_normal((7, 16)))
    with Tape() as tape:
        attn(query, kv)
    assert len(tape.records) == 18


def test_self_attention_is_cross_attention_over_the_query():
    rng = np.random.default_rng(13)
    attn = CrossAttention(8, heads=2, rng=rng)
    x = Tensor(rng.standard_normal((6, 8)))
    np.testing.assert_array_equal(attn(x).data, attn(x, x).data)


def test_head_count_must_divide_model_dim():
    with pytest.raises(ValueError, match="divisible"):
        CrossAttention(6, heads=4, rng=np.random.default_rng(0))


def test_text_query_concatenation_order_equivariance():
    rng = np.random.default_rng(5)
    attn = CrossAttention(4, heads=2, rng=rng)
    c_t = Tensor(rng.standard_normal((3, 4)))
    c_v = Tensor(rng.standard_normal((3, 4)))
    c_a = Tensor(rng.standard_normal((3, 4)))
    out_va = text_query(attn, c_t, c_v, c_a).data
    out_av = text_query(attn, c_t, c_a, c_v).data
    np.testing.assert_allclose(out_va, out_av, atol=1e-12)


def test_text_query_rejects_shape_mismatch():
    attn = CrossAttention(4, heads=2, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="shape"):
        text_query(attn, Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))),
                   Tensor(np.zeros((2, 4))))


# ---------------------------------------------------------------------------
# Latent stack and head
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("depth", [0, 1, 2])
def test_latent_stack_preserves_shape(depth):
    rng = np.random.default_rng(6)
    stack = LatentStack(BiMamba(6, 3, rng, expansion=1, name=f"tq{i}")
                        for i in range(depth))
    x = Tensor(np.random.default_rng(7).standard_normal((5, 6)))
    out = stack(x)
    assert out.shape == (5, 6)
    if depth == 0:
        assert out is x


def test_head_constant_sequence_pools_the_constant():
    rng = np.random.default_rng(8)
    head = FusionHead(5, rng)
    row = rng.standard_normal(5)
    out = head(Tensor(np.tile(row, (4, 1))))
    np.testing.assert_allclose(out.data,
                               row @ head.w.data[:, 0] + head.b.data[0],
                               rtol=1e-12)


def test_head_zero_weights_returns_bias():
    head = FusionHead(5, np.random.default_rng(9))
    head.w.data = np.zeros_like(head.w.data)
    head.b.data = np.array([0.75])
    out = head(Tensor(np.random.default_rng(10).standard_normal((6, 5))))
    assert out.shape == ()
    assert out.data == 0.75


def test_head_matches_max_then_dot_oracle():
    rng = np.random.default_rng(11)
    head = FusionHead(4, rng)
    f_z = rng.standard_normal((3, 4))
    out = head(Tensor(f_z)).data
    np.testing.assert_allclose(
        out, f_z.max(axis=0) @ head.w.data[:, 0] + head.b.data[0], rtol=1e-12)


def test_head_invariant_to_time_permutation():
    rng = np.random.default_rng(12)
    head = FusionHead(6, rng)
    f_z = rng.standard_normal((8, 6))
    base = head(Tensor(f_z)).data
    for _ in range(5):
        perm = rng.permutation(8)
        np.testing.assert_array_equal(head(Tensor(f_z[perm])).data, base)


@pytest.mark.slow
def test_latent_depth_improves_toy_overfit():
    # paired training runs: depth-1 latent stack vs none on a tiny task
    from mamba_fusion.datagen import generate
    from mamba_fusion.harness import evaluate_fixed
    from mamba_fusion.model import build_model
    from mamba_fusion.training import TrainConfig, train
    ds = generate(8, seed=4)
    maes = {}
    for depth in (0, 1):
        model = build_model("desk", seed=0, tq_depth=depth)
        cfg = TrainConfig(lr=2e-3, epochs=120, batch_size=8, seed=0,
                          lambda_rec=0.7)
        train(model, ds.samples, cfg, ds.unknown_text_vector)
        with no_grad():
            maes[depth] = evaluate_fixed(model, ds.samples,
                                         ds.unknown_text_vector, 0.0)["mae"]
    assert maes[1] < maes[0]
