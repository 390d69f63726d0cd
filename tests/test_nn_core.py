"""Layer norm, attention, MLP and the finite-difference gradient checker."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facevit.autograd import Tensor, softmax
from facevit.nn_core import (encoder_layer_t, grad_check, layer_norm_t, mlp_block_t,
                             multi_head_attention_t)

HEADS = 2


def make_layer(rng, d=8, m=16):
    def w(*shape):
        return rng.standard_normal(shape) * 0.2
    return dict(
        wq=w(d, d), bq=w(d), wk=w(d, d), bk=w(d), wv=w(d, d), bv=w(d),
        wo=w(d, d), bo=w(d), w1=w(d, m), b1=w(m), w2=w(m, d), b2=w(d),
        ln1_g=np.ones(d), ln1_b=np.zeros(d), ln2_g=np.ones(d), ln2_b=np.zeros(d))


@given(st.integers(2, 16), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_layer_norm_moments(d, rows):
    rng = np.random.default_rng(d * 31 + rows)
    x = rng.standard_normal((rows, d)) * 5 + 2
    out = layer_norm_t(x, np.ones(d), np.zeros(d)).value
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_affine_params_applied():
    x = np.random.default_rng(0).standard_normal((3, 4))
    g, b = np.full(4, 2.0), np.full(4, 7.0)
    base = layer_norm_t(x, np.ones(4), np.zeros(4)).value
    np.testing.assert_allclose(layer_norm_t(x, g, b).value, base * 2.0 + 7.0, atol=1e-12)


def test_layer_norm_rejects_bad_eps_and_shapes():
    x = np.zeros((2, 4))
    with pytest.raises(ValueError):
        layer_norm_t(x, np.ones(4), np.zeros(4), eps=0.0)
    with pytest.raises(ValueError):
        layer_norm_t(x, np.ones(3), np.zeros(4))


def test_attention_rows_are_distributions():
    rng = np.random.default_rng(1)
    p = make_layer(rng)
    tokens = rng.standard_normal((5, 8))
    out, attn = multi_head_attention_t(tokens, p, HEADS)
    assert out.shape == (5, 8)
    assert attn.shape == (2, 5, 5)
    np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(attn >= 0)


def test_attention_token_permutation_equivariance():
    # without positional information, permuting tokens permutes outputs
    rng = np.random.default_rng(2)
    p = make_layer(rng)
    tokens = rng.standard_normal((6, 8))
    perm = rng.permutation(6)
    out1, _ = multi_head_attention_t(tokens, p, HEADS)
    out2, _ = multi_head_attention_t(tokens[perm], p, HEADS)
    np.testing.assert_allclose(out2.value, out1.value[perm], atol=1e-10)


def test_attention_keeps_batch_elements_apart_and_rejects_mismatched_input():
    # a NaN batch element reaches only its own output, where callers check it
    rng = np.random.default_rng(3)
    p = make_layer(rng)
    x = rng.standard_normal((2, 4, 8))
    x[1] = np.nan
    batch, _ = multi_head_attention_t(x, p, HEADS)
    alone, _ = multi_head_attention_t(x[:1], p, HEADS)
    np.testing.assert_array_equal(batch.value[0], alone.value[0])
    assert np.isnan(batch.value[1]).all()
    with pytest.raises(ValueError):
        multi_head_attention_t(np.zeros((4, 7)), p, HEADS)


def test_mlp_block_matches_manual_composition():
    rng = np.random.default_rng(4)
    p = make_layer(rng)
    x = rng.standard_normal((3, 8))
    manual = Tensor(x @ p["w1"] + p["b1"]).gelu().value @ p["w2"] + p["b2"]
    np.testing.assert_allclose(mlp_block_t(x, p).value, manual, atol=1e-12)


def test_encoder_layer_has_residual_on_both_sublayers():
    rng = np.random.default_rng(5)
    p = make_layer(rng)
    # zeroing the output projections must reduce the layer to the identity
    for name in ("wo", "bo", "w2", "b2"):
        p[name] = np.zeros_like(p[name])
    z = Tensor(rng.standard_normal((4, 8)))
    out, _ = encoder_layer_t(z, p, HEADS)
    np.testing.assert_allclose(out.value, z.value, atol=1e-12)


def test_softmax_wrapper_stable_at_large_logits():
    out = softmax(Tensor(np.array([[1000.0, 1000.0, -1000.0]]))).value
    np.testing.assert_allclose(out, [[0.5, 0.5, 0.0]], atol=1e-12)


def test_grad_check_accepts_correct_gradient():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((4, 4))

    def f(theta):
        x = Tensor(theta["x"], requires_grad=True)
        y = (x @ w).gelu()
        loss = (y * y).sum()
        loss.backward()
        return float(loss.value), {"x": x.grad}

    err = grad_check(f, {"x": rng.standard_normal((3, 4))})
    assert err < 1e-7


def test_grad_check_flags_wrong_gradient():
    def f(theta):
        x = Tensor(theta["x"], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        return float(loss.value), {"x": 0.5 * x.grad}  # deliberately wrong

    err = grad_check(f, {"x": np.array([1.0, -2.0])})
    assert err > 0.1


def test_grad_check_random_directions_for_large_theta():
    rng = np.random.default_rng(7)

    def f(theta):
        x = Tensor(theta["x"], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        return float(loss.value), {"x": x.grad}

    err = grad_check(f, {"x": rng.standard_normal(2000)}, n_directions=4)
    assert err < 1e-7


def test_grad_check_validates_step_size():
    def f(theta):
        return 0.0, {k: np.zeros_like(v) for k, v in theta.items()}
    with pytest.raises(ValueError):
        grad_check(f, {"x": np.ones(2)}, h=1e-2)
