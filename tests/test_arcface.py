"""Angular-margin loss: reference values, invariances, gradients."""

import numpy as np
import pytest

from facevit.arcface import arcface_loss_t
from facevit.autograd import Tensor
from facevit.nn_core import grad_check


def arcface_loss(features, labels, class_weights, margin=0.5, scale=30.0):
    """Mean loss plus gradients w.r.t. features and class weights, through
    `arcface_loss_t` on fresh leaf Tensors."""
    f = Tensor(np.asarray(features, dtype=np.float64), requires_grad=True)
    w = Tensor(np.asarray(class_weights, dtype=np.float64), requires_grad=True)
    loss = arcface_loss_t(f, labels, w, margin, scale)
    loss.backward()
    return float(loss.value), {"features": f.grad, "class_weights": w.grad}


def reference_loss(features, labels, weights, margin, scale):
    """Straightforward numpy re-derivation used as an oracle."""
    f = features / np.linalg.norm(features, axis=1, keepdims=True)
    w = weights / np.linalg.norm(weights, axis=1, keepdims=True)
    cos = np.clip(f @ w.T, -1 + 1e-7, 1 - 1e-7)
    theta = np.arccos(cos)
    logits = scale * cos
    rows = np.arange(len(labels))
    logits[rows, labels] = scale * np.cos(theta[rows, labels] + margin)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_prob = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-log_prob[rows, labels].mean())


def test_matches_arccos_reference():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((4, 6))
    feats = rng.standard_normal((5, 6))
    labels = rng.integers(0, 4, size=5)
    loss, _ = arcface_loss(feats, labels, w, 0.5, 30.0)
    ref = reference_loss(feats, labels, w, 0.5, 30.0)
    assert abs(loss - ref) < 1e-10


def test_zero_margin_reduces_to_cosine_softmax():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((4, 6))
    feats = rng.standard_normal((4, 6))
    labels = np.array([0, 1, 2, 3])
    loss, _ = arcface_loss(feats, labels, w, 0.0, 30.0)
    fn = feats / np.linalg.norm(feats, axis=1, keepdims=True)
    wn = w / np.linalg.norm(w, axis=1, keepdims=True)
    logits = 30.0 * np.clip(fn @ wn.T, -1 + 1e-7, 1 - 1e-7)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    assert abs(loss - float(-lp[np.arange(4), labels].mean())) < 1e-10


def test_margin_increases_loss():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((6, 6))
    labels = rng.integers(0, 4, size=6)
    w = rng.standard_normal((4, 6))
    l0, _ = arcface_loss(feats, labels, w, 0.0, 30.0)
    l5, _ = arcface_loss(feats, labels, w, 0.5, 30.0)
    assert l5 > l0


def test_scale_invariance_of_features():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((4, 6))
    feats = rng.standard_normal((5, 6))
    labels = rng.integers(0, 4, size=5)
    l1, _ = arcface_loss(feats, labels, w, 0.5, 30.0)
    l2, _ = arcface_loss(2.0 * feats, labels, w, 0.5, 30.0)
    assert abs(l1 - l2) < 1e-10


def test_finite_at_exact_alignment():
    w = np.eye(3)
    feats = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    loss, grads = arcface_loss(feats, np.array([0, 0]), w, 0.5, 30.0)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grads["features"]))
    assert np.all(np.isfinite(grads["class_weights"]))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 4, size=5)

    def f(theta):
        ft = Tensor(theta["features"], requires_grad=True)
        wt = Tensor(theta["weights"], requires_grad=True)
        loss = arcface_loss_t(ft, labels, wt, 0.5, 30.0)
        loss.backward()
        return float(loss.value), {"features": ft.grad, "weights": wt.grad}

    theta = {"features": rng.standard_normal((5, 6)),
             "weights": rng.standard_normal((4, 6))}
    assert grad_check(f, theta, h=1e-5) < 1e-6


def test_validation_errors():
    # margin and scale are checked by TrainConfig.validate (tests/test_trainer.py)
    rng = np.random.default_rng(5)
    w = rng.standard_normal((4, 6))
    with pytest.raises(ValueError):
        arcface_loss(rng.standard_normal((2, 6)), np.array([0, 9]), w)
    with pytest.raises(ValueError):
        arcface_loss(np.zeros((2, 6)), np.array([0, 1]), w)
    with pytest.raises(ValueError):
        arcface_loss(np.full((2, 6), np.nan), np.array([0, 1]), w)
