"""Additive angular-margin softmax loss (margin on the true-class angle).

True-class logit is s*cos(theta_y + m), all others s*cos(theta_j), followed
by cross-entropy. The arccos argument is clamped to [-1+1e-7, 1-1e-7] so the
loss and its gradients stay finite at exactly aligned or opposed features.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, log_softmax

_COS_CLAMP = 1e-7


def _normalize_rows(x: Tensor, what: str) -> Tensor:
    norms = (x * x).sum(axis=-1, keepdims=True).sqrt()
    if np.any(norms.value == 0.0):
        raise ValueError(f"zero-norm {what}")
    return x / norms


def arcface_loss_t(features: Tensor, labels: np.ndarray, class_weights: Tensor,
                   margin: float, scale: float) -> Tensor:
    """Mean angular-margin cross-entropy as a Tensor (for end-to-end training)."""
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = class_weights.value.shape[0]
    if labels.ndim != 1 or features.value.shape[0] != labels.shape[0]:
        raise ValueError("labels must be a vector matching the feature batch")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ValueError("label out of range")
    if not np.all(np.isfinite(features.value)):
        raise ValueError("non-finite features")

    fn = _normalize_rows(features, "feature")
    wn = _normalize_rows(class_weights, "class weight row")
    cos = (fn @ wn.swapaxes(0, 1)).clip(-1.0 + _COS_CLAMP, 1.0 - _COS_CLAMP)
    sin = (1.0 - cos * cos).sqrt()
    cos_margined = cos * np.cos(margin) - sin * np.sin(margin)

    onehot = np.zeros((labels.shape[0], n_classes))
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    logits = (cos + Tensor(onehot) * (cos_margined - cos)) * scale
    nll = -(log_softmax(logits, axis=1) * onehot).sum()
    return nll * (1.0 / labels.shape[0])

