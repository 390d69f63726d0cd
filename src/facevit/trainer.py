"""Toy-scale training of the H1/H2/H2L variants on synthetic identities.

Adam on all transformer parameters plus the angular-margin class weights;
the stored patch embeddings (the CNN stand-in) are never updated. Before the
first step the gradient path of the exact model configuration must pass a
finite-difference check, otherwise training refuses to start.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .arcface import arcface_loss_t
from .autograd import Tensor, concat, log_softmax
from .model import (ModelConfig, ModelWeights, Variant, cast_weights, h1_embed_batch,
                    h2_logits_batch, h2l_features, init_random, row_cosine)
from .nn_core import grad_check
from .records import Gallery


class TrainerError(ValueError):
    pass


@dataclass
class TrainConfig:
    pairs_per_epoch: int = 200
    epochs: int = 30
    batch_size: int = 40            # images per batch; even (two blocks per pair)
    lr_warmup: float = 1e-4
    lr_main: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    holdout_fraction: float = 0.25
    margin: float = 0.5
    scale: float = 30.0
    grad_check_tol: float = 1e-4

    def validate(self) -> None:
        if self.batch_size % 2 != 0 or self.batch_size < 2:
            raise ValueError("batch_size must be even and >= 2")
        if self.lr_warmup < 0 or self.lr_main < 0:
            raise ValueError("learning rates must be non-negative")
        if self.pairs_per_epoch < 1 or self.epochs < 1:
            raise ValueError("pairs_per_epoch and epochs must be positive")
        if not (0.0 < self.holdout_fraction < 1.0):
            raise ValueError("holdout_fraction must lie in (0, 1)")
        if not (0.0 <= self.margin < np.pi / 2):
            raise ValueError("margin must lie in [0, pi/2)")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


Pair = tuple[int, int, bool]  # (record index, record index, same identity)


def sample_pairs(g: Gallery, n: int, seed: int) -> list[Pair]:
    """Exactly n/2 positive and n/2 negative pairs, uniform over eligible
    record combinations, deterministic by seed."""
    if n % 2 != 0:
        raise ValueError("pair count must be even")
    by_id: dict[int, list[int]] = {}
    for i, identity in enumerate(g.identities.tolist()):
        by_id.setdefault(identity, []).append(i)
    positives = [(i, j) for members in by_id.values() if len(members) >= 2
                 for a, i in enumerate(members) for j in members[a + 1:]]
    if not positives:
        raise TrainerError("no identity has >= 2 records; cannot form positive pairs")
    ids = sorted(by_id)
    if len(ids) < 2:
        raise TrainerError("need at least 2 identities; cannot form negative pairs")
    rng = np.random.default_rng(seed)
    half = n // 2
    pairs: list[Pair] = []
    for idx in rng.integers(0, len(positives), size=half):
        i, j = positives[idx]
        pairs.append((i, j, True))
    for _ in range(half):
        ka, kb = rng.choice(len(ids), size=2, replace=False)
        i = int(rng.choice(by_id[ids[ka]]))
        j = int(rng.choice(by_id[ids[kb]]))
        pairs.append((i, j, False))
    return pairs


def _pair_blocks(g: Gallery, pairs: list[Pair]) -> tuple[np.ndarray, np.ndarray]:
    pa = g.patches[[i for i, _, _ in pairs]].astype(np.float64)
    pb = g.patches[[j for _, j, _ in pairs]].astype(np.float64)
    return pa, pb


def _pair_classes(state: TrainState, g: Gallery, pairs: list[Pair]) -> np.ndarray:
    """Class of each image of the batch: the a-sides, then the b-sides."""
    ids = g.identities[[i for i, _, _ in pairs] + [j for _, j, _ in pairs]]
    return np.array([state.class_of[k] for k in ids.tolist()])


@dataclass
class TrainState:
    weights: ModelWeights
    arcface_w: np.ndarray | None
    class_of: dict[int, int]
    threshold: float = 0.0


def _pair_features(w: ModelWeights, pa: np.ndarray, pb: np.ndarray, p: dict[str, Tensor] | None,
                   bn_mode: str, update_stats: bool) -> tuple[Tensor, Tensor]:
    """Per-image features of both pair sides: the H2L head's cross-attention
    features, or each side's own H1 embedding (which has no batch norm)."""
    if w.config.variant is Variant.H2L:
        return h2l_features(w, pa, pb, p=p, bn_mode=bn_mode, update_stats=update_stats)[:2]
    return h1_embed_batch(w, pa, p=p), h1_embed_batch(w, pb, p=p)


def pair_scores(state: TrainState, g: Gallery, pairs: list[Pair],
                blocks: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Verification score per pair (higher = more likely same identity)."""
    w = state.weights
    pa, pb = blocks if blocks is not None else _pair_blocks(g, pairs)
    if w.config.variant is Variant.H2:
        logits = h2_logits_batch(w, pa, pb).value
        return logits[:, 1] - logits[:, 0]
    f1, f2 = _pair_features(w, pa, pb, None, "running", False)
    return row_cosine(f1.value, f2.value)


def best_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """Threshold maximizing accuracy on (scores, labels); of equally good
    candidates, the lowest."""
    s = np.sort(scores)
    candidates = np.concatenate([[s[0] - 1.0], (s[:-1] + s[1:]) / 2.0, [s[-1] + 1.0]])
    acc = ((scores > candidates[:, None]) == labels).mean(axis=1)
    return float(candidates[np.argmax(acc)])


def pair_accuracy(scores: np.ndarray, labels: np.ndarray, threshold: float) -> float:
    return float(((scores > threshold) == labels).mean())


def _batch_loss(state: TrainState, g: Gallery, pairs: list[Pair], tc: TrainConfig,
                p: dict[str, Tensor], update_stats: bool) -> Tensor:
    """The batch's loss; `p` holds the model's parameters and, for H1 and
    H2L, the class weights as `"arcface.W"`."""
    w = state.weights
    pa, pb = _pair_blocks(g, pairs)
    if w.config.variant is Variant.H2:
        logits = h2_logits_batch(w, pa, pb, p=p)
        onehot = np.zeros((len(pairs), 2))
        onehot[np.arange(len(pairs)), [int(same) for _, _, same in pairs]] = 1.0
        return -(log_softmax(logits, axis=1) * onehot).sum() * (1.0 / len(pairs))
    # H1 and H2L: per-image angular-margin classification over both pair sides
    feats = concat(_pair_features(w, pa, pb, p, "batch", update_stats), axis=0)
    return arcface_loss_t(feats, _pair_classes(state, g, pairs), p["arcface.W"], tc.margin, tc.scale)


def _trainable(state: TrainState) -> dict[str, np.ndarray]:
    """The arrays training updates: the model's parameters, then the class
    weights, if any, as `"arcface.W"`."""
    theta = dict(state.weights.params)
    if state.arcface_w is not None:
        theta["arcface.W"] = state.arcface_w
    return theta


def verify_gradients(state: TrainState, g: Gallery, tc: TrainConfig,
                     n_directions: int = 6) -> float:
    """Finite-difference check of the full loss on an 8-pair probe batch.

    The probe batch must be large enough that the batch-statistics path of
    the normalization head is well conditioned; two pairs are degenerate
    (each normalized sample is the exact mirror of the other).
    """
    probe = sample_pairs(g, 8, tc.seed + 17)

    def f(params: dict[str, np.ndarray]):
        p = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
        loss = _batch_loss(state, g, probe, tc, p, update_stats=False)
        loss.backward()
        grads = {k: (t.grad if t.grad is not None else np.zeros_like(t.value))
                 for k, t in p.items()}
        return float(loss.value), grads

    return grad_check(f, _trainable(state), n_directions=n_directions, seed=tc.seed)


class _Adam:
    def __init__(self, tc: TrainConfig):
        self.tc = tc
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float) -> None:
        tc = self.tc
        self.t += 1
        b1, b2 = tc.adam_beta1, tc.adam_beta2
        for name, gr in grads.items():
            if gr is None:
                continue
            m = self.m.setdefault(name, np.zeros_like(params[name]))
            v = self.v.setdefault(name, np.zeros_like(params[name]))
            m += (1 - b1) * (gr - m)
            v += (1 - b2) * (gr * gr - v)
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            params[name] -= lr * m_hat / (np.sqrt(v_hat) + tc.adam_eps)


def train(cfg: ModelConfig, weights: ModelWeights | None, data: Gallery,
          tc: TrainConfig) -> tuple[TrainState, list[dict]]:
    """Train and return the final state plus per-epoch history."""
    tc.validate()
    if weights is None:
        weights = init_random(cfg, tc.seed)
    weights = cast_weights(weights, np.float64, copy=True)
    identities = np.unique(data.identities).tolist()
    class_of = {ident: i for i, ident in enumerate(identities)}
    arc_w = None
    if cfg.variant in (Variant.H2L, Variant.H1):
        arc_rng = np.random.default_rng(tc.seed + 1)
        arc_w = 0.01 * arc_rng.standard_normal((len(identities), cfg.out_dim))
    state = TrainState(weights, arc_w, class_of)

    err = verify_gradients(state, data, tc)
    if err >= tc.grad_check_tol:
        raise TrainerError(f"gradient check failed before training: rel err {err:.3e}")

    n_hold = max(2, 2 * round(tc.holdout_fraction * tc.pairs_per_epoch / 2))
    hold_pairs = sample_pairs(data, n_hold, tc.seed + 101)
    hold_blocks = _pair_blocks(data, hold_pairs)
    hold_labels = np.array([same for _, _, same in hold_pairs])

    # Adam updates theta's arrays in place, so the state sees every step
    theta = _trainable(state)
    adam = _Adam(tc)
    pairs_per_batch = tc.batch_size // 2
    last_good = copy.deepcopy((theta, weights.buffers))
    history: list[dict] = []

    for epoch in range(tc.epochs):
        lr = tc.lr_warmup if epoch == 0 else tc.lr_main
        epoch_pairs = sample_pairs(data, tc.pairs_per_epoch, tc.seed + 1000 + epoch)
        losses = []
        diverged = False
        for start in range(0, len(epoch_pairs), pairs_per_batch):
            batch = epoch_pairs[start:start + pairs_per_batch]
            if len(batch) < 2:
                continue
            p = {k: Tensor(v, requires_grad=True) for k, v in theta.items()}
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    loss = _batch_loss(state, data, batch, tc, p, update_stats=True)
            except (ValueError, FloatingPointError):
                diverged = True
                break
            if not np.isfinite(loss.value):
                diverged = True
                break
            loss.backward()
            losses.append(float(loss.value))
            if lr > 0:
                adam.step(theta, {k: t.grad for k, t in p.items()}, lr)
                if not all(np.all(np.isfinite(v)) for v in theta.values()):
                    diverged = True
                    break
        if diverged:
            good_theta, weights.buffers = last_good
            for k, v in good_theta.items():
                theta[k][...] = v
            history.append({"epoch": epoch, "loss": float("nan"), "holdout_accuracy": None,
                            "lr": lr, "diverged": True})
            break

        train_scores = pair_scores(state, data, epoch_pairs)
        train_labels = np.array([same for _, _, same in epoch_pairs])
        state.threshold = best_threshold(train_scores, train_labels)
        hold_scores = pair_scores(state, data, hold_pairs, blocks=hold_blocks)
        acc = pair_accuracy(hold_scores, hold_labels, state.threshold)
        history.append({"epoch": epoch, "loss": float(np.mean(losses)),
                        "holdout_accuracy": acc, "lr": lr})
        last_good = copy.deepcopy((theta, weights.buffers))

    return state, history
