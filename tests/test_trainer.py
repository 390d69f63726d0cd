"""Pair sampling, threshold search, and the toy training loop."""

import numpy as np
import pytest

from facevit.model import ModelConfig, Variant, init_random
from facevit.records import Gallery, SynthConfig, generate_synthetic
from facevit.trainer import (TrainConfig, TrainerError, best_threshold,
                             pair_accuracy, pair_scores, sample_pairs, train,
                             verify_gradients, TrainState)


def toy_gallery(seed=0, n_identities=4, per_id=4, sigma=0.3, dim=16, grid=4):
    cfg = SynthConfig(n_identities, per_id, sigma, seed, dim=dim, grid=grid)
    g, _ = generate_synthetic(cfg)
    return g


def toy_model(variant=Variant.H2L, dim=16, n_patches=16):
    return ModelConfig(variant, depth=1, heads=2, dim=dim, n_patches=n_patches,
                       out_dim=dim)


def quick_tc(**kw):
    base = dict(pairs_per_epoch=16, epochs=2, batch_size=8, seed=0)
    base.update(kw)
    return TrainConfig(**base)


# -- pair sampling -----------------------------------------------------------

def test_sample_pairs_balanced_and_labeled_correctly():
    g = toy_gallery()
    pairs = sample_pairs(g, 40, seed=1)
    assert len(pairs) == 40
    assert sum(same for _, _, same in pairs) == 20
    for i, j, same in pairs:
        assert (g.records[i].identity == g.records[j].identity) == same
        if same:
            assert i != j


def test_sample_pairs_deterministic_by_seed():
    g = toy_gallery()
    assert sample_pairs(g, 20, seed=3) == sample_pairs(g, 20, seed=3)
    assert sample_pairs(g, 20, seed=3) != sample_pairs(g, 20, seed=4)


def test_sample_pairs_rejects_odd_count_and_singleton_identities():
    g = toy_gallery()
    with pytest.raises(ValueError):
        sample_pairs(g, 7, seed=0)
    singles_cfg = SynthConfig(3, 2, 0.2, 0, dim=16, grid=4)
    both, _ = generate_synthetic(singles_cfg)
    singles = Gallery(records=both.records[::2])  # one record per identity
    with pytest.raises(TrainerError):
        sample_pairs(singles, 4, seed=0)


# -- threshold search --------------------------------------------------------

def test_best_threshold_on_separable_scores():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([False, False, True, True])
    t = best_threshold(scores, labels)
    assert 0.2 < t < 0.8
    assert pair_accuracy(scores, labels, t) == 1.0


def test_best_threshold_handles_overlap():
    scores = np.array([0.1, 0.6, 0.4, 0.9])
    labels = np.array([False, False, True, True])
    t = best_threshold(scores, labels)
    assert pair_accuracy(scores, labels, t) == 0.75


# -- gradient precondition ---------------------------------------------------

@pytest.mark.parametrize("variant", [Variant.H2L, Variant.H2, Variant.H1])
def test_verify_gradients_passes_for_all_variants(variant):
    g = toy_gallery(dim=8, grid=3)
    cfg = ModelConfig(variant, depth=1, heads=2, dim=8, n_patches=9, out_dim=8)
    w = init_random(cfg, 0)
    arc_w = (0.01 * np.random.default_rng(1).standard_normal((4, 8))
             if variant in (Variant.H2L, Variant.H1) else None)
    ids = sorted({r.identity for r in g.records})
    state = TrainState(w, arc_w, {k: i for i, k in enumerate(ids)})
    err = verify_gradients(state, g, quick_tc(), n_directions=4)
    assert err < 1e-4


# -- training loop -----------------------------------------------------------

def test_training_reduces_loss_and_returns_history():
    g = toy_gallery()
    state, history = train(toy_model(), None, g, quick_tc(epochs=3))
    assert len(history) == 3
    assert history[0]["lr"] == 1e-4 and history[1]["lr"] == 1e-3
    assert history[-1]["loss"] < history[0]["loss"]
    assert 0.0 <= history[-1]["holdout_accuracy"] <= 1.0


def test_training_is_deterministic():
    g = toy_gallery()
    s1, h1 = train(toy_model(), None, g, quick_tc())
    s2, h2 = train(toy_model(), None, g, quick_tc())
    assert h1 == h2
    for k in s1.weights.params:
        np.testing.assert_array_equal(s1.weights.params[k], s2.weights.params[k])


def test_training_does_not_mutate_input_weights():
    g = toy_gallery()
    w0 = init_random(toy_model(), 0)
    snapshot = {k: v.copy() for k, v in w0.params.items()}
    train(toy_model(), w0, g, quick_tc(epochs=1))
    for k, v in snapshot.items():
        np.testing.assert_array_equal(w0.params[k], v)


def test_zero_lr_leaves_weights_unchanged():
    g = toy_gallery()
    w0 = init_random(toy_model(), 0)
    state, _ = train(toy_model(), w0, g, quick_tc(lr_warmup=0.0, lr_main=0.0, epochs=1))
    for k in w0.params:
        np.testing.assert_array_equal(state.weights.params[k], w0.params[k])


def test_divergence_aborts_and_restores_last_finite_checkpoint():
    g = toy_gallery()
    tc = quick_tc(epochs=4, lr_warmup=1e-4, lr_main=1e200)  # guaranteed blow-up
    state, history = train(toy_model(), None, g, tc)
    assert any(h.get("diverged") for h in history)
    assert len(history) < 4 or history[-1].get("diverged")
    for v in state.weights.params.values():
        assert np.all(np.isfinite(v))


def test_config_validation():
    with pytest.raises(ValueError):
        quick_tc(batch_size=5).validate()
    with pytest.raises(ValueError):
        quick_tc(holdout_fraction=0.0).validate()
    with pytest.raises(ValueError):
        quick_tc(epochs=0).validate()


def test_pair_scores_shapes_per_variant():
    g = toy_gallery()
    pairs = sample_pairs(g, 8, seed=0)
    for variant in (Variant.H2L, Variant.H2, Variant.H1):
        w = init_random(toy_model(variant), 0)
        ids = sorted({r.identity for r in g.records})
        state = TrainState(w, None, {k: i for i, k in enumerate(ids)})
        scores = pair_scores(state, g, pairs)
        assert scores.shape == (8,)
        assert np.all(np.isfinite(scores))
