"""End-to-end acceptance checks for the two-stage identification engine.

Each test is one pass/fail property of the finished system: solver accuracy
against an exact oracle, gradient correctness of the full training loss,
behavioral contrasts between head variants, retrieval gains on the occluded
benchmark, speed and scaling of the rerankers, metric correctness against a
literal brute-force evaluator, and bit-exact serialization.

The slow benchmark tests time real single-threaded work and dominate the
suite's runtime; they are ordinary tests, not marked, because they are the
point of the module.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from facevit.bench import run_scaling, run_wallclock
from facevit.emd import FlowProblem, sinkhorn
from facevit.experiments import run_ablation, run_occlusion_seed
from facevit.model import (ModelConfig, Variant, h1_embed_batch, h2l_features,
                           init_random, load_weights, save_weights)
from facevit.pipeline import (PipelineConfig, Reranker, evaluate,
                              run_pipeline)
from facevit.records import (SynthConfig, generate_synthetic, load_gallery,
                             save_records as save_gallery)
from facevit.trainer import TrainConfig, TrainState, verify_gradients

sys.path.insert(0, str(Path(__file__).resolve().parent))
from reference import exact_assignment_oracle, records_equal  # noqa: E402


# -- 1: entropic solver agrees with the exact assignment optimum -------------

def test_sinkhorn_matches_assignment_oracle():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    for _ in range(100):
        cost = rng.uniform(0.0, 2.0, size=(4, 4))
        marginal = np.full(4, 0.25)
        res = sinkhorn(FlowProblem(cost, marginal, marginal.copy()),
                       eps=1e-3, max_iters=1000, tol=1e-4)
        assert abs(res.distance - exact_assignment_oracle(cost)) < 1e-2
    assert time.perf_counter() - t0 < 10.0


# -- 2: analytic gradients of the full two-image loss are correct ------------

def test_gradient_check_full_model():
    t0 = time.perf_counter()
    for seed in (0, 1, 2):
        data_cfg = SynthConfig(4, 4, 0.3, seed=seed, dim=32, grid=4)
        gallery, _ = generate_synthetic(data_cfg)
        model_cfg = ModelConfig(Variant.H2L, depth=1, heads=2, dim=32,
                                n_patches=16, out_dim=32)
        weights = init_random(model_cfg, seed)
        arc_w = 0.01 * np.random.default_rng(seed + 1).standard_normal((4, 32))
        identities = sorted({r.identity for r in gallery.records})
        state = TrainState(weights, arc_w, {k: i for i, k in enumerate(identities)})
        err = verify_gradients(state, gallery, TrainConfig(seed=seed))
        assert err < 1e-4, f"seed {seed}: relative error {err:.3e}"
    assert time.perf_counter() - t0 < 120.0


# -- 3: the two-image head attends across images, the one-image head cannot --

def _query_feature(variant: Variant, weights, pa, pb):
    """The query-side feature each head produces when scoring (a, b); the
    one-image head computes it from image a alone."""
    if variant is Variant.H2L:
        return h2l_features(weights, pa, pb, bn_mode="running")[0].value
    return h1_embed_batch(weights, pa).value


def test_cross_image_sensitivity_present_and_absent():
    rng = np.random.default_rng(7)
    for draw in range(20):
        pa = rng.standard_normal((1, 16, 16))
        pb = rng.standard_normal((1, 16, 16))
        pb2 = pb + 0.1 * rng.standard_normal(pb.shape)
        for variant in (Variant.H2L, Variant.H1):
            weights = init_random(ModelConfig(variant, depth=1, heads=2, dim=16,
                                              n_patches=16, out_dim=16), draw)
            delta = np.max(np.abs(_query_feature(variant, weights, pa, pb)
                                  - _query_feature(variant, weights, pa, pb2)))
            if variant is Variant.H2L:
                assert delta > 0.0
            else:
                assert delta == 0.0


# -- 4: transport re-ranking recovers occluded queries -----------------------

def test_occlusion_reranking_benefit_emd():
    t0 = time.perf_counter()
    results = [run_occlusion_seed(seed, Reranker.EMD) for seed in range(20)]
    st1 = np.mean([r.stage1.p_at_1 for r in results])
    st2 = np.mean([r.stage2.p_at_1 for r in results])
    assert st2 >= st1
    assert st2 - st1 >= 0.02, f"mean gain {st2 - st1:.4f}"
    assert time.perf_counter() - t0 < 300.0


# -- 5 & 6 share one set of training runs ------------------------------------

@pytest.fixture(scope="module")
def ablation():
    t0 = time.perf_counter()
    result = run_ablation(seeds=(0, 1, 2, 3, 4), epochs=30)
    result.elapsed = time.perf_counter() - t0
    return result


def test_trained_reranker_improves_occluded_retrieval(ablation):
    per_seed = [run_occlusion_seed(seed, Reranker.H2L,
                                   weights=ablation.h2l_states[seed].weights,
                                   toy=True)
                for seed in range(5)]
    st1 = np.mean([r.stage1.p_at_1 for r in per_seed])
    st2 = np.mean([r.stage2.p_at_1 for r in per_seed])
    assert st2 >= st1, f"stage-2 {st2:.3f} < stage-1 {st1:.3f}"


def test_head_ablation_ordering(ablation):
    mean = {name: np.mean(acc) for name, acc in ablation.accuracy.items()}
    assert mean["H2L"] >= mean["H2"]
    assert mean["H2L"] >= mean["H1"]
    for seed_acc in ablation.accuracy["H2L"]:
        assert seed_acc > 0.9
    assert ablation.elapsed < 1800.0


# -- 7: attention reranker is at least twice as fast at production shape -----

def test_stage2_wallclock_ratio():
    report = None
    for attempt_seed in (0, 1):
        report = run_wallclock(n_patches=64, d=512, k=100, reps=100,
                               seed=attempt_seed)
        if not any(s["unstable"] for s in report["summary"].values()):
            break
    assert not any(s["unstable"] for s in report["summary"].values()), \
        "timings unstable on both attempts"
    assert report["ratio_h2l_over_emd"] <= 0.5, \
        f"ratio {report['ratio_h2l_over_emd']:.3f}"


# -- 8: fitted time-vs-patch-count exponents separate the rerankers ----------

def test_scaling_slope_gap():
    report = None
    for attempt_seed in (0, 1):
        report = run_scaling(ns=(16, 64, 256), reps=7, seed=attempt_seed)
        if not any(report["unstable"].values()):
            break
    assert not any(report["unstable"].values()), "timings unstable on both attempts"
    assert report["slope_gap"] >= 0.5, f"gap {report['slope_gap']:.3f}"


# -- 9: retrieval metrics equal a literal brute-force evaluator --------------

def _brute_force_metrics(order_identities, query_identity, n_relevant):
    rel = [1.0 if i == query_identity else 0.0 for i in order_identities]
    p_at_1 = rel[0]
    rp = sum(rel[:n_relevant]) / n_relevant
    m_at_r = 0.0
    for i in range(1, n_relevant + 1):
        if rel[i - 1]:
            m_at_r += sum(rel[:i]) / i
    return p_at_1, rp, m_at_r / n_relevant


def test_metrics_match_brute_force():
    rng = np.random.default_rng(99)
    for trial in range(50):
        cfg = SynthConfig(int(rng.integers(2, 6)), int(rng.integers(2, 5)),
                          float(rng.uniform(0.05, 0.8)), seed=trial,
                          queries_per_identity=int(rng.integers(1, 3)),
                          dim=8, grid=2)
        gallery, queries = generate_synthetic(cfg)
        results = run_pipeline(gallery, queries,
                               PipelineConfig(reranker=Reranker.NONE,
                                              k=len(gallery)))
        report = evaluate(results, gallery)
        p1s, rps, mrs = [], [], []
        for res, qm in zip(results, report.per_query):
            ids = [gallery.records[j].identity for j in res.order]
            n_rel = ids.count(res.query_identity)
            p1, rp, mr = _brute_force_metrics(ids, res.query_identity, n_rel)
            assert abs(qm.p_at_1 - p1) <= 1e-12
            assert abs(qm.rp - rp) <= 1e-12
            assert abs(qm.m_at_r - mr) <= 1e-12
            p1s.append(p1), rps.append(rp), mrs.append(mr)
        assert abs(report.p_at_1 - np.mean(p1s)) <= 1e-12
        assert abs(report.rp - np.mean(rps)) <= 1e-12
        assert abs(report.m_at_r - np.mean(mrs)) <= 1e-12


# -- 10: binary formats round-trip bit-exactly -------------------------------

def test_gallery_format_round_trips(tmp_path):
    rng = np.random.default_rng(4242)
    for trial in range(100):
        dim = int(rng.choice([8, 16, 512]))
        grid = int(rng.choice([2, 4] if dim != 512 else [8]))
        cfg = SynthConfig(int(rng.integers(2, 5)), int(rng.integers(2, 4)),
                          float(rng.uniform(0.05, 1.0)), seed=trial,
                          occluded_fraction=float(rng.uniform(0, 1)),
                          dim=dim, grid=grid)
        gallery, _ = generate_synthetic(cfg)
        p1, p2 = tmp_path / "a.gallery", tmp_path / "b.gallery"
        save_gallery(gallery, p1)
        loaded = load_gallery(p1)
        assert records_equal(gallery, loaded)
        save_gallery(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_weights_format_round_trips(tmp_path):
    rng = np.random.default_rng(2424)
    for trial in range(100):
        variant = Variant(list(Variant)[int(rng.integers(0, 3))].value)
        heads = int(rng.choice([1, 2, 4]))
        dim = int(rng.choice([8, 16]))
        cfg = ModelConfig(variant, depth=int(rng.integers(1, 3)), heads=heads,
                          dim=dim, n_patches=int(rng.choice([4, 16])),
                          out_dim=int(rng.choice([8, 16])))
        weights = init_random(cfg, trial)
        p1, p2 = tmp_path / "a.fvwt", tmp_path / "b.fvwt"
        save_weights(weights, p1)
        loaded = load_weights(p1)
        assert loaded.config == weights.config
        assert set(loaded.params) == set(weights.params)
        for key in weights.params:
            np.testing.assert_array_equal(loaded.params[key], weights.params[key])
        for key in weights.buffers:
            np.testing.assert_array_equal(loaded.buffers[key], weights.buffers[key])
        save_weights(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
