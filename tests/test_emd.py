"""Sinkhorn solver, the exact assignment oracle, and patch-set similarity."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facevit.emd import (FlowProblem, SinkhornError, WeightScheme,
                         build_flow_problem, emd_similarity, marginal_weights,
                         patch_cost_matrix, sinkhorn)
from facevit.records import SynthConfig, generate_synthetic

sys.path.insert(0, str(Path(__file__).resolve().parent))
from reference import exact_assignment_oracle  # noqa: E402


def uniform_problem(rng, n=4):
    cost = rng.uniform(0.0, 2.0, (n, n))
    w = np.full(n, 1.0 / n)
    return FlowProblem(cost, w, w.copy())


def toy_records(seed=0, sigma=0.2):
    cfg = SynthConfig(3, 2, sigma, seed, dim=16, grid=4, queries_per_identity=1)
    return generate_synthetic(cfg)


# -- flow problem validation -------------------------------------------------

def test_flow_problem_validation():
    w = np.full(3, 1 / 3)
    with pytest.raises(ValueError):
        FlowProblem(np.zeros((3, 4)), w, w)
    with pytest.raises(ValueError):
        FlowProblem(np.full((3, 3), 2.5), w, w)
    with pytest.raises(ValueError):
        FlowProblem(np.zeros((3, 3)), np.array([0.5, 0.5, 0.5]), w)
    with pytest.raises(ValueError):
        FlowProblem(np.zeros((3, 3)), np.array([-0.2, 0.6, 0.6]), w)


# -- solver ------------------------------------------------------------------

def test_marginals_satisfied_on_convergence():
    rng = np.random.default_rng(0)
    fp = uniform_problem(rng, 6)
    res = sinkhorn(fp, eps=0.1, max_iters=2000)
    assert res.converged
    assert res.marginal_error < 1e-6
    np.testing.assert_allclose(res.flow.sum(axis=1), fp.u, atol=1e-6)
    np.testing.assert_allclose(res.flow.sum(axis=0), fp.v, atol=1e-6)
    assert np.all(res.flow >= 0)


def test_distance_close_to_oracle_small_eps():
    rng = np.random.default_rng(1)
    for _ in range(10):
        fp = uniform_problem(rng, 4)
        res = sinkhorn(fp, eps=1e-3, max_iters=5000)
        oracle = exact_assignment_oracle(fp.cost)
        assert abs(res.distance - oracle) < 1e-2


def test_distance_stabilizes_over_iterations():
    # more iterations shrink the marginal violation, and the reported
    # distance settles once the plan is nearly feasible
    rng = np.random.default_rng(2)
    fp = uniform_problem(rng, 8)
    early = sinkhorn(fp, eps=0.05, max_iters=10)
    late = sinkhorn(fp, eps=0.05, max_iters=2000)
    assert late.marginal_error < early.marginal_error
    settled = [sinkhorn(fp, eps=0.05, fixed_iters=n).distance for n in (1990, 2000)]
    assert abs(settled[1] - settled[0]) < 1e-6


def test_fixed_iters_mode_is_deterministic_and_skips_checks():
    rng = np.random.default_rng(3)
    fp = uniform_problem(rng, 5)
    r1 = sinkhorn(fp, fixed_iters=50)
    r2 = sinkhorn(fp, fixed_iters=50)
    assert r1.iterations == 50
    np.testing.assert_array_equal(r1.flow, r2.flow)


def test_non_convergence_is_flagged_not_fatal():
    rng = np.random.default_rng(4)
    fp = uniform_problem(rng, 8)
    res = sinkhorn(fp, eps=1e-3, max_iters=5)
    assert not res.converged
    assert np.isfinite(res.distance)


def test_parameter_validation():
    rng = np.random.default_rng(5)
    fp = uniform_problem(rng)
    with pytest.raises(ValueError):
        sinkhorn(fp, eps=1e-4)
    with pytest.raises(ValueError):
        sinkhorn(fp, eps=2.0)
    with pytest.raises(ValueError):
        sinkhorn(fp, tol=0.0)
    zero = FlowProblem(fp.cost, np.array([0.0, 0.5, 0.25, 0.25]),
                       np.full(4, 0.25))
    with pytest.raises(ValueError):
        sinkhorn(zero)


def test_oracle_identity_cost_is_zero():
    c = 1.0 - np.eye(4)  # zero-cost on the diagonal
    assert exact_assignment_oracle(c) == 0.0


def test_oracle_rejects_large_instances():
    with pytest.raises(ValueError):
        exact_assignment_oracle(np.zeros((9, 9)))


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_sinkhorn_tracks_oracle(seed):
    # near-feasible entropic plans land close to the exact assignment cost;
    # the slack scales with the residual marginal violation
    rng = np.random.default_rng(seed)
    fp = uniform_problem(rng, 4)
    res = sinkhorn(fp, eps=0.01, max_iters=2000)
    oracle = exact_assignment_oracle(fp.cost)
    assert abs(res.distance - oracle) < 0.05 + 2.0 * res.marginal_error


# -- patch-set similarity ----------------------------------------------------

def test_cost_matrix_range_and_self_diagonal():
    g, _ = toy_records()
    p = g.patches[0].astype(np.float64)
    c = patch_cost_matrix(p, p)
    assert c.shape == (16, 16)
    assert c.min() >= 0.0 and c.max() <= 2.0
    np.testing.assert_allclose(np.diag(c), 0.0, atol=1e-12)


def test_uniform_weights_sum_to_one():
    g, _ = toy_records()
    pa, pb = g.patches[[0, 1]].astype(np.float64)
    u, v = marginal_weights(pa, pb, WeightScheme.UNIFORM)
    np.testing.assert_allclose(u, np.full(16, 1 / 16))
    np.testing.assert_allclose(v, u)


def test_cross_correlation_weights_positive_and_normalized():
    g, _ = toy_records()
    pa, pb = g.patches[[0, 3]].astype(np.float64)
    u, v = marginal_weights(pa, pb, WeightScheme.CROSS_CORRELATION)
    assert np.all(u > 0) and np.all(v > 0)
    assert abs(u.sum() - 1) < 1e-12 and abs(v.sum() - 1) < 1e-12


def test_same_identity_scores_higher_than_different():
    g, q = toy_records()
    same = emd_similarity(q.records[0], g.records[0])
    diff = emd_similarity(q.records[0], g.records[4])
    assert same > diff


def test_self_similarity_near_one():
    g, _ = toy_records()
    assert emd_similarity(g.records[0], g.records[0]) > 0.99


def test_mismatched_grids_rejected():
    g16, _ = toy_records()
    cfg = SynthConfig(2, 2, 0.2, 0, dim=16, grid=3)
    g9, _ = generate_synthetic(cfg)
    with pytest.raises(ValueError):
        emd_similarity(g16.records[0], g9.records[0])


def test_build_flow_problem():
    g, _ = toy_records()
    fp = build_flow_problem(g.records[0], g.records[1])
    pa, pb = g.patches[[0, 1]].astype(np.float64)
    np.testing.assert_array_equal(fp.cost, patch_cost_matrix(pa, pb))
    for got, want in zip((fp.u, fp.v), marginal_weights(pa, pb, WeightScheme.CROSS_CORRELATION)):
        np.testing.assert_array_equal(got, want)
    res = sinkhorn(fp)
    assert res.flow.shape == (16, 16) and np.all(res.flow >= 0)
