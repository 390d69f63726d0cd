"""Two-stage ranking, blending, metrics, and result serialization."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facevit.model import H2LScorer, ModelConfig, Variant, init_random
from facevit.pipeline import (EmdSettings, PipelineConfig, QueryMetrics,
                              RankingResult, Reranker, evaluate, query_metrics,
                              report_to_files, results_from_csv, results_to_csv,
                              run_pipeline, run_query, stage1_rank,
                              stage2_rerank)
from facevit.records import FaceRecord, Gallery, QuerySet, SynthConfig, generate_synthetic


def toy_data(seed=0, n_identities=3, per_id=3, sigma=0.3, qpi=1, **kw):
    cfg = SynthConfig(n_identities, per_id, sigma, seed, dim=16, grid=4,
                      queries_per_identity=qpi, **kw)
    return generate_synthetic(cfg)


def h2l_weights(seed=0):
    return init_random(ModelConfig(Variant.H2L, depth=1, heads=2, dim=16,
                                   n_patches=16, out_dim=16), seed)


# -- stage 1 -----------------------------------------------------------------

def test_stage1_matches_brute_force_cosine():
    g, q = toy_data()
    order, scores = stage1_rank(q.records[0], g)
    mat = np.stack([r.image_vec for r in g.records])
    ref = mat @ q.records[0].image_vec / (
        np.linalg.norm(mat, axis=1) * np.linalg.norm(q.records[0].image_vec))
    ref_order = sorted(range(len(g)), key=lambda j: (-ref[j], j))
    np.testing.assert_array_equal(order, ref_order)
    np.testing.assert_allclose(scores, ref[order], atol=1e-12)


def test_stage1_scores_equal_stacked_reference_bit_for_bit():
    g, q = generate_synthetic(SynthConfig(20, 10, 0.5, 4, dim=512, grid=2,
                                          queries_per_identity=2))
    mat = np.stack([r.image_vec for r in g.records])
    norms = np.linalg.norm(mat, axis=1)
    for rec in q.records:
        order, scores = stage1_rank(rec, g)
        ref = (mat @ rec.image_vec) / (norms * np.linalg.norm(rec.image_vec))
        np.testing.assert_array_equal(order, np.lexsort((np.arange(len(g)), -ref)))
        np.testing.assert_array_equal(scores, ref[order])


def test_stage1_ties_break_by_gallery_index():
    vec = np.ones(4)
    patches = np.ones((4, 4))
    g = Gallery(records=[FaceRecord(i, vec, patches) for i in range(5)])
    order, scores = stage1_rank(g.records[0], g)
    np.testing.assert_array_equal(order, [0, 1, 2, 3, 4])
    assert np.all(scores == scores[0])


def test_stage1_rejects_empty_gallery_and_zero_norms():
    g, q = toy_data()
    with pytest.raises(ValueError):
        stage1_rank(q.records[0], Gallery())
    zero = FaceRecord(0, np.zeros(16), np.ones((16, 16)))
    with pytest.raises(ValueError):
        stage1_rank(zero, g)


# -- stage 2 -----------------------------------------------------------------

def test_alpha_zero_full_k_preserves_stage1_order():
    g, q = toy_data()
    cfg = PipelineConfig(k=len(g), alpha=0.0, reranker=Reranker.EMD)
    base = PipelineConfig(k=1, reranker=Reranker.NONE)
    rr = run_query(q.records[0], g, cfg)
    plain = run_query(q.records[0], g, base)
    np.testing.assert_array_equal(rr.order, plain.order)


def test_below_k_tail_is_untouched():
    g, q = toy_data(n_identities=4, per_id=3)
    cfg = PipelineConfig(k=4, alpha=0.7, reranker=Reranker.EMD)
    res = run_query(q.records[0], g, cfg)
    order, _ = stage1_rank(q.records[0], g)
    np.testing.assert_array_equal(res.order[4:], order[4:])
    assert set(res.order[:4]) == set(order[:4])
    assert np.all(np.isnan(res.stage2[4:]))
    assert np.all(np.isfinite(res.stage2[:4]))


def test_blend_normalization_reference_values():
    # two-candidate shortlist: normalized scores are {0, 1}; alpha=0.7 blends
    # the worse-stage1/better-stage2 candidate to 0.7 and the other to 0.3
    s1 = np.array([0.9, 0.4])
    s2 = np.array([0.1, 0.8])
    s1n = (s1 - s1.min()) / (s1.max() - s1.min())
    s2n = (s2 - s2.min()) / (s2.max() - s2.min())
    blended = 0.7 * s2n + 0.3 * s1n
    np.testing.assert_allclose(blended, [0.3, 0.7], atol=1e-12)


def test_example_blend_values_surface_in_result():
    # pipeline must reproduce the hand blend above for k=2
    g, q = toy_data(n_identities=2, per_id=2, sigma=0.1)
    cfg = PipelineConfig(k=2, alpha=0.7, reranker=Reranker.EMD)
    res = run_query(q.records[0], g, cfg)
    top2 = res.order[:2]
    s1_by_index = dict(zip(res.order, res.stage1))
    raw_s2 = dict(zip(res.order, res.stage2))
    s1 = np.array([s1_by_index[j] for j in sorted(top2)])
    s2 = np.array([raw_s2[j] for j in sorted(top2)])
    s1n = np.zeros(2) if s1.max() == s1.min() else (s1 - s1.min()) / (s1.max() - s1.min())
    s2n = np.zeros(2) if s2.max() == s2.min() else (s2 - s2.min()) / (s2.max() - s2.min())
    expect = 0.7 * s2n + 0.3 * s1n
    got = np.array([dict(zip(res.order, res.blended))[j] for j in sorted(top2)])
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_degenerate_scores_normalize_to_zero():
    vec = np.ones(16)
    patches = np.ones((16, 16))
    g = Gallery(records=[FaceRecord(i, vec, patches) for i in range(3)])
    cfg = PipelineConfig(k=3, alpha=0.7, reranker=Reranker.EMD)
    res = run_query(g.records[0], g, cfg)
    np.testing.assert_array_equal(res.blended, np.zeros(3))
    np.testing.assert_array_equal(res.order, [0, 1, 2])  # index tie-break


def test_h2l_reranker_runs_and_keeps_shortlist_on_top():
    g, q = toy_data(n_identities=4, per_id=3)
    cfg = PipelineConfig(k=5, alpha=0.7, reranker=Reranker.H2L, weights=h2l_weights())
    res = run_query(q.records[0], g, cfg)
    order_s1, _ = stage1_rank(q.records[0], g)
    assert set(res.order[:5]) == set(order_s1[:5])
    assert res.flagged == 0


def poisoned_toy_data(value=1e20):
    # patches this large are finite in f32 (and in an FVEB file) but overflow
    # the forward; only the poisoned candidate may fall back to stage 1
    g, q = toy_data()
    records = list(g.records)
    records[4] = dataclasses.replace(records[4], patches=np.full_like(records[4].patches, value))
    return Gallery(records=records), q


class CountingScorer(H2LScorer):
    calls = 0

    def score_against(self, query, candidates):
        self.calls += 1
        return super().score_against(query, candidates)


def test_h2l_non_finite_score_is_flagged():
    g, q = poisoned_toy_data()
    cfg = PipelineConfig(k=len(g), alpha=0.7, reranker=Reranker.H2L, weights=h2l_weights())
    with np.errstate(all="ignore"):
        res = run_query(q.records[0], g, cfg)
    assert res.flagged == 1
    poisoned = np.flatnonzero(res.order == 4)
    assert np.isnan(res.stage2[poisoned]).all()
    assert np.isfinite(np.delete(res.stage2, poisoned)).all()


def test_h2l_non_finite_score_costs_one_batched_call():
    g, q = poisoned_toy_data()
    cfg = PipelineConfig(k=len(g), alpha=0.7, reranker=Reranker.H2L, weights=h2l_weights())
    scorer = CountingScorer(cfg.weights)
    res = run_query(q.records[0], g, cfg, scorer)
    assert scorer.calls == 1
    assert res.flagged == 1


def test_h2l_overflowing_tokens_cost_one_call_and_move_no_other_score():
    # at 1e38 the token projection itself overflows to inf, so the attention
    # input is non-finite; the shortlist is still scored in one call
    clean_g, q = toy_data()
    g, _ = poisoned_toy_data(1e38)
    cfg = PipelineConfig(k=len(g), alpha=0.7, reranker=Reranker.H2L, weights=h2l_weights())
    clean = run_query(q.records[0], clean_g, cfg)
    scorer = CountingScorer(cfg.weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_query(q.records[0], g, cfg, scorer)
    assert scorer.calls == 1
    assert res.flagged == 1
    expected, got = dict(zip(clean.order, clean.stage2)), dict(zip(res.order, res.stage2))
    assert np.isnan(got.pop(4)) and not np.isnan(expected.pop(4))
    assert got == expected


def test_h2l_poisoned_candidate_in_a_middle_block_flags_only_it():
    # 250 candidates of 34 token rows are scored in three blocks of 83, 83
    # and 84 in stage-1 order; stage-1 position 125 is in the middle one
    g, q = toy_data(n_identities=25, per_id=10)
    cfg = PipelineConfig(k=len(g), alpha=0.7, reranker=Reranker.H2L, weights=h2l_weights())
    clean = run_query(q.records[0], g, cfg)
    victim = int(stage1_rank(q.records[0], g)[0][125])
    records = list(g.records)
    records[victim] = dataclasses.replace(records[victim],
                                          patches=np.full_like(records[victim].patches, 1e20))
    scorer = CountingScorer(cfg.weights)
    res = run_query(q.records[0], Gallery(records=records), cfg, scorer)
    assert scorer.calls == 1
    assert res.flagged == 1
    # every other candidate keeps the score it has without the poisoned one
    expected, got = dict(zip(clean.order, clean.stage2)), dict(zip(res.order, res.stage2))
    assert np.isnan(got.pop(victim)) and not np.isnan(expected.pop(victim))
    assert got == expected


def test_h2l_non_finite_score_raises_no_warning():
    g, q = poisoned_toy_data()
    cfg = PipelineConfig(k=len(g), alpha=0.7, reranker=Reranker.H2L, weights=h2l_weights())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_query(q.records[0], g, cfg)
    assert res.flagged == 1


def test_no_normalize_mode_blends_raw_scores():
    g, q = toy_data()
    cfg = PipelineConfig(k=3, alpha=1.0, reranker=Reranker.EMD, normalize=False)
    res = run_query(q.records[0], g, cfg)
    s2 = res.stage2[:3]
    np.testing.assert_allclose(res.blended[:3], s2, atol=1e-12)
    assert np.all(np.diff(s2) <= 1e-12)  # sorted by raw stage-2 score


def test_config_validation():
    g, _ = toy_data()
    with pytest.raises(ValueError):
        PipelineConfig(k=0).validate(len(g))
    with pytest.raises(ValueError):
        PipelineConfig(k=len(g) + 1).validate(len(g))
    with pytest.raises(ValueError):
        PipelineConfig(alpha=1.5).validate(len(g))
    with pytest.raises(ValueError):
        PipelineConfig(reranker=Reranker.H2L).validate(len(g))


def test_workers_produce_identical_results():
    g, q = toy_data(n_identities=4, qpi=2)
    cfg1 = PipelineConfig(k=4, alpha=0.7, reranker=Reranker.EMD, workers=1)
    cfg4 = PipelineConfig(k=4, alpha=0.7, reranker=Reranker.EMD, workers=4)
    r1 = run_pipeline(g, q, cfg1)
    r4 = run_pipeline(g, q, cfg4)
    for a, b in zip(r1, r4):
        np.testing.assert_array_equal(a.order, b.order)
        np.testing.assert_array_equal(a.blended, b.blended)


# -- metrics -----------------------------------------------------------------

def brute_force_metrics(order_identities, query_identity, r):
    """Literal implementation: P@1, P@R, and (1/R) sum of P(i) over correct i."""
    correct = [ident == query_identity for ident in order_identities]
    p_at_1 = 1.0 if correct[0] else 0.0
    rp = sum(correct[:r]) / r
    m_at_r = 0.0
    for i in range(1, r + 1):
        if correct[i - 1]:
            m_at_r += sum(correct[:i]) / i
    return p_at_1, rp, m_at_r / r


def fake_result(order, identities, qid):
    n = len(order)
    return RankingResult(0, qid, np.array(order), np.zeros(n), np.zeros(n),
                         np.zeros(n), identities[order[0]])


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(3, 12))
        identities = [int(x) for x in rng.integers(0, 4, size=n)]
        qid = int(rng.integers(0, 4))
        if qid not in identities:
            identities[0] = qid
        g = Gallery(records=[FaceRecord(i, np.ones(4), np.ones((4, 4)))
                             for i in identities])
        order = rng.permutation(n)
        res = fake_result(order, identities, qid)
        qm = query_metrics(res, g)
        ref = brute_force_metrics([identities[j] for j in order], qid,
                                  identities.count(qid))
        assert abs(qm.p_at_1 - ref[0]) < 1e-12
        assert abs(qm.rp - ref[1]) < 1e-12
        assert abs(qm.m_at_r - ref[2]) < 1e-12


def test_metrics_skip_open_set_queries():
    g = Gallery(records=[FaceRecord(0, np.ones(4), np.ones((4, 4)))])
    res = fake_result([0], [0], qid=9)
    assert query_metrics(res, g) is None
    with pytest.raises(ValueError):
        evaluate([res], g)


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_promoting_a_correct_item_never_hurts(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    identities = [int(x) for x in rng.integers(0, 3, size=n)]
    qid = 0
    if qid not in identities:
        identities[0] = qid
    g = Gallery(records=[FaceRecord(i, np.ones(4), np.ones((4, 4)))
                         for i in identities])
    order = list(rng.permutation(n))
    correct_pos = [p for p, j in enumerate(order) if identities[j] == qid and p > 0]
    if not correct_pos:
        return
    p = correct_pos[0]
    promoted = order.copy()
    promoted[p - 1], promoted[p] = promoted[p], promoted[p - 1]
    before = query_metrics(fake_result(order, identities, qid), g)
    after = query_metrics(fake_result(promoted, identities, qid), g)
    assert after.p_at_1 >= before.p_at_1 - 1e-12
    assert after.rp >= before.rp - 1e-12
    assert after.m_at_r >= before.m_at_r - 1e-12


def test_evaluate_averages_and_counts_skips():
    g = Gallery(records=[FaceRecord(0, np.ones(4), np.ones((4, 4))),
                         FaceRecord(1, np.ones(4), np.ones((4, 4)))])
    good = fake_result([0, 1], [0, 1], qid=0)
    bad = fake_result([1, 0], [0, 1], qid=0)
    skip = fake_result([0, 1], [0, 1], qid=7)
    report = evaluate([good, bad, skip], g)
    assert report.p_at_1 == 0.5
    assert report.skipped == 1
    assert len(report.per_query) == 2


# -- serialization -----------------------------------------------------------

def test_results_csv_round_trip(tmp_path):
    g, q = toy_data(n_identities=3, qpi=2)
    cfg = PipelineConfig(k=3, alpha=0.7, reranker=Reranker.EMD)
    results = run_pipeline(g, q, cfg)
    path = tmp_path / "res.csv"
    results_to_csv(results, g, path)
    loaded = results_from_csv(path)
    assert len(loaded) == len(results)
    for a, b in zip(results, loaded):
        assert a.query_identity == b.query_identity
        assert a.predicted_identity == b.predicted_identity
        np.testing.assert_array_equal(a.order, b.order)
        np.testing.assert_allclose(a.blended, b.blended, rtol=1e-9)
        np.testing.assert_allclose(a.stage2, b.stage2, rtol=1e-9)
    r1 = evaluate(results, g)
    r2 = evaluate(loaded, g)
    assert (r1.p_at_1, r1.rp, r1.m_at_r) == (r2.p_at_1, r2.rp, r2.m_at_r)


def test_results_csv_header_validated(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n1,2\n")
    with pytest.raises(ValueError):
        results_from_csv(path)


def test_report_files(tmp_path):
    g, q = toy_data()
    results = run_pipeline(g, q, PipelineConfig(k=1, reranker=Reranker.NONE))
    report = evaluate(results, g)
    summary = report_to_files(report, csv_path=tmp_path / "per_query.csv",
                              json_path=tmp_path / "report.json",
                              config_echo={"k": 1})
    assert (tmp_path / "per_query.csv").exists()
    text = (tmp_path / "report.json").read_text()
    assert '"p_at_1"' in text and '"config"' in text
    assert summary["queries"] == len(q)
