"""Every metric the benchmark prints: name, unit, direction, and how it is
obtained ("measured" by a clock or the kernel, "computed" from shapes, file
sizes or shortlists, "solver" when it is read from solver results), with the
base of every ratio.

`E2E` are the end-to-end metrics that every workload reports and that a
regression gate can compare (BENCHMARK.json `end_to_end`). `JOB` are the
end-to-end metrics that exist only on some workloads; they are printed where
they apply. `LAYER` are the per-layer metrics of a traced run
(BENCHMARK.json `per_layer`); a workload that does not run a layer reports 0
for it, and the count that is that layer's base reads 0 as well.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str   # "higher" or "lower"
    source: str   # "measured", "computed" or "solver"
    base: str     # what the value is taken over, or the denominator of a ratio


E2E = [
    Metric("setup_s", "s", "lower", "measured",
           "median over set-up repetitions of load_gallery + load_queries + load_weights "
           "(train-toy: config parse + load_gallery)"),
    Metric("items_per_s", "items/s", "higher", "measured",
           "items in one job / median job wall time; an item is a query "
           "(rank-scan, rerank-*) or a training pair (train-toy)"),
    Metric("peak_rss_mb", "MB", "lower", "measured",
           "ru_maxrss of the measuring process (set-up + jobs + checks), 1 MB = 2^20 bytes"),
]

JOB = [
    Metric("queries_per_s", "queries/s", "higher", "measured",
           "queries in one job / median job wall time (run_pipeline + evaluate)"),
    Metric("p_at_1", "fraction", "higher", "measured",
           "queries whose top-1 identity is right / queries in the job"),
    Metric("map_at_r", "fraction", "higher", "measured",
           "mean over queries of average precision at R, R = gallery records of the "
           "query's identity"),
    Metric("failed_frac", "fraction", "lower", "measured",
           "(flagged candidates + diverged epochs + failed checks) / (reranked candidates "
           "+ queries, or epochs, of the checked job + checks); a query that raises fails "
           "the run"),
    Metric("train_pairs_per_s", "pairs/s", "higher", "measured",
           "pairs_per_epoch * epochs / median train() wall time"),
    Metric("train_final_loss", "loss", "lower", "measured",
           "mean batch loss of the last epoch"),
]

JOB_METRICS_BY_KIND = {
    "rank": ("queries_per_s", "p_at_1", "map_at_r", "failed_frac"),
    "h2l": ("queries_per_s", "p_at_1", "map_at_r", "failed_frac"),
    "emd": ("queries_per_s", "p_at_1", "map_at_r", "failed_frac"),
    "train": ("failed_frac", "train_pairs_per_s", "train_final_loss"),
}

LAYER = [
    Metric("records.load_gallery_s", "s", "lower", "measured",
           "median load_gallery span over set-up repetitions"),
    Metric("records.load_queries_s", "s", "lower", "measured",
           "median load_queries span over set-up repetitions"),
    Metric("records.gallery_mb", "MB", "lower", "computed",
           "size of the gallery FVEB file, 1 MB = 2^20 bytes"),
    Metric("records.load_mb_per_s", "MB/s", "higher", "computed",
           "records.gallery_mb / records.load_gallery_s"),
    Metric("model.load_weights_s", "s", "lower", "measured",
           "median load_weights span over set-up repetitions"),
    Metric("pipeline.queries", "count", "higher", "measured",
           "queries in the traced jobs; the sample count of the per-query percentiles"),
    Metric("pipeline.stage1_rank_ms.p50", "ms", "lower", "measured",
           "median stage1_rank span, one per query"),
    Metric("pipeline.stage1_rank_ms.p90", "ms", "lower", "measured",
           "90th percentile stage1_rank span, one per query"),
    Metric("pipeline.stage2_rerank_ms.p50", "ms", "lower", "measured",
           "median stage2_rerank span, one per query"),
    Metric("pipeline.stage2_rerank_ms.p90", "ms", "lower", "measured",
           "90th percentile stage2_rerank span, one per query"),
    Metric("pipeline.evaluate_s", "s", "lower", "measured",
           "median evaluate span, one per traced job"),
    Metric("pipeline.flagged", "count", "lower", "measured",
           "shortlist candidates whose reranker call failed, summed over traced jobs; "
           "base is pipeline.queries * k"),
    Metric("pipeline.worker_speedup", "x", "higher", "measured",
           "seconds per query of the job at 1 worker / at the job's worker count"),
    Metric("model.pairs", "count", "higher", "measured",
           "(query, candidate) pairs passed to H2LScorer.score_against in the traced jobs"),
    Metric("model.score_against_ms.p50", "ms", "lower", "measured",
           "median score_against span, one query against k candidates"),
    Metric("model.score_against_ms.p90", "ms", "lower", "measured",
           "90th percentile score_against span"),
    Metric("model.gflop_per_pair", "GFLOP", "lower", "computed",
           "2 * multiply-adds of every GEMM in one H2L pair forward, from ModelConfig shapes; "
           "element-wise ops not counted"),
    Metric("model.gflops", "GFLOP/s", "higher", "computed",
           "model.pairs * model.gflop_per_pair / summed score_against span seconds "
           "(per busy thread)"),
    Metric("model.gallery_cache_hit_frac", "fraction", "higher", "computed",
           "1 - distinct shortlist candidates per job / model.pairs, summed over traced jobs"),
    Metric("emd.solves", "count", "higher", "measured",
           "shortlist pairs re-solved with build_flow_problem + sinkhorn at the job's settings"),
    Metric("emd.build_flow_problem_ms.p50", "ms", "lower", "measured",
           "median build_flow_problem span, one per pair"),
    Metric("emd.build_flow_problem_ms.p90", "ms", "lower", "measured",
           "90th percentile build_flow_problem span"),
    Metric("emd.sinkhorn_ms.p50", "ms", "lower", "measured",
           "median sinkhorn span, one per pair"),
    Metric("emd.sinkhorn_ms.p90", "ms", "lower", "measured",
           "90th percentile sinkhorn span"),
    Metric("emd.iterations.mean", "count", "lower", "solver",
           "SinkhornResult.iterations summed / emd.solves"),
    Metric("emd.converged_frac", "fraction", "higher", "solver",
           "solves with SinkhornResult.converged / emd.solves"),
    Metric("trainer.pairs", "count", "higher", "measured",
           "training pairs per train() call: pairs_per_epoch * completed epochs"),
    Metric("trainer.verify_gradients_s", "s", "lower", "measured",
           "one verify_gradients span on the trained state"),
    Metric("trainer.train_s", "s", "lower", "measured",
           "median train() span; includes train()'s own gradient check"),
    Metric("autograd.pair_scores_ms", "ms", "lower", "measured",
           "median pair_scores span, forward-only autograd on one batch of batch_size/2 pairs"),
    Metric("trace.untraced_job_s", "s", "lower", "measured",
           "median job wall time with tracing off, in the same process"),
    Metric("trace.overhead_frac", "fraction", "lower", "measured",
           "median traced job time / trace.untraced_job_s - 1"),
]

BY_NAME = {m.name: m for m in E2E + JOB + LAYER}
