"""Wall-clock and scaling benchmarks for the stage-2 rerankers.

Two suites: `wallclock` times the attention reranker against the optimal
transport one at the production shape (n=64, d=512, k=100) and reports the
median ratio; `scaling` fits log-log slopes of median stage-2 time against
the patch count. Sinkhorn runs a fixed iteration budget per patch count in
the scaling suite so its cost is deterministic; everywhere else it is
tolerance-terminated.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np

from .model import H2LScorer, ModelConfig, ModelWeights, Variant, init_random
from .pipeline import EmdSettings, PipelineConfig, Reranker, stage1_rank, stage2_rerank
from .records import Occlusion, QuerySet, SynthConfig, generate_synthetic

WARMUP_QUERIES = 2
MIN_REPS = 5
UNSTABLE_IQR_FRACTION = 0.5

# fixed Sinkhorn budgets per patch count, proportional to n (scaling suite only)
SCALING_ITERS = {16: 125, 64: 500, 256: 2000}


@dataclass
class BenchRow:
    kind: str
    n_patches: int
    d: int
    k: int
    queries: int
    rep: int
    seconds: float


def summarize(times: list[float]) -> dict:
    """Median and interquartile range of per-query times; `unstable` when the
    range exceeds UNSTABLE_IQR_FRACTION of the median."""
    median = float(np.median(times))
    q1, q3 = np.percentile(times, [25, 75])
    iqr = float(q3 - q1)
    return {"median_s": median, "iqr_s": iqr, "unstable": iqr > UNSTABLE_IQR_FRACTION * median}


def env_metadata() -> dict:
    """Run environment; the h2l/emd ratio moves with the BLAS thread count.
    Both suites time one query at a time."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "workers": 1,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def make_bench_data(n_patches: int, d: int, n_identities: int, records_per_identity: int,
                    queries_per_identity: int, seed: int):
    grid = math.isqrt(n_patches)
    if grid * grid != n_patches:
        raise ValueError("n_patches must be a perfect square")
    cfg = SynthConfig(n_identities=n_identities, records_per_identity=records_per_identity,
                      intra_class_noise=0.3, seed=seed, dim=d, grid=grid,
                      queries_per_identity=queries_per_identity,
                      occluded_fraction=0.0, occlusion_type=Occlusion.NONE)
    return generate_synthetic(cfg)


def time_stage2(kind: str, gallery, queries, k: int, weights: ModelWeights | None = None,
                fixed_iters: int | None = None) -> list[float]:
    """Per-query stage-2 wall-clock times; the first WARMUP_QUERIES queries run
    but are not recorded. Stage-1 ranking is outside the timed region."""
    if kind == "h2l":
        cfg = PipelineConfig(k=k, reranker=Reranker.H2L, weights=weights)
        scorer = H2LScorer(weights)
    elif kind == "emd":
        cfg = PipelineConfig(k=k, reranker=Reranker.EMD, emd=EmdSettings(fixed_iters=fixed_iters))
        scorer = None
    else:
        raise ValueError(f"unknown reranker kind {kind!r}")
    times: list[float] = []
    for i, q in enumerate(queries.records):
        order, scores = stage1_rank(q, gallery)
        t0 = time.perf_counter()
        stage2_rerank(q, gallery, order, scores, cfg, scorer, query_index=i)
        dt = time.perf_counter() - t0
        if i >= WARMUP_QUERIES:
            times.append(dt)
    if len(times) < MIN_REPS:
        raise ValueError(f"need at least {MIN_REPS} measured reps, got {len(times)}")
    return times


def _default_weights(n_patches: int, d: int, seed: int = 0) -> ModelWeights:
    cfg = ModelConfig(Variant.H2L, depth=1, heads=2, dim=d, n_patches=n_patches, out_dim=d)
    return init_random(cfg, seed)


def _time_both(n_patches: int, d: int, k: int, reps: int, seed: int, n_identities: int,
               weights: ModelWeights, emd_iters: int, rows: list[BenchRow]) -> dict[str, dict]:
    """Times both rerankers on one synthetic data set of `n_identities`, with
    EMD at a fixed `emd_iters` budget; appends a row per measured rep and
    returns each kind's `summarize` dict."""
    # ceil so the gallery covers the shortlist; the generator needs 2 per identity
    per_id = max(2, -(-k // n_identities))
    qpi = -(-(reps + WARMUP_QUERIES) // n_identities)
    gallery, queries = make_bench_data(n_patches, d, n_identities, per_id, qpi, seed)
    queries = QuerySet(records=queries.records[:reps + WARMUP_QUERIES])
    summary = {}
    for kind in ("h2l", "emd"):
        fixed = emd_iters if kind == "emd" else None
        times = time_stage2(kind, gallery, queries, k, weights=weights, fixed_iters=fixed)
        for rep, s in enumerate(times):
            rows.append(BenchRow(kind, n_patches, d, k, len(times), rep, s))
        summary[kind] = summarize(times)
    return summary


def run_wallclock(n_patches: int = 64, d: int = 512, k: int = 100, reps: int = 100,
                  seed: int = 0) -> dict:
    """Head-to-head median stage-2 time at one shape; EMD is tolerance-free
    with a 500-iteration fixed budget to mirror its configured maximum."""
    weights = _default_weights(n_patches, d, seed)
    rows: list[BenchRow] = []
    summary = _time_both(n_patches, d, k, reps, seed, max(5, k // 4), weights, 500, rows)
    return {
        "suite": "wallclock",
        "rows": rows,
        "summary": summary,
        "ratio_h2l_over_emd": summary["h2l"]["median_s"] / summary["emd"]["median_s"],
        "meta": env_metadata(),
    }


def fit_slope(ns, medians) -> float:
    """Least-squares slope of log(median time) against log(n)."""
    return float(np.polyfit(np.log(np.asarray(ns, dtype=float)),
                            np.log(np.asarray(medians, dtype=float)), 1)[0])


def run_scaling(ns=(16, 64, 256), d: int = 64, k: int = 8, reps: int = 5, seed: int = 0) -> dict:
    """Median stage-2 time per patch count and fitted log-log slopes.

    Runs single-worker; the Sinkhorn budget grows linearly with n per
    SCALING_ITERS so the per-query cost profile is deterministic.
    """
    rows: list[BenchRow] = []
    medians: dict[str, list[float]] = {"h2l": [], "emd": []}
    unstable: dict[str, bool] = {"h2l": False, "emd": False}
    for n in ns:
        if n not in SCALING_ITERS:
            raise ValueError(f"no fixed Sinkhorn budget for n={n}")
        weights = _default_weights(n, d, seed)
        for kind, summ in _time_both(n, d, k, reps, seed, 4, weights, SCALING_ITERS[n], rows).items():
            medians[kind].append(summ["median_s"])
            unstable[kind] = unstable[kind] or summ["unstable"]
    slopes = {kind: fit_slope(ns, meds) for kind, meds in medians.items()}
    return {
        "suite": "scaling",
        "rows": rows,
        "medians": {kind: dict(zip(ns, meds)) for kind, meds in medians.items()},
        "slopes": slopes,
        "slope_gap": slopes["emd"] - slopes["h2l"],
        "unstable": unstable,
        "meta": env_metadata(),
    }


def rows_to_csv(rows: list[BenchRow], path, meta: dict | None = None) -> None:
    with open(path, "w", newline="") as fh:
        if meta:
            for key, value in meta.items():
                fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        writer.writerow(["kind", "n_patches", "d", "k", "queries", "rep", "seconds"])
        for r in rows:
            writer.writerow([r.kind, r.n_patches, r.d, r.k, r.queries, r.rep,
                             f"{r.seconds:.6g}"])


def summary_to_json(report: dict, path) -> None:
    out = {key: value for key, value in report.items() if key != "rows"}
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, default=str)
        fh.write("\n")
