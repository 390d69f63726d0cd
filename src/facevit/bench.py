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


@dataclass
class KindSummary:
    kind: str
    n_patches: int
    d: int
    k: int
    times: np.ndarray

    @property
    def median(self) -> float:
        return float(np.median(self.times))

    @property
    def iqr(self) -> float:
        q1, q3 = np.percentile(self.times, [25, 75])
        return float(q3 - q1)

    @property
    def unstable(self) -> bool:
        return self.iqr > UNSTABLE_IQR_FRACTION * self.median


def env_metadata(workers: int = 1) -> dict:
    """Run environment; the h2l/emd ratio moves with the BLAS thread count."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def make_bench_data(n_patches: int, d: int, n_identities: int, records_per_identity: int,
                    queries_per_identity: int, seed: int, sigma: float = 0.3):
    grid = math.isqrt(n_patches)
    if grid * grid != n_patches:
        raise ValueError("n_patches must be a perfect square")
    cfg = SynthConfig(n_identities=n_identities, records_per_identity=records_per_identity,
                      intra_class_noise=sigma, seed=seed, dim=d, grid=grid,
                      queries_per_identity=queries_per_identity,
                      occluded_fraction=0.0, occlusion_type=Occlusion.NONE)
    return generate_synthetic(cfg)


def time_stage2(kind: str, gallery, queries, k: int, alpha: float = 0.7,
                weights: ModelWeights | None = None, fixed_iters: int | None = None,
                warmups: int = WARMUP_QUERIES) -> list[float]:
    """Per-query stage-2 wall-clock times; the first `warmups` queries run but
    are not recorded. Stage-1 ranking is outside the timed region."""
    if kind == "h2l":
        cfg = PipelineConfig(k=k, alpha=alpha, reranker=Reranker.H2L, weights=weights)
        scorer = H2LScorer(weights)
    elif kind == "emd":
        cfg = PipelineConfig(k=k, alpha=alpha, reranker=Reranker.EMD,
                             emd=EmdSettings(fixed_iters=fixed_iters))
        scorer = None
    else:
        raise ValueError(f"unknown reranker kind {kind!r}")
    times: list[float] = []
    for i, q in enumerate(queries.records):
        order, scores = stage1_rank(q, gallery)
        t0 = time.perf_counter()
        stage2_rerank(q, gallery, order, scores, cfg, scorer, query_index=i)
        dt = time.perf_counter() - t0
        if i >= warmups:
            times.append(dt)
    if len(times) < MIN_REPS:
        raise ValueError(f"need at least {MIN_REPS} measured reps, got {len(times)}")
    return times


def _default_weights(n_patches: int, d: int, depth: int = 1, heads: int = 2,
                     seed: int = 0) -> ModelWeights:
    cfg = ModelConfig(Variant.H2L, depth=depth, heads=heads, dim=d,
                      n_patches=n_patches, out_dim=d)
    return init_random(cfg, seed)


def run_wallclock(n_patches: int = 64, d: int = 512, k: int = 100, reps: int = 100,
                  seed: int = 0, depth: int = 1, heads: int = 2,
                  weights: ModelWeights | None = None) -> dict:
    """Head-to-head median stage-2 time at one shape; EMD is tolerance-free
    with a 500-iteration fixed budget to mirror its configured maximum."""
    n_identities = max(5, k // 4)
    per_id = -(-k // n_identities)  # ceil so the gallery covers the shortlist
    qpi = -(-(reps + WARMUP_QUERIES) // n_identities)
    gallery, queries = make_bench_data(n_patches, d, n_identities, per_id, qpi, seed)
    queries = QuerySet(records=queries.records[:reps + WARMUP_QUERIES])
    if weights is None:
        weights = _default_weights(n_patches, d, depth, heads, seed)

    rows: list[BenchRow] = []
    summaries: dict[str, KindSummary] = {}
    for kind in ("h2l", "emd"):
        fixed = 500 if kind == "emd" else None
        times = time_stage2(kind, gallery, queries, k, weights=weights, fixed_iters=fixed)
        for rep, s in enumerate(times):
            rows.append(BenchRow(kind, n_patches, d, k, len(times), rep, s))
        summaries[kind] = KindSummary(kind, n_patches, d, k, np.array(times))

    ratio = summaries["h2l"].median / summaries["emd"].median
    return {
        "suite": "wallclock",
        "rows": rows,
        "summary": {
            kind: {"median_s": s.median, "iqr_s": s.iqr, "unstable": s.unstable}
            for kind, s in summaries.items()
        },
        "ratio_h2l_over_emd": ratio,
        "meta": env_metadata(),
    }


def fit_slope(ns, medians) -> float:
    """Least-squares slope of log(median time) against log(n)."""
    return float(np.polyfit(np.log(np.asarray(ns, dtype=float)),
                            np.log(np.asarray(medians, dtype=float)), 1)[0])


def run_scaling(ns=(16, 64, 256), d: int = 64, k: int = 8, reps: int = 5,
                seed: int = 0, depth: int = 1, heads: int = 2) -> dict:
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
        gallery, queries = make_bench_data(n, d, 4, -(-k // 4), -(-(reps + WARMUP_QUERIES) // 4), seed)
        queries = QuerySet(records=queries.records[:reps + WARMUP_QUERIES])
        weights = _default_weights(n, d, depth, heads, seed)
        for kind in ("h2l", "emd"):
            fixed = SCALING_ITERS[n] if kind == "emd" else None
            times = time_stage2(kind, gallery, queries, k, weights=weights, fixed_iters=fixed)
            for rep, s in enumerate(times):
                rows.append(BenchRow(kind, n, d, k, len(times), rep, s))
            summ = KindSummary(kind, n, d, k, np.array(times))
            medians[kind].append(summ.median)
            unstable[kind] = unstable[kind] or summ.unstable
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
