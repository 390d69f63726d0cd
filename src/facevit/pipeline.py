"""Two-stage identification: cosine ranking, then patch-level re-ranking of a
top-k shortlist with alpha-blended scores, plus the retrieval metrics. EMD and
H2L jobs fork their workers, so they need a platform with the `fork` start
method; Python 3.12 and later warn when the forking process has BLAS threads."""

from __future__ import annotations

import csv
import ctypes
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .emd import WeightScheme, build_flow_problem, check_sinkhorn_settings, sinkhorn
from .model import H2LScorer, ModelWeights
from .records import FaceRecord, Gallery, QuerySet


class Reranker(Enum):
    NONE = "none"
    EMD = "emd"
    H2L = "h2l"


@dataclass
class EmdSettings:
    scheme: WeightScheme = WeightScheme.CROSS_CORRELATION
    eps: float = 0.01
    max_iters: int = 500
    tol: float = 1e-6
    fixed_iters: int | None = None


@dataclass
class PipelineConfig:
    k: int = 100
    alpha: float = 0.7
    reranker: Reranker = Reranker.NONE
    normalize: bool = True
    emd: EmdSettings = field(default_factory=EmdSettings)
    weights: ModelWeights | None = None
    add_pos: bool = True
    # query threads for stage-1-only jobs; EMD and H2L jobs run their queries
    # in this many forked processes at one BLAS thread each instead
    workers: int = 1

    def validate(self, gallery_size: int) -> None:
        if gallery_size == 0:
            raise ValueError("the gallery is empty")
        if not (1 <= self.k <= gallery_size):
            raise ValueError(f"k must lie in [1, {gallery_size}]")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if self.reranker is Reranker.H2L and self.weights is None:
            raise ValueError("H2L reranker requires model weights")
        if self.reranker is Reranker.EMD:
            e = self.emd
            check_sinkhorn_settings(e.eps, e.tol, e.max_iters, e.fixed_iters)


@dataclass
class RankingResult:
    query_index: int
    query_identity: int
    order: np.ndarray            # gallery indices, final ranking
    stage1: np.ndarray           # aligned with order
    stage2: np.ndarray           # aligned with order; NaN outside the shortlist
    blended: np.ndarray          # aligned with order
    predicted_identity: int
    flagged: int = 0             # shortlist candidates without a finite stage-2 score


def stage1_rank(q: FaceRecord, g: Gallery) -> tuple[np.ndarray, np.ndarray]:
    """Indices and cosine scores over the whole gallery, best first; ties break
    by gallery index ascending. One GEMV against the gallery's image column."""
    if len(g) == 0:
        raise ValueError("empty gallery")
    qn = np.linalg.norm(q.image_vec)
    if qn == 0.0 or np.any(g.image_norms == 0.0):
        raise ValueError("zero-norm image embedding")
    scores = (g.images @ q.image_vec) / (g.image_norms * qn)
    order = np.lexsort((np.arange(len(g)), -scores))
    return order, scores[order]


def _minmax(x: np.ndarray) -> np.ndarray:
    lo, hi = np.nanmin(x), np.nanmax(x)
    if hi - lo == 0.0:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def _stage2_scores(q: FaceRecord, g: Gallery, shortlist: np.ndarray,
                   cfg: PipelineConfig, scorer: H2LScorer | None) -> np.ndarray:
    """Stage-2 scores of the shortlist, NaN where the reranker gave none. H2L
    scores the whole shortlist in one call; EMD solves one problem per
    candidate and gives none for a candidate it cannot solve (a patch row of
    zero or overflowing norm is legal FVEB data but gives the cost no direction)."""
    if cfg.reranker is Reranker.H2L:
        return scorer.score_against(q, [(int(j), g[j]) for j in shortlist])
    e = cfg.emd
    scores = np.full(len(shortlist), np.nan)
    for pos, j in enumerate(shortlist):
        try:  # 1 - Sinkhorn distance, so higher is more similar
            scores[pos] = 1.0 - sinkhorn(build_flow_problem(q, g[j], e.scheme), eps=e.eps,
                                         max_iters=e.max_iters, tol=e.tol,
                                         fixed_iters=e.fixed_iters).distance
        except (ValueError, ArithmeticError):
            pass
    return scores


def stage2_rerank(q: FaceRecord, g: Gallery, stage1_order: np.ndarray,
                  stage1_scores: np.ndarray, cfg: PipelineConfig,
                  scorer: H2LScorer | None = None,
                  query_index: int = 0) -> RankingResult:
    """Re-rank the top-k shortlist; below k the stage-1 order is untouched and
    shortlist members always stay above non-members. Shapes are checked
    before any reranker runs, so a mismatch raises `ValueError` rather than
    flagging every candidate."""
    cfg.validate(len(g))
    n = len(stage1_order)
    if cfg.reranker is Reranker.NONE:
        return RankingResult(query_index, q.identity, stage1_order.copy(), stage1_scores.copy(),
                             np.full(n, np.nan), stage1_scores.copy(),
                             int(g.identities[stage1_order[0]]))
    shape = g.patches.shape[1:]
    if q.patches.shape != shape:
        raise ValueError(f"query patches {q.patches.shape} do not match the gallery's {shape}")
    if cfg.reranker is Reranker.H2L:
        mc = cfg.weights.config
        if (mc.n_patches, mc.dim) != shape:
            raise ValueError(f"model weights take patches ({mc.n_patches}, {mc.dim}), "
                             f"the gallery has {shape}")
        if scorer is None:
            scorer = H2LScorer(cfg.weights, add_pos=cfg.add_pos)
    k = cfg.k
    shortlist = stage1_order[:k]
    s2 = _stage2_scores(q, g, shortlist, cfg, scorer)
    s1_short = stage1_scores[:k]
    if cfg.normalize:
        s1n = _minmax(s1_short)
        valid = np.isfinite(s2)
        s2n = np.full(k, np.nan)
        if valid.any():
            s2n[valid] = _minmax(s2[valid])
    else:
        s1n, s2n = s1_short, s2
    b_short = cfg.alpha * s2n + (1 - cfg.alpha) * s1n
    # a candidate without a stage-2 score keeps its stage-1 score
    bad = ~np.isfinite(b_short)
    b_short[bad] = s1n[bad]
    resort = np.lexsort((shortlist, -b_short))
    final_order = np.concatenate([shortlist[resort], stage1_order[k:]])
    return RankingResult(
        query_index, q.identity, final_order,
        np.concatenate([s1_short[resort], stage1_scores[k:]]),
        np.concatenate([s2[resort], np.full(n - k, np.nan)]),
        np.concatenate([b_short[resort], stage1_scores[k:]]),
        int(g.identities[final_order[0]]), int(np.isnan(s2).sum()))


def run_query(q: FaceRecord, g: Gallery, cfg: PipelineConfig,
              scorer: H2LScorer | None = None, query_index: int = 0) -> RankingResult:
    order, scores = stage1_rank(q, g)
    return stage2_rerank(q, g, order, scores, cfg, scorer, query_index)


_BLAS_SETTERS = ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
                 "openblas_set_num_threads64_")


def _numpy_openblas():
    """(library, setter name) of the OpenBLAS numpy loaded, found among the
    libraries this process maps, else None. Paths under numpy's directory come
    first (the prefix also matches numpy.libs), since scipy may map its own."""
    try:
        with open("/proc/self/maps") as fh:
            paths = dict.fromkeys(line.split(maxsplit=5)[-1].strip()
                                  for line in fh if "openblas" in line)
    except OSError:
        return None
    numpy_dir = os.path.dirname(np.__file__)
    for path in sorted(paths, key=lambda p: not p.startswith(numpy_dir)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            if hasattr(lib, name):
                return lib, name
    return None


_BLAS = _numpy_openblas()
_BLAS_SET_THREADS = getattr(*_BLAS) if _BLAS is not None else None
_RERANK_JOB = None  # (gallery, queries, cfg, scorer) in a re-ranking worker process


def _init_rerank_worker(g: Gallery, queries: QuerySet, cfg: PipelineConfig,
                        scorer: H2LScorer | None) -> None:
    """Keeps the job, which fork copied rather than pickled, and pins BLAS to
    one thread: each worker's OpenBLAS helper threads would take the CPUs of
    the other workers."""
    global _RERANK_JOB
    _RERANK_JOB = (g, queries, cfg, scorer)
    if _BLAS_SET_THREADS is not None:
        _BLAS_SET_THREADS(1)


def _rerank_query(i: int) -> RankingResult:
    g, queries, cfg, scorer = _RERANK_JOB
    return run_query(queries.records[i], g, cfg, scorer, i)


def run_pipeline(g: Gallery, queries: QuerySet, cfg: PipelineConfig) -> list[RankingResult]:
    cfg.validate(len(g))
    if cfg.reranker is Reranker.NONE:
        with ThreadPoolExecutor(max(1, cfg.workers)) as pool:
            futures = [pool.submit(run_query, q, g, cfg, None, i)
                       for i, q in enumerate(queries.records)]
            return [fut.result() for fut in futures]
    # Sinkhorn holds the interpreter lock, and threads keep H2L's freed block
    # temporaries in their malloc arenas; forked workers share the gallery and the
    # scorer's f32 weights, run BLAS on one thread each and return their memory
    scorer = H2LScorer(cfg.weights, add_pos=cfg.add_pos) if cfg.reranker is Reranker.H2L else None
    with ProcessPoolExecutor(max(1, min(cfg.workers, len(queries))),
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_rerank_worker,
                             initargs=(g, queries, cfg, scorer)) as pool:
        return list(pool.map(_rerank_query, range(len(queries))))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass
class QueryMetrics:
    query_index: int
    predicted_identity: int
    correct: bool
    p_at_1: float
    rp: float
    m_at_r: float


@dataclass
class EvalReport:
    per_query: list[QueryMetrics]
    p_at_1: float
    rp: float
    m_at_r: float
    skipped: int  # queries whose identity is absent from the gallery


def query_metrics(result: RankingResult, g: Gallery) -> QueryMetrics | None:
    r = g.id_counts.get(result.query_identity, 0)
    if r == 0:
        return None
    rel = (g.identities[result.order] == result.query_identity).astype(np.float64)
    prefix = np.cumsum(rel)
    ranks = np.arange(1, len(rel) + 1)
    p_at_i = prefix / ranks
    p_at_1 = float(rel[0])
    rp = float(prefix[r - 1] / r)
    m_at_r = float((p_at_i[:r] * rel[:r]).sum() / r)
    return QueryMetrics(result.query_index, result.predicted_identity,
                        bool(rel[0]), p_at_1, rp, m_at_r)


def evaluate(results: list[RankingResult], g: Gallery) -> EvalReport:
    """Mean P@1, RP and M@R over queries; open-set queries are excluded and
    counted in `skipped`."""
    rows: list[QueryMetrics] = []
    skipped = 0
    for res in results:
        qm = query_metrics(res, g)
        if qm is None:
            skipped += 1
            continue
        rows.append(qm)
    if not rows:
        raise ValueError("no evaluable queries (all identities absent from gallery)")
    return EvalReport(
        rows,
        p_at_1=float(np.mean([r.p_at_1 for r in rows])),
        rp=float(np.mean([r.rp for r in rows])),
        m_at_r=float(np.mean([r.m_at_r for r in rows])),
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_RESULT_FIELDS = ["query_id", "query_identity", "rank", "gallery_index",
                  "gallery_identity", "stage1_score", "stage2_score", "blended_score"]


def results_to_csv(results: list[RankingResult], g: Gallery, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RESULT_FIELDS)
        for res in results:
            for rank, (j, gid, s1, s2, b) in enumerate(
                    zip(res.order, g.identities[res.order], res.stage1, res.stage2, res.blended)):
                writer.writerow([res.query_index, res.query_identity, rank, int(j),
                                 int(gid), f"{s1:.10g}",
                                 "" if np.isnan(s2) else f"{s2:.10g}", f"{b:.10g}"])


def results_from_csv(path) -> list[RankingResult]:
    rows_by_query: dict[int, list[dict]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != _RESULT_FIELDS:
            raise ValueError(f"{path}: unexpected results header {reader.fieldnames}")
        for row in reader:
            rows_by_query.setdefault(int(row["query_id"]), []).append(row)
    results = []
    for qid in sorted(rows_by_query):
        rows = sorted(rows_by_query[qid], key=lambda r: int(r["rank"]))
        order = np.array([int(r["gallery_index"]) for r in rows])
        s1 = np.array([float(r["stage1_score"]) for r in rows])
        s2 = np.array([float(r["stage2_score"]) if r["stage2_score"] else np.nan for r in rows])
        b = np.array([float(r["blended_score"]) for r in rows])
        results.append(RankingResult(qid, int(rows[0]["query_identity"]), order, s1, s2, b,
                                     int(rows[0]["gallery_identity"])))
    return results


def report_to_files(report: EvalReport, csv_path=None, json_path=None,
                    config_echo: dict | None = None) -> dict:
    summary = {
        "p_at_1": round(report.p_at_1, 4),
        "rp": round(report.rp, 4),
        "m_at_r": round(report.m_at_r, 4),
        "queries": len(report.per_query),
        "skipped": report.skipped,
    }
    if config_echo:
        summary["config"] = config_echo
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["query_id", "pred_identity", "correct", "p_at_1", "rp", "m_at_r"])
            for qm in report.per_query:
                writer.writerow([qm.query_index, qm.predicted_identity, int(qm.correct),
                                 f"{qm.p_at_1:.4f}", f"{qm.rp:.4f}", f"{qm.m_at_r:.4f}"])
    if json_path is not None:
        with open(json_path, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return summary
