"""One benchmark workload in one process.

    python3 perfbench/measure.py gen     WORKLOAD SEED WORKDIR [--toy]
    python3 perfbench/measure.py measure WORKLOAD SEED WORKDIR SECONDS TRACE [--toy]
    python3 perfbench/measure.py record-losses FIRST_SEED LAST_SEED

`gen` writes the workload's FVEB/FVWT/config files into WORKDIR. `measure`
runs in a fresh process so that its peak RSS is the job's own: it times the
set-up and the job through the library's public API, checks the outputs, and
prints one JSON object as its last line. `record-losses` rewrites
expected_loss.json, the train-toy final loss per seed. perfbench/run.py is the
entry point that drives these.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import facevit  # noqa: E402
from facevit.emd import build_flow_problem, sinkhorn  # noqa: E402
from facevit.model import (H2LScorer, ModelConfig, Variant, init_random,  # noqa: E402
                           load_weights, save_weights, score_pair_h2l)
from facevit.pipeline import (PipelineConfig, Reranker, evaluate, run_pipeline,  # noqa: E402
                              stage1_rank, stage2_rerank)
from facevit.records import (Occlusion, QuerySet, SynthConfig,  # noqa: E402
                             generate_synthetic, load_gallery, load_queries, save_records)
from facevit.trainer import (TrainConfig, pair_scores, sample_pairs, train,  # noqa: E402
                             verify_gradients)

from catalogue import LAYER as LAYER_NAMES  # noqa: E402

if Path(facevit.__file__).resolve().parent != ROOT / "src" / "facevit":
    raise ImportError(f"facevit imported from {facevit.__file__}, not from {ROOT / 'src'}")

EXPECTED_LOSS = HERE / "expected_loss.json"
# the tolerance test_scorer_f32_mode_close_to_f64 uses for f32 against f64 scores
H2L_F32_ATOL = 1e-4
STAGE1_ATOL = 1e-12
METRIC_ATOL = 1e-12
LOSS_RTOL = 1e-9
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 5, 50, 1.0
PAIR_SCORES_REPS = 20


@dataclass(frozen=True)
class Spec:
    kind: str            # "rank", "h2l", "emd" or "train"
    identities: int
    per_id: int
    sigma: float
    queries: int = 0     # queries in the job, half of them masked
    k: int = 100
    dim: int = 512
    grid: int = 8
    train_epochs: int = 0
    train_pairs_per_epoch: int = 0


# The production shape of the ROADMAP: 512-d, 8x8 grid, k=100. A rerank job
# holds one query per worker of a 2-CPU machine, so that a 20 s run holds
# several H2L jobs and two EMD jobs (about 13 s each).
WORKLOADS = {
    "rank-scan": Spec("rank", identities=200, per_id=10, sigma=0.7, queries=200, k=1),
    "rerank-h2l": Spec("h2l", identities=100, per_id=10, sigma=0.7, queries=2),
    "rerank-emd": Spec("emd", identities=100, per_id=10, sigma=0.7, queries=2),
    "train-toy": Spec("train", identities=20, per_id=10, sigma=0.1, dim=16, grid=4,
                      train_epochs=10, train_pairs_per_epoch=200),
}
TOY_WORKLOADS = {
    "rank-scan": Spec("rank", identities=20, per_id=5, sigma=0.7, queries=20, k=1, dim=32, grid=4),
    "rerank-h2l": Spec("h2l", identities=20, per_id=5, sigma=0.7, queries=2, k=10, dim=32, grid=4),
    "rerank-emd": Spec("emd", identities=20, per_id=5, sigma=0.7, queries=2, k=10, dim=32, grid=4),
    "train-toy": Spec("train", identities=20, per_id=10, sigma=0.1, dim=16, grid=4,
                      train_epochs=2, train_pairs_per_epoch=40),
}


def model_config(spec: Spec) -> ModelConfig:
    return ModelConfig(Variant.H2L, depth=1, heads=2, dim=spec.dim,
                       n_patches=spec.grid * spec.grid, out_dim=spec.dim)


def gflop_per_pair(cfg: ModelConfig) -> float:
    """Multiply-adds of every GEMM in one H2L pair forward, times 2, in GFLOP."""
    n, d, di, m, t = cfg.n_patches, cfg.dim, cfg.inner_dim, cfg.mlp_width, cfg.seq_len
    tokens = 2 * n * d * d                                  # token projection, both images
    layer = (3 * t * d * di                                 # Q, K, V
             + 2 * cfg.heads * t * t * cfg.head_dim         # scores and attention * V
             + t * di * d                                   # output projection
             + 2 * t * d * m)                               # MLP
    head = 2 * n * d * cfg.out_dim                          # lin1 and lin2
    return 2.0 * (tokens + cfg.depth * layer + head) / 1e9


class Paths:
    def __init__(self, workdir: Path):
        self.gallery = workdir / "gallery.fveb"
        self.queries = workdir / "queries.fveb"
        self.weights = workdir / "h2l.fvwt"
        self.config = workdir / "train.json"


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def generate(spec: Spec, seed: int, paths: Paths) -> None:
    train_job = spec.kind == "train"
    gallery, queries = generate_synthetic(SynthConfig(
        n_identities=spec.identities, records_per_identity=spec.per_id,
        intra_class_noise=spec.sigma, seed=seed,
        occluded_fraction=0.0 if train_job else 0.5, occlusion_type=Occlusion.MASK,
        dim=spec.dim, grid=spec.grid))
    save_records(gallery, paths.gallery)
    if train_job:
        conf = {"model": {"variant": "h2l", "depth": 1, "heads": 2, "dim": spec.dim,
                          "n_patches": spec.grid * spec.grid, "out_dim": spec.dim},
                "train": {"seed": seed, "epochs": spec.train_epochs,
                          "pairs_per_epoch": spec.train_pairs_per_epoch}}
        paths.config.write_text(json.dumps(conf, indent=2) + "\n")
    else:
        masked = [r for r in queries.records if r.occlusion is not Occlusion.NONE]
        clean = [r for r in queries.records if r.occlusion is Occlusion.NONE]
        half = spec.queries // 2
        save_records(QuerySet(records=masked[:half] + clean[:spec.queries - half]),
                     paths.queries)
        if spec.kind == "h2l":
            save_weights(init_random(model_config(spec), seed), paths.weights)
    # write back now rather than while the next process is timing
    for path in (paths.gallery, paths.queries, paths.weights, paths.config):
        if path.exists():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Spans (name, start, end, parent, query) kept in memory; nesting is
    per thread, a worker's root span names its parent explicitly."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, query: int | None = None, parent: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        if query is None and parent is not None:
            query = self.spans[parent][4]
        rec = [name, time.perf_counter(), None, parent, query]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(rec)
        stack.append(sid)
        try:
            yield sid
        finally:
            stack.pop()
            rec[2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write(self, path: Path) -> None:
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_s": start - t0,
                                     "end_s": end - t0, "parent": parent,
                                     "query": query}) + "\n")


class _NoTrace:
    @contextmanager
    def span(self, name, query=None, parent=None):
        yield None


class TracedScorer(H2LScorer):
    """H2LScorer with a span around score_against and a record of the
    candidate keys, for the pair count and the cache-hit fraction."""

    def __init__(self, w, add_pos: bool, tracer: Tracer):
        super().__init__(w, add_pos=add_pos)
        self.tracer = tracer
        self.keys: list[int] = []
        self._lock = threading.Lock()

    def score_against(self, query, candidates):
        with self._lock:
            self.keys.extend(key for key, _ in candidates)
        with self.tracer.span("model.score_against"):
            return super().score_against(query, candidates)


# ---------------------------------------------------------------------------
# set-up and jobs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    gallery: object
    queries: object = None
    cfg: PipelineConfig | None = None
    model_cfg: ModelConfig | None = None
    tc: TrainConfig | None = None


def setup(spec: Spec, paths: Paths, workers: int, tracer) -> Inputs:
    """What the CLI does before the job: load the inputs and build the config."""
    if spec.kind == "train":
        conf = json.loads(paths.config.read_text())
        m = dict(conf["model"])
        m["variant"] = Variant(m["variant"])
        with tracer.span("records.load_gallery"):
            gallery = load_gallery(paths.gallery)
        return Inputs(gallery, model_cfg=ModelConfig(**m), tc=TrainConfig(**conf["train"]))
    with tracer.span("records.load_gallery"):
        gallery = load_gallery(paths.gallery)
    with tracer.span("records.load_queries"):
        queries = load_queries(paths.queries)
    weights = None
    if spec.kind == "h2l":
        with tracer.span("model.load_weights"):
            weights = load_weights(paths.weights)
    reranker = {"rank": Reranker.NONE, "h2l": Reranker.H2L, "emd": Reranker.EMD}[spec.kind]
    cfg = PipelineConfig(k=min(spec.k, len(gallery)), reranker=reranker, weights=weights,
                         workers=workers)
    return Inputs(gallery, queries, cfg)


def timed_setup(spec: Spec, paths: Paths, workers: int, tracer) -> tuple[Inputs, list[float]]:
    times: list[float] = []
    while (len(times) < SETUP_MIN_REPS
           or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS)):
        inputs = None  # release the previous copy before loading the next
        t0 = time.perf_counter()
        inputs = setup(spec, paths, workers, tracer)
        times.append(time.perf_counter() - t0)
    return inputs, times


def run_job(spec: Spec, inp: Inputs, queries=None):
    """The job after set-up: `facevit rank`/`rerank` + `facevit eval` without
    the CSV round trip, or `facevit train-toy` without writing the weights."""
    if spec.kind == "train":
        return train(inp.model_cfg, None, inp.gallery, inp.tc)
    results = run_pipeline(inp.gallery, queries or inp.queries, inp.cfg)
    return results, evaluate(results, inp.gallery)


def traced_job(spec: Spec, inp: Inputs, tracer: Tracer, scorers: list):
    """Drives the calls run_pipeline and evaluate make, with spans around them."""
    if spec.kind == "train":
        with tracer.span("trainer.train"):
            return train(inp.model_cfg, None, inp.gallery, inp.tc)
    g, cfg = inp.gallery, inp.cfg
    cfg.validate(len(g))
    scorer = None
    if cfg.reranker is Reranker.H2L:
        scorer = TracedScorer(cfg.weights, cfg.add_pos, tracer)
        scorers.append(scorer)
    with tracer.span("pipeline.job") as job_id:
        def one(i, q):
            with tracer.span("pipeline.query", query=i, parent=job_id):
                with tracer.span("pipeline.stage1_rank"):
                    order, scores = stage1_rank(q, g)
                with tracer.span("pipeline.stage2_rerank"):
                    return stage2_rerank(q, g, order, scores, cfg, scorer, i)

        if cfg.workers <= 1:
            results = [one(i, q) for i, q in enumerate(inp.queries.records)]
        else:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                futures = [pool.submit(one, i, q) for i, q in enumerate(inp.queries.records)]
                results = [f.result() for f in futures]
        with tracer.span("pipeline.evaluate"):
            report = evaluate(results, g)
    return results, report


def steady(times: list[float]) -> float:
    """Median job time. The first job of a process faults in the memory that
    later jobs reuse, so it is left out when at least two later jobs ran."""
    return float(np.median(times[1:] if len(times) > 2 else times))


def timed_loop(fn, seconds: float) -> tuple[list[float], object]:
    """Runs fn until `seconds` have passed; at least once."""
    times: list[float] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        out = None
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return times, out


def emd_solve(q, rec, e, tracer):
    """The two calls emd_similarity makes, at the job's EmdSettings `e`."""
    with tracer.span("emd.build_flow_problem"):
        fp = build_flow_problem(q, rec, e.scheme)
    with tracer.span("emd.sinkhorn"):
        return sinkhorn(fp, eps=e.eps, max_iters=e.max_iters, tol=e.tol,
                        fixed_iters=e.fixed_iters)


def emd_resolve(inp: Inputs, results, tracer: Tracer) -> list[tuple[bool, int, bool]]:
    """Re-solves every shortlist pair with the job's settings and workers:
    (score equals the job's stage-2 score exactly, iterations, converged)."""
    g, cfg = inp.gallery, inp.cfg

    def one(res):
        q = inp.queries.records[res.query_index]
        out = []
        with tracer.span("emd.query", query=res.query_index):
            for j, job_score in zip(res.order[:cfg.k], res.stage2[:cfg.k]):
                sr = emd_solve(q, g.records[j], cfg.emd, tracer)
                out.append((1.0 - sr.distance == job_score, sr.iterations, sr.converged))
        return out

    with ThreadPoolExecutor(max_workers=max(1, cfg.workers)) as pool:
        futures = [pool.submit(one, res) for res in results]
        return [row for f in futures for row in f.result()]


# ---------------------------------------------------------------------------
# correctness checks (independent references)
# ---------------------------------------------------------------------------

class Checks:
    def __init__(self):
        self.rows: list[dict] = []

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.rows.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def failed(self) -> int:
        return sum(not r["passed"] for r in self.rows)


def check_stage1(checks: Checks, inp: Inputs, results) -> None:
    """Stage-1 scores and order against a brute-force numpy cosine; ties
    within STAGE1_ATOL may come in either order, exact ties by gallery index."""
    g = np.stack([r.image_vec for r in inp.gallery.records])
    q = np.stack([r.image_vec for r in inp.queries.records])
    cos = (q / np.linalg.norm(q, axis=1, keepdims=True)) @ \
        (g / np.linalg.norm(g, axis=1, keepdims=True)).T
    k = inp.cfg.k if inp.cfg.reranker is not Reranker.NONE else 0
    bad = []
    for res in results:
        s = cos[res.query_index]
        order = res.order
        ok = np.array_equal(np.sort(order), np.arange(len(s)))
        ok = ok and np.allclose(res.stage1, s[order], rtol=0.0, atol=STAGE1_ATOL)
        tail, ts = order[k:], s[order[k:]]
        ok = ok and not np.any(ts[1:] > ts[:-1] + STAGE1_ATOL)
        ok = ok and not np.any((ts[1:] == ts[:-1]) & (tail[1:] < tail[:-1]))
        if k:
            ok = ok and s[order[:k]].min() >= s[tail].max(initial=-np.inf) - STAGE1_ATOL
        if not ok:
            bad.append(res.query_index)
    checks.add("stage1_order_brute_force", not bad, f"{len(results)} queries, failing {bad[:5]}")


def check_metrics(checks: Checks, inp: Inputs, results, report) -> None:
    """P@1 and MAP@R recomputed by an explicit loop over each ranking."""
    ids = np.array([r.identity for r in inp.gallery.records])
    p1, ap = [], []
    for res in results:
        rel = ids[res.order] == res.query_identity
        r = int(rel.sum())
        hits, total = 0, 0.0
        for i in range(r):
            if rel[i]:
                hits += 1
                total += hits / (i + 1)
        p1.append(float(rel[0]))
        ap.append(total / r)
    ok = (report.skipped == 0 and len(report.per_query) == len(results)
          and abs(report.p_at_1 - np.mean(p1)) <= METRIC_ATOL
          and abs(report.m_at_r - np.mean(ap)) <= METRIC_ATOL)
    checks.add("metrics_brute_force", ok,
               f"p_at_1 {report.p_at_1} vs {np.mean(p1)}, "
               f"map_at_r {report.m_at_r} vs {np.mean(ap)}")


def sample_shortlist(results, k: int, seed: int, per_query: int = 2) -> list[tuple]:
    """(query index, gallery index, job's stage-2 score) for a seeded sample
    of shortlist positions of each query."""
    rng = np.random.default_rng([seed, 7])
    pairs = []
    for res in results:
        for pos in rng.choice(k, size=min(per_query, k), replace=False):
            pairs.append((res.query_index, int(res.order[pos]), float(res.stage2[pos])))
    return pairs


def check_h2l_sample(checks: Checks, inp: Inputs, results, seed: int) -> None:
    """f32 scorer scores of the job against the f64 autodiff forward."""
    worst = 0.0
    pairs = sample_shortlist(results, inp.cfg.k, seed)
    for qi, j, s in pairs:
        ref = score_pair_h2l(inp.queries.records[qi], inp.gallery.records[j],
                             inp.cfg.weights, add_pos=inp.cfg.add_pos)[0]
        worst = max(worst, abs(s - ref)) if np.isfinite(s) else np.inf
    checks.add("h2l_f32_vs_f64_autodiff", worst <= H2L_F32_ATOL,
               f"{len(pairs)} pairs, max |diff| {worst:.3g} (atol {H2L_F32_ATOL})")


def check_emd_sample(checks: Checks, inp: Inputs, results, seed: int) -> None:
    """1 - sinkhorn(build_flow_problem(...)).distance equals the job's score."""
    pairs = sample_shortlist(results, inp.cfg.k, seed)
    same = 0
    for qi, j, s in pairs:
        sr = emd_solve(inp.queries.records[qi], inp.gallery.records[j], inp.cfg.emd, _NoTrace())
        same += 1.0 - sr.distance == s
    checks.add("emd_sample_resolve_exact", same == len(pairs), f"{same}/{len(pairs)} pairs equal")


def check_train(checks: Checks, seed: int, toy: bool, history: list[dict],
                losses: list[float]) -> float:
    """The final loss is finite, the same on every train() call, and equal to
    the loss recorded for the seed in expected_loss.json."""
    final = history[-1]["loss"]
    ok = not any(h.get("diverged") for h in history) and np.isfinite(final)
    checks.add("train_not_diverged", ok, f"final loss {final!r}")
    checks.add("train_loss_repeats", all(x == final for x in losses),
               f"{len(losses)} train() calls, {len(set(losses))} distinct final losses")
    if not toy:
        recorded = json.loads(EXPECTED_LOSS.read_text()).get(str(seed))
        if recorded is None:
            checks.add("train_loss_recorded", True, f"seed {seed} has no recorded loss")
        else:
            checks.add("train_loss_recorded", abs(final - recorded) <= LOSS_RTOL * abs(recorded),
                       f"{final!r} vs recorded {recorded!r} (rtol {LOSS_RTOL})")
    return final


def results_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.order, y.order) and np.array_equal(x.blended, y.blended)
        and np.array_equal(x.stage2, y.stage2, equal_nan=True) and x.flagged == y.flagged
        for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def metadata(seed: int, workers: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "workers": workers,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}: "
                      f"{blas.get('openblas configuration', '')}".strip(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def pct(xs: list[float], q: float, scale: float = 1.0) -> float:
    return float(np.percentile(xs, q)) * scale if xs else 0.0


def measure(name: str, spec: Spec, seed: int, paths: Paths, seconds: float, trace: bool,
            toy: bool) -> dict:
    workers = os.cpu_count() or 1  # the CLI's default --workers
    checks = Checks()
    tracer = Tracer() if trace else _NoTrace()
    inp, setup_times = timed_setup(spec, paths, workers, tracer)
    losses: list[float] = []

    def job():
        out = run_job(spec, inp)
        if spec.kind == "train":
            losses.append(out[1][-1]["loss"])
        return out

    job_times, out = timed_loop(job, seconds)
    items = (inp.tc.pairs_per_epoch * inp.tc.epochs if spec.kind == "train"
             else len(inp.queries))
    m: dict[str, float] = {
        "setup_s": float(np.median(setup_times)),
        "items_per_s": items / steady(job_times),
    }
    attempted = failed = 0
    if spec.kind == "train":
        _, history = out
        final = check_train(checks, seed, toy, history, losses)
        attempted += inp.tc.epochs
        failed += sum(bool(h.get("diverged")) for h in history)
        m.update(train_pairs_per_s=m["items_per_s"], train_final_loss=final)
    else:
        results, report = out
        check_stage1(checks, inp, results)
        check_metrics(checks, inp, results, report)
        if spec.kind == "h2l":
            check_h2l_sample(checks, inp, results, seed)
        elif spec.kind == "emd":
            check_emd_sample(checks, inp, results, seed)
        reranked = inp.cfg.k * len(results) if spec.kind != "rank" else 0
        attempted += len(results) + reranked
        failed += sum(r.flagged for r in results)
        m.update(queries_per_s=m["items_per_s"], p_at_1=report.p_at_1, map_at_r=report.m_at_r)

    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        m.update(layer_metrics(spec, paths, inp, tracer, checks, job_times, out, seconds))
        tracer.write(ROOT / ".perfbench_out" / f"spans-{name}.jsonl")

    attempted += len(checks.rows)
    failed += checks.failed
    m["failed_frac"] = failed / attempted
    return {"workload": name, "seed": seed, "trace": int(trace), "metrics": m,
            "checks": checks.rows, "attempted": attempted, "failed": failed,
            "setup_times_s": setup_times, "job_times_s": job_times,
            "meta": metadata(seed, workers)}


def layer_metrics(spec: Spec, paths: Paths, inp: Inputs, tracer: Tracer, checks: Checks,
                  job_times: list[float], untraced_out, seconds: float) -> dict:
    """Per-layer numbers from a traced run of the same job, after the untraced
    run in this process; the traced outputs must equal the untraced ones."""
    scorers: list[TracedScorer] = []
    traced_times, out = timed_loop(lambda: traced_job(spec, inp, tracer, scorers), seconds)
    gallery_mb = paths.gallery.stat().st_size / 2**20
    load_s = float(np.median(tracer.durations("records.load_gallery")))
    untraced_s = steady(job_times)
    m = {metric.name: 0.0 for metric in LAYER_NAMES}
    m.update({
        "records.load_gallery_s": load_s,
        "records.gallery_mb": gallery_mb,
        "records.load_mb_per_s": gallery_mb / load_s,
        "trace.untraced_job_s": untraced_s,
        "trace.overhead_frac": steady(traced_times) / untraced_s - 1.0,
    })
    if spec.kind == "train":
        m.update(_train_layers(inp, tracer, checks, out, untraced_out))
    else:
        m.update(_pipeline_layers(spec, inp, tracer, checks, out, untraced_out,
                                  len(traced_times), untraced_s, scorers))
    for stem, span in (("pipeline.stage1_rank_ms", "pipeline.stage1_rank"),
                       ("pipeline.stage2_rerank_ms", "pipeline.stage2_rerank"),
                       ("model.score_against_ms", "model.score_against"),
                       ("emd.build_flow_problem_ms", "emd.build_flow_problem"),
                       ("emd.sinkhorn_ms", "emd.sinkhorn")):
        m[stem + ".p50"] = pct(tracer.durations(span), 50, 1e3)
        m[stem + ".p90"] = pct(tracer.durations(span), 90, 1e3)
    return m


def _train_layers(inp: Inputs, tracer: Tracer, checks: Checks, out, untraced_out) -> dict:
    state, history = out
    final, untraced_final = history[-1]["loss"], untraced_out[1][-1]["loss"]
    checks.add("traced_train_matches_untraced", final == untraced_final,
               f"final loss {final!r} vs {untraced_final!r}")
    tc = inp.tc
    with tracer.span("trainer.verify_gradients"):
        verify_gradients(state, inp.gallery, tc)
    batch = sample_pairs(inp.gallery, tc.batch_size // 2, tc.seed)
    for _ in range(PAIR_SCORES_REPS):
        with tracer.span("autograd.pair_scores"):
            pair_scores(state, inp.gallery, batch)
    return {
        "trainer.pairs": float(tc.pairs_per_epoch * len(history)),
        "trainer.verify_gradients_s": tracer.durations("trainer.verify_gradients")[0],
        "trainer.train_s": float(np.median(tracer.durations("trainer.train"))),
        "autograd.pair_scores_ms": pct(tracer.durations("autograd.pair_scores"), 50, 1e3),
    }


def _pipeline_layers(spec: Spec, inp: Inputs, tracer: Tracer, checks: Checks, out,
                     untraced_out, traced_jobs: int, untraced_s: float, scorers) -> dict:
    results, _ = out
    checks.add("traced_job_matches_run_pipeline", results_equal(results, untraced_out[0]),
               "orders, stage-2 and blended scores of the traced job against run_pipeline")
    n = len(inp.queries)
    m = {
        "records.load_queries_s": float(np.median(tracer.durations("records.load_queries"))),
        "pipeline.queries": float(n * traced_jobs),
        "pipeline.evaluate_s": float(np.median(tracer.durations("pipeline.evaluate"))),
        "pipeline.flagged": float(sum(r.flagged for r in results) * traced_jobs),
    }
    # the same job at one worker, on as many queries as one worker gets in the job
    n1 = max(1, n // inp.cfg.workers)
    t0 = time.perf_counter()
    run_job(spec, replace(inp, cfg=replace(inp.cfg, workers=1)),
            QuerySet(records=inp.queries.records[:n1]))
    m["pipeline.worker_speedup"] = ((time.perf_counter() - t0) / n1) / (untraced_s / n)

    if spec.kind == "h2l":
        m["model.load_weights_s"] = float(np.median(tracer.durations("model.load_weights")))
        pairs = sum(len(s.keys) for s in scorers)
        distinct = sum(len(set(s.keys)) for s in scorers)
        per_pair = gflop_per_pair(inp.cfg.weights.config)
        m.update({
            "model.pairs": float(pairs),
            "model.gflop_per_pair": per_pair,
            "model.gflops": pairs * per_pair / sum(tracer.durations("model.score_against")),
            "model.gallery_cache_hit_frac": 1.0 - distinct / pairs,
        })
    elif spec.kind == "emd":
        rows = emd_resolve(inp, results, tracer)
        equal = sum(r[0] for r in rows)
        checks.add("emd_traced_resolve_exact", equal == len(rows),
                   f"{equal}/{len(rows)} shortlist pairs equal the job's stage-2 score")
        m.update({
            "emd.solves": float(len(rows)),
            "emd.iterations.mean": float(np.mean([r[1] for r in rows])),
            "emd.converged_frac": sum(r[2] for r in rows) / len(rows),
        })
    return m


def record_losses(first: int, last: int) -> None:
    spec = WORKLOADS["train-toy"]
    table = json.loads(EXPECTED_LOSS.read_text()) if EXPECTED_LOSS.exists() else {}
    work = ROOT / ".perfbench_out" / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    paths = Paths(work)
    for seed in range(first, last + 1):
        generate(spec, seed, paths)
        inp = setup(spec, paths, 1, _NoTrace())
        _, history = run_job(spec, inp)
        table[str(seed)] = history[-1]["loss"]
        print(seed, table[str(seed)], flush=True)
    for p in work.iterdir():
        p.unlink()
    work.rmdir()
    EXPECTED_LOSS.write_text(json.dumps(dict(sorted(table.items(), key=lambda kv: int(kv[0]))),
                                        indent=1) + "\n")


def main(argv: list[str]) -> int:
    cmd = argv[0]
    if cmd == "record-losses":
        record_losses(int(argv[1]), int(argv[2]))
        return 0
    toy = "--toy" in argv
    args = [a for a in argv[1:] if a != "--toy"]
    name, seed, workdir = args[0], int(args[1]), Path(args[2])
    spec = (TOY_WORKLOADS if toy else WORKLOADS)[name]
    paths = Paths(workdir)
    if cmd == "gen":
        generate(spec, seed, paths)
        return 0
    if cmd == "measure":
        result = measure(name, spec, seed, paths, float(args[3]), args[4] == "1", toy)
        print(json.dumps(result))
        return 0
    raise SystemExit(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
