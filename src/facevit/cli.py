"""Command-line entry point for batch identification, training and benchmark jobs.

Every command is deterministic given its flags and seed. Exit code 0 on
success, 1 on runtime errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import run_scaling, run_wallclock, rows_to_csv, summary_to_json
from .explain import cc_heatmap, heatmap_to_csv, heatmap_to_pgm
from .model import ModelConfig, Variant, load_weights, save_weights
from .pipeline import (EmdSettings, PipelineConfig, Reranker, evaluate,
                       report_to_files, results_from_csv, results_to_csv,
                       run_pipeline)
from .records import (Occlusion, SynthConfig, generate_synthetic, load_gallery,
                      load_queries, save_records)
from .trainer import TrainConfig, train


_WORKERS_HELP = ("query threads (default: the CPU count); rerank runs its queries in this "
                 "many processes at one BLAS thread each instead, started with the fork "
                 "method, which the platform must have")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="facevit",
                                     description="Two-stage face identification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synth", help="generate a synthetic gallery and query set")
    g.add_argument("--identities", type=int, required=True)
    g.add_argument("--per-id", type=int, required=True)
    g.add_argument("--sigma", type=float, required=True)
    g.add_argument("--occluded-frac", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--queries-per-id", type=int, default=1)
    g.add_argument("--occlusion", choices=["mask", "sunglasses"], default="mask")
    g.add_argument("--dim", type=int, default=512)
    g.add_argument("--grid", type=int, default=8)
    g.add_argument("--out", required=True,
                   help="path stem; writes OUT.gallery and OUT.queries")

    r = sub.add_parser("rank", help="stage-1 cosine ranking only")
    r.add_argument("--gallery", required=True)
    r.add_argument("--queries", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--workers", type=int, default=os.cpu_count() or 1, help=_WORKERS_HELP)

    rr = sub.add_parser("rerank", help="two-stage ranking with a patch-level reranker")
    rr.add_argument("--gallery", required=True)
    rr.add_argument("--queries", required=True)
    rr.add_argument("--reranker", choices=["emd", "h2l"], required=True)
    rr.add_argument("--weights", help="FVWT weight file (required for h2l)")
    rr.add_argument("--k", type=int, default=100)
    rr.add_argument("--alpha", type=float, default=0.7)
    rr.add_argument("--no-normalize", action="store_true")
    rr.add_argument("--no-pos", action="store_true")
    rr.add_argument("--emd-eps", type=float, default=0.01)
    rr.add_argument("--emd-iters", type=int, default=500)
    rr.add_argument("--workers", type=int, default=os.cpu_count() or 1, help=_WORKERS_HELP)
    rr.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="retrieval metrics from a results CSV")
    e.add_argument("--results", required=True)
    e.add_argument("--gallery", required=True)
    e.add_argument("--out", required=True, help="summary JSON path")
    e.add_argument("--per-query-csv", help="optional per-query metric CSV")

    t = sub.add_parser("train-toy", help="train a variant on a synthetic gallery")
    t.add_argument("--config", required=True, help="JSON with 'model' and 'train' sections")
    t.add_argument("--data", required=True, help="FVEB gallery used as training data")
    t.add_argument("--out", required=True, help="FVWT output path")

    b = sub.add_parser("bench", help="stage-2 reranker benchmarks")
    b.add_argument("--suite", choices=["scaling", "wallclock"], required=True)
    b.add_argument("--out", required=True, help="CSV output path")
    b.add_argument("--json", help="summary JSON path (default: OUT + .json)")
    b.add_argument("--reps", type=int)
    b.add_argument("--seed", type=int, default=0)

    x = sub.add_parser("explain", help="cross-correlation heatmaps for one pair")
    x.add_argument("--gallery", required=True)
    x.add_argument("--queries", help="query file; without it --query-idx indexes the gallery")
    x.add_argument("--query-idx", type=int, required=True)
    x.add_argument("--gallery-idx", type=int, required=True)
    x.add_argument("--out", required=True,
                   help="comma-separated outputs, .pgm and/or .csv by extension")
    return parser


def _cmd_gen_synth(args) -> int:
    cfg = SynthConfig(
        n_identities=args.identities, records_per_identity=args.per_id,
        intra_class_noise=args.sigma, seed=args.seed,
        occluded_fraction=args.occluded_frac, queries_per_identity=args.queries_per_id,
        occlusion_type=Occlusion[args.occlusion.upper()], dim=args.dim, grid=args.grid)
    gallery, queries = generate_synthetic(cfg)
    save_records(gallery, args.out + ".gallery")
    save_records(queries, args.out + ".queries")
    print(f"wrote {len(gallery)} gallery and {len(queries)} query records to "
          f"{args.out}.gallery/.queries")
    return 0


def _cmd_rank(args) -> int:
    gallery = load_gallery(args.gallery)
    queries = load_queries(args.queries)
    cfg = PipelineConfig(k=1, reranker=Reranker.NONE, workers=args.workers)
    results = run_pipeline(gallery, queries, cfg)
    results_to_csv(results, gallery, args.out)
    print(f"ranked {len(queries)} queries against {len(gallery)} records -> {args.out}")
    return 0


def _cmd_rerank(args) -> int:
    gallery = load_gallery(args.gallery)
    queries = load_queries(args.queries)
    reranker = Reranker(args.reranker)
    weights = None
    if reranker is Reranker.H2L:
        if not args.weights:
            raise ValueError("--reranker h2l requires --weights")
        weights = load_weights(args.weights)
    k = min(args.k, len(gallery))
    cfg = PipelineConfig(
        k=k, alpha=args.alpha, reranker=reranker, normalize=not args.no_normalize,
        emd=EmdSettings(eps=args.emd_eps, max_iters=args.emd_iters),
        weights=weights, add_pos=not args.no_pos, workers=args.workers)
    results = run_pipeline(gallery, queries, cfg)
    results_to_csv(results, gallery, args.out)
    flagged = sum(r.flagged for r in results)
    note = f" ({flagged} reranker failures fell back to stage 1)" if flagged else ""
    print(f"reranked {len(queries)} queries (k={k}, alpha={args.alpha}) -> {args.out}{note}")
    return 0


def _cmd_eval(args) -> int:
    gallery = load_gallery(args.gallery)
    results = results_from_csv(args.results)
    report = evaluate(results, gallery)
    summary = report_to_files(report, csv_path=args.per_query_csv, json_path=args.out,
                              config_echo={"results": args.results, "gallery": args.gallery})
    print(json.dumps({key: summary[key] for key in ("p_at_1", "rp", "m_at_r")}))
    return 0


def _cmd_train_toy(args) -> int:
    with open(args.config) as fh:
        conf = json.load(fh)
    m = dict(conf["model"])
    m["variant"] = Variant(m["variant"])
    try:
        model_cfg = ModelConfig(**m)
        tc = TrainConfig(**conf.get("train", {}))
    except TypeError as exc:  # an unknown or missing key in a section
        raise ValueError(f"{args.config}: {exc}") from exc
    gallery = load_gallery(args.data)
    state, history = train(model_cfg, None, gallery, tc)
    save_weights(state.weights, args.out)
    hist_path = args.out + ".history.json"
    with open(hist_path, "w") as fh:
        json.dump({"config": conf, "threshold": state.threshold, "epochs": history},
                  fh, indent=2)
        fh.write("\n")
    final = history[-1]
    print(f"trained {model_cfg.variant.value} for {len(history)} epochs "
          f"(final loss {final['loss']:.4f}, holdout acc {final['holdout_accuracy']}) "
          f"-> {args.out}")
    return 0


def _cmd_bench(args) -> int:
    if args.suite == "wallclock":
        report = run_wallclock(seed=args.seed, **({"reps": args.reps} if args.reps else {}))
    else:
        report = run_scaling(seed=args.seed, **({"reps": args.reps} if args.reps else {}))
    rows_to_csv(report["rows"], args.out, report["meta"])
    summary_to_json(report, args.json or args.out + ".json")
    brief = {key: report[key] for key in ("ratio_h2l_over_emd", "slopes", "slope_gap")
             if key in report}
    print(json.dumps(brief, default=str))
    return 0


def _cmd_explain(args) -> int:
    gallery = load_gallery(args.gallery)
    if args.query_idx < 0 or args.gallery_idx < 0:
        raise ValueError("--query-idx and --gallery-idx must be >= 0")
    qset = load_queries(args.queries) if args.queries else gallery
    q = qset.records[args.query_idx]
    cand = gallery.records[args.gallery_idx]
    map_qc, map_cq = cc_heatmap(q, cand)
    for path in args.out.split(","):
        path = path.strip()
        if path.endswith(".pgm"):
            heatmap_to_pgm(map_qc, path)
        elif path.endswith(".csv"):
            heatmap_to_csv(map_qc, path)
        else:
            raise ValueError(f"unknown explain output extension: {path}")
    print(f"wrote heatmap(s) for query {args.query_idx} vs gallery {args.gallery_idx}: {args.out}")
    return 0


_COMMANDS = {
    "gen-synth": _cmd_gen_synth,
    "rank": _cmd_rank,
    "rerank": _cmd_rerank,
    "eval": _cmd_eval,
    "train-toy": _cmd_train_toy,
    "bench": _cmd_bench,
    "explain": _cmd_explain,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, KeyError, IndexError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
