"""The repository's benchmark: one facevit job per workload, end to end and
layer by layer.

    python3 perfbench/run.py --workload rerank-h2l --seed 3 --seconds 20 --trace 0

Each workload runs in fresh processes: one writes the inputs from the seed
(FVEB gallery and queries, FVWT weights or a train-toy config), then another
loads them and times the job a CLI user runs. `--trace 0` prints the
end-to-end metrics, `--trace 1` also the per-layer metrics of a traced run
and its overhead against the untraced run in the same process. Every run checks
the job's outputs against independent references. `--workload all` runs
every workload in turn. `--toy` shrinks the shapes for a quick smoke run.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 when every check passed, 1 when a check failed, 2 when a
workload could not run. Spans and full results go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalogue import BY_NAME, E2E, JOB_METRICS_BY_KIND, LAYER  # noqa: E402

OUT = ROOT / ".perfbench_out"
KINDS = {"rank-scan": "rank", "rerank-h2l": "h2l", "rerank-emd": "emd", "train-toy": "train"}
DEADLINE_S = 170  # one workload, generation included


class WorkloadError(Exception):
    pass


def _child(args: list[str], timeout: float) -> str:
    proc = subprocess.run([sys.executable, str(HERE / "measure.py"), *args],
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise WorkloadError(f"measure.py {args[0]} exited {proc.returncode}:\n"
                            f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def run_workload(name: str, seed: int, seconds: int, trace: int, toy: bool) -> dict:
    if not (ROOT / "src" / "facevit" / "__init__.py").is_file():
        raise WorkloadError(f"no facevit sources under {ROOT / 'src'}")
    start = time.monotonic()
    work = OUT / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    extra = ["--toy"] if toy else []
    try:
        _child(["gen", name, str(seed), str(work), *extra], DEADLINE_S)
        left = DEADLINE_S - (time.monotonic() - start)
        stdout = _child(["measure", name, str(seed), str(work), str(seconds), str(trace),
                         *extra], left)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(stdout.strip().splitlines()[-1])
    (OUT / f"result-{name}-trace{trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def reported(workload: str, trace: int) -> list[str]:
    """Metric names a run prints: the end-to-end ones (all, then the job's
    own) and, traced, the per-layer ones."""
    names = [m.name for m in E2E] + list(JOB_METRICS_BY_KIND[KINDS[workload]])
    return names + [m.name for m in LAYER] if trace else names


def contract_names(trace: int) -> list[str]:
    return [m.name for m in (LAYER if trace else E2E)]


def print_table(result: dict) -> None:
    meta = result["meta"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"workers {meta['workers']}  nproc {meta['nproc']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name in reported(result["workload"], result["trace"]):
        m = BY_NAME[name]
        print(f"  {name:32s} {result['metrics'][name]:>14.6g} {m.unit:10s} "
              f"{m.source:9s} {m.base}")
    for c in result["checks"]:
        print(f"  check {'ok  ' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*KINDS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true", help="small shapes for a smoke run")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    names = list(KINDS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace, args.toy))
            print_table(results[-1])
    except (WorkloadError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = all(c["passed"] for r in results for c in r["checks"])
    metrics = {}
    for r in results:
        for name in contract_names(args.trace):
            key = f"{r['workload']}/{name}" if len(results) > 1 else name
            metrics[key] = {"value": r["metrics"][name], "unit": BY_NAME[name].unit}
    summary = {"correct": correct, "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results), "metrics": metrics}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
