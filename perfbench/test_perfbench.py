"""Smoke test of the benchmark's own code: every workload at a toy shape, in
both trace modes, passes its checks and prints every named metric with its
unit.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from catalogue import BY_NAME, E2E, JOB_METRICS_BY_KIND, LAYER  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.KINDS)
    for key, metrics in (("end_to_end", E2E), ("per_layer", LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == \
            [(m.name, m.unit, m.better) for m in metrics]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.KINDS))
def test_workload_prints_every_metric_with_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    *table, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    contract = run.contract_names(trace)
    assert list(result["metrics"]) == contract
    for name in contract:
        assert result["metrics"][name]["unit"] == BY_NAME[name].unit
        assert isinstance(result["metrics"][name]["value"], float)
    printed = [m.name for m in E2E] + list(JOB_METRICS_BY_KIND[run.KINDS[workload]])
    if trace:
        printed += [m.name for m in LAYER]
    text = "\n".join(table)
    for name in printed:
        row = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(BY_NAME[name].unit)}\s"
        assert re.search(row, text, re.M), f"{name} not printed with unit {BY_NAME[name].unit}"
    assert "FAIL" not in text


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "rank-scan", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
