"""Benchmark harness mechanics (timing plumbing, slope fits, CSV output)."""

import csv
import json

import pytest

from facevit.bench import (BenchRow, SCALING_ITERS, env_metadata, fit_slope,
                           make_bench_data, rows_to_csv, run_scaling, run_wallclock,
                           summarize, summary_to_json, time_stage2, _default_weights)


def test_fit_slope_recovers_power_law():
    ns = [16, 64, 256]
    times = [2e-3 * n ** 1.7 for n in ns]
    assert abs(fit_slope(ns, times) - 1.7) < 1e-9


def test_summarize_flags_unstable_runs():
    steady = summarize([1.0, 1.01, 1.02, 0.99, 1.0])
    assert list(steady) == ["median_s", "iqr_s", "unstable"]
    assert steady["median_s"] == 1.0 and steady["unstable"] is False
    assert abs(steady["iqr_s"] - 0.01) < 1e-12
    assert summarize([1.0, 3.0, 0.2, 2.5, 0.1])["unstable"] is True


def test_scaling_iteration_budgets_grow_linearly():
    assert SCALING_ITERS == {16: 125, 64: 500, 256: 2000}
    ratios = [SCALING_ITERS[n] / n for n in (16, 64, 256)]
    assert len(set(ratios)) == 1


def test_make_bench_data_shapes():
    g, q = make_bench_data(16, 8, 4, 2, 3, seed=0)
    assert len(g) == 8 and len(q) == 12
    assert g.patches.shape[1:] == (16, 8)
    with pytest.raises(ValueError):
        make_bench_data(15, 8, 4, 2, 3, seed=0)


def test_time_stage2_counts_and_warmups():
    g, q = make_bench_data(16, 8, 4, 2, 2, seed=0)
    w = _default_weights(16, 8)
    times = time_stage2("h2l", g, q, k=4, weights=w)
    assert len(times) == len(q) - 2
    assert all(t > 0 for t in times)
    emd_times = time_stage2("emd", g, q, k=4, fixed_iters=10)
    assert len(emd_times) == len(q) - 2
    with pytest.raises(ValueError):
        time_stage2("bogus", g, q, k=4)


def test_time_stage2_requires_minimum_reps():
    g, q = make_bench_data(16, 8, 4, 2, 1, seed=0)  # 4 queries, 2 after warmup
    w = _default_weights(16, 8)
    with pytest.raises(ValueError):
        time_stage2("h2l", g, q, k=4, weights=w)


def test_rows_csv_schema_and_metadata(tmp_path):
    rows = [BenchRow("h2l", 16, 8, 4, 5, 0, 0.001),
            BenchRow("emd", 16, 8, 4, 5, 0, 0.01)]
    path = tmp_path / "bench.csv"
    rows_to_csv(rows, path, env_metadata())
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("# ")]
    assert any("numpy=" in l for l in meta)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "kind,n_patches,d,k,queries,rep,seconds"
    parsed = list(csv.DictReader(body))
    assert parsed[0]["kind"] == "h2l" and parsed[1]["seconds"] == "0.01"


def test_summary_json_drops_raw_rows(tmp_path):
    report = {"suite": "scaling", "rows": [BenchRow("h2l", 16, 8, 4, 5, 0, 0.1)],
              "slopes": {"h2l": 1.2}, "meta": env_metadata()}
    path = tmp_path / "s.json"
    summary_to_json(report, path)
    text = path.read_text()
    assert "rows" not in text and '"slopes"' in text


def test_env_metadata_fields(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    meta = env_metadata()
    assert meta["workers"] == 1
    assert {"python", "numpy", "platform", "cpu_count"} <= set(meta)
    assert meta["OPENBLAS_NUM_THREADS"] == "1" and meta["OMP_NUM_THREADS"] is None


def check_rows_and_files(report, tmp_path, n_rows):
    rows = report["rows"]
    assert len(rows) == n_rows and all(isinstance(r, BenchRow) for r in rows)
    assert all(isinstance(r.seconds, float) and r.seconds > 0 for r in rows)
    rows_to_csv(rows, tmp_path / "rows.csv", report["meta"])
    body = [l for l in (tmp_path / "rows.csv").read_text().splitlines() if not l.startswith("#")]
    assert len(body) == n_rows + 1
    summary_to_json(report, tmp_path / "summary.json")
    saved = json.loads((tmp_path / "summary.json").read_text())
    assert set(saved) == set(report) - {"rows"}
    return saved


# k=4 gives one gallery record per identity unless the suite raises it to 2
@pytest.mark.parametrize("k", [4, 8])
def test_wallclock_report_shape(tmp_path, k):
    report = run_wallclock(n_patches=16, d=8, k=k, reps=5)
    assert list(report) == ["suite", "rows", "summary", "ratio_h2l_over_emd", "meta"]
    assert report["suite"] == "wallclock" and report["meta"]["workers"] == 1
    # kinds x reps rows, each kind's reps in order
    assert [(r.kind, r.rep) for r in report["rows"]] == [
        (kind, rep) for kind in ("h2l", "emd") for rep in range(5)]
    assert {(r.n_patches, r.d, r.k, r.queries) for r in report["rows"]} == {(16, 8, k, 5)}
    for kind, s in report["summary"].items():
        assert s == summarize([r.seconds for r in report["rows"] if r.kind == kind])
        assert isinstance(s["unstable"], bool)
    summary = report["summary"]
    assert report["ratio_h2l_over_emd"] == summary["h2l"]["median_s"] / summary["emd"]["median_s"]
    saved = check_rows_and_files(report, tmp_path, 2 * 5)
    assert saved["summary"] == summary


@pytest.mark.parametrize("k", [4, 8])
def test_scaling_report_shape(tmp_path, k):
    report = run_scaling(ns=(16, 64), d=8, k=k, reps=5)
    assert list(report) == ["suite", "rows", "medians", "slopes", "slope_gap", "unstable", "meta"]
    assert report["suite"] == "scaling" and report["meta"]["workers"] == 1
    assert [(r.n_patches, r.kind, r.rep) for r in report["rows"]] == [
        (n, kind, rep) for n in (16, 64) for kind in ("h2l", "emd") for rep in range(5)]
    for kind in ("h2l", "emd"):
        assert list(report["medians"][kind]) == [16, 64]
        assert isinstance(report["slopes"][kind], float)
        assert isinstance(report["unstable"][kind], bool)
    assert report["slope_gap"] == report["slopes"]["emd"] - report["slopes"]["h2l"]
    saved = check_rows_and_files(report, tmp_path, 2 * 5 * 2)
    assert saved["medians"]["emd"].keys() == {"16", "64"}
