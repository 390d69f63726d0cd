"""End-to-end command-line flows with exit-code checks."""

import csv
import json

import numpy as np
import pytest

from facevit import bench, cli
from facevit.cli import main
from facevit.model import ModelConfig, Variant, init_random, save_weights
from facevit.records import Gallery, load_gallery, save_records


def run(*argv):
    return main(list(argv))


@pytest.fixture
def synth(tmp_path):
    stem = str(tmp_path / "toy")
    assert run("gen-synth", "--identities", "4", "--per-id", "3", "--sigma", "0.0",
               "--seed", "1", "--dim", "16", "--grid", "4", "--out", stem) == 0
    return stem


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        run("rank", "--bogus", "x")
    assert exc.value.code != 0


def test_gen_rank_eval_sigma_zero_is_perfect(synth, tmp_path):
    res = tmp_path / "r.csv"
    rep = tmp_path / "rep.json"
    assert run("rank", "--gallery", synth + ".gallery", "--queries", synth + ".queries",
               "--out", str(res), "--workers", "1") == 0
    assert run("eval", "--results", str(res), "--gallery", synth + ".gallery",
               "--out", str(rep)) == 0
    report = json.loads(rep.read_text())
    assert report["p_at_1"] == 1.0 and report["rp"] == 1.0 and report["m_at_r"] == 1.0


def test_rerank_alpha_zero_full_k_matches_rank(synth, tmp_path):
    r1, r2 = tmp_path / "rank.csv", tmp_path / "rerank.csv"
    assert run("rank", "--gallery", synth + ".gallery", "--queries", synth + ".queries",
               "--out", str(r1), "--workers", "1") == 0
    assert run("rerank", "--gallery", synth + ".gallery", "--queries", synth + ".queries",
               "--reranker", "emd", "--k", "12", "--alpha", "0",
               "--out", str(r2), "--workers", "1") == 0
    rows1 = list(csv.DictReader(open(r1)))
    rows2 = list(csv.DictReader(open(r2)))
    assert [r["gallery_index"] for r in rows1] == [r["gallery_index"] for r in rows2]


def test_train_then_rerank_h2l(synth, tmp_path):
    conf = tmp_path / "train.json"
    conf.write_text(json.dumps({
        "model": {"variant": "h2l", "depth": 1, "heads": 2, "dim": 16,
                  "n_patches": 16, "out_dim": 16},
        "train": {"pairs_per_epoch": 16, "epochs": 2, "batch_size": 8, "seed": 0},
    }))
    weights = tmp_path / "w.fvwt"
    assert run("train-toy", "--config", str(conf), "--data", synth + ".gallery",
               "--out", str(weights)) == 0
    hist = json.loads((tmp_path / "w.fvwt.history.json").read_text())
    assert len(hist["epochs"]) == 2 and "threshold" in hist
    out = tmp_path / "rr.csv"
    assert run("rerank", "--gallery", synth + ".gallery", "--queries", synth + ".queries",
               "--reranker", "h2l", "--weights", str(weights), "--k", "12",
               "--out", str(out), "--workers", "1") == 0
    assert out.exists()


def test_rerank_h2l_without_weights_fails(synth, tmp_path):
    assert run("rerank", "--gallery", synth + ".gallery", "--queries", synth + ".queries",
               "--reranker", "h2l", "--k", "4",
               "--out", str(tmp_path / "x.csv")) == 1


def test_malformed_files_exit_one_with_one_error_line(synth, tmp_path, capsys):
    bad_gallery = tmp_path / "bad.fveb"
    bad_gallery.write_bytes(b"NOPE" + bytes(6))
    assert run("rank", "--gallery", str(bad_gallery), "--queries", str(bad_gallery),
               "--out", str(tmp_path / "r.csv")) == 1
    bad_weights = tmp_path / "bad.fvwt"
    bad_weights.write_bytes(b"NOPE" + bytes(60))
    assert run("rerank", "--gallery", synth + ".gallery", "--queries", synth + ".queries",
               "--reranker", "h2l", "--weights", str(bad_weights), "--k", "4",
               "--out", str(tmp_path / "x.csv"), "--workers", "1") == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {bad_gallery}: not an FVEB file",
                     f"error: {bad_weights}: not an FVWT file"]


def test_rerank_mismatched_shapes_exit_one_with_one_error_line(synth, tmp_path, capsys):
    # the toy set has a 4x4 grid of 16-d patches: weights for a 2x2 grid, and
    # queries of a 2x2 grid at the same dim, are refused before stage 2 runs
    weights = tmp_path / "grid2.fvwt"
    save_weights(init_random(ModelConfig(Variant.H2L, depth=1, heads=2, dim=16,
                                         n_patches=4, out_dim=16), 0), weights)
    other = str(tmp_path / "grid2")
    assert run("gen-synth", "--identities", "4", "--per-id", "3", "--sigma", "0.0",
               "--seed", "1", "--dim", "16", "--grid", "2", "--out", other) == 0
    h2l_out, emd_out = tmp_path / "h2l.csv", tmp_path / "emd.csv"
    capsys.readouterr()
    assert run("rerank", "--gallery", synth + ".gallery", "--queries", synth + ".queries",
               "--reranker", "h2l", "--weights", str(weights), "--k", "4",
               "--out", str(h2l_out), "--workers", "2") == 1
    assert run("rerank", "--gallery", synth + ".gallery", "--queries", other + ".queries",
               "--reranker", "emd", "--k", "4", "--out", str(emd_out), "--workers", "2") == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: model weights take patches (4, 16), the gallery has (16, 16)",
                     "error: query patches (4, 16) do not match the gallery's (16, 16)"]
    assert not h2l_out.exists() and not emd_out.exists()


def test_rerank_bad_emd_settings_exit_one_with_one_error_line(synth, tmp_path, capsys):
    # Sinkhorn cannot run at either setting; both are refused before stage 2,
    # not flagged per candidate or ranked by an unscaled kernel
    outs = [tmp_path / "eps.csv", tmp_path / "iters.csv"]
    capsys.readouterr()
    for flag, out in zip((["--emd-eps", "5"], ["--emd-iters", "0"]), outs):
        assert run("rerank", "--gallery", synth + ".gallery", "--queries", synth + ".queries",
                   "--reranker", "emd", "--k", "4", *flag, "--out", str(out)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: eps must lie in [1e-3, 1]", "error: max_iters must be at least 1"]
    assert not any(out.exists() for out in outs)


@pytest.mark.parametrize("section", ["model", "train"])
def test_train_toy_unknown_config_key_exits_one(synth, tmp_path, capsys, section):
    conf = {"model": {"variant": "h2l", "depth": 1, "heads": 2, "dim": 16,
                      "n_patches": 16, "out_dim": 16},
            "train": {"pairs_per_epoch": 16, "epochs": 1, "batch_size": 8}}
    conf[section]["bogus"] = 1
    path = tmp_path / "train.json"
    path.write_text(json.dumps(conf))
    assert run("train-toy", "--config", str(path), "--data", synth + ".gallery",
               "--out", str(tmp_path / "w.fvwt")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "bogus" in err


@pytest.mark.parametrize("data, cause", [
    pytest.param("queries", "no identity has >= 2 records; cannot form positive pairs",
                 id="queries"),
    pytest.param("one-identity", "need at least 2 identities; cannot form negative pairs",
                 id="one-identity"),
])
def test_train_toy_without_pairs_exits_one_naming_the_cause(synth, tmp_path, capsys, data, cause):
    # the query file holds one record per identity
    path = synth + ".queries"
    if data == "one-identity":
        path = str(tmp_path / "one.gallery")
        gallery = load_gallery(synth + ".gallery")
        save_records(Gallery(records=[r for r in gallery.records if r.identity == 0]), path)
    conf = tmp_path / "train.json"
    conf.write_text(json.dumps({
        "model": {"variant": "h2l", "depth": 1, "heads": 2, "dim": 16,
                  "n_patches": 16, "out_dim": 16},
        "train": {"pairs_per_epoch": 16, "epochs": 1, "batch_size": 8}}))
    out = tmp_path / "w.fvwt"
    capsys.readouterr()
    assert run("train-toy", "--config", str(conf), "--data", path, "--out", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {cause}"]
    assert not out.exists()


# the two suites at a toy shape, called as `facevit bench` calls them
_TOY_SUITES = {
    "wallclock": lambda seed, reps: bench.run_wallclock(n_patches=16, d=8, k=4,
                                                        reps=reps, seed=seed),
    "scaling": lambda seed, reps: bench.run_scaling(ns=(16, 64), d=8, k=4, reps=reps, seed=seed),
}


@pytest.mark.parametrize("suite, brief, rows", [
    pytest.param("wallclock", {"ratio_h2l_over_emd"}, 2 * 5, id="wallclock"),
    pytest.param("scaling", {"slopes", "slope_gap"}, 2 * 2 * 5, id="scaling"),
])
def test_bench_writes_csv_json_and_brief(tmp_path, capsys, monkeypatch, suite, brief, rows):
    monkeypatch.setattr(cli, "run_" + suite, _TOY_SUITES[suite])
    out = tmp_path / "b.csv"
    capsys.readouterr()
    assert run("bench", "--suite", suite, "--out", str(out), "--reps", "5") == 0
    lines = out.read_text().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    assert [line.split("=", 1)[0] for line in meta] == [f"# {key}" for key in bench.env_metadata()]
    body = list(csv.DictReader(lines[len(meta):]))
    assert len(body) == rows and {r["kind"] for r in body} == {"h2l", "emd"}
    assert [int(r["rep"]) for r in body] == list(range(5)) * (rows // 5)
    summary = json.loads((tmp_path / "b.csv.json").read_text())
    assert summary["suite"] == suite and "rows" not in summary and "meta" in summary
    printed = json.loads(capsys.readouterr().out)
    assert set(printed) == brief
    assert all(printed[key] == summary[key] for key in brief)


def test_missing_file_exits_one(tmp_path):
    assert run("rank", "--gallery", str(tmp_path / "nope.gallery"),
               "--queries", str(tmp_path / "nope.queries"),
               "--out", str(tmp_path / "r.csv")) == 1


def test_explain_outputs(synth, tmp_path):
    pgm = tmp_path / "h.pgm"
    csv_out = tmp_path / "h.csv"
    assert run("explain", "--gallery", synth + ".gallery",
               "--queries", synth + ".queries", "--query-idx", "0",
               "--gallery-idx", "1", "--out", f"{pgm},{csv_out}") == 0
    assert pgm.read_bytes().startswith(b"P5 256 256 255\n")
    grid = np.loadtxt(csv_out, delimiter=",")
    assert grid.shape == (4, 4)
    assert run("explain", "--gallery", synth + ".gallery", "--query-idx", "0",
               "--gallery-idx", "1", "--out", str(tmp_path / "h.xyz")) == 1


def test_gen_synth_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for stem in (a, b):
        assert run("gen-synth", "--identities", "3", "--per-id", "2", "--sigma", "0.3",
                   "--seed", "7", "--dim", "16", "--grid", "4", "--out", stem) == 0
    assert open(a + ".gallery", "rb").read() == open(b + ".gallery", "rb").read()
    assert open(a + ".queries", "rb").read() == open(b + ".queries", "rb").read()


def test_gen_synth_beyond_the_fveb_header_exits_one_with_one_error_line(tmp_path, capsys):
    stem = str(tmp_path / "big")
    assert run("gen-synth", "--identities", "2", "--per-id", "2", "--sigma", "0.1",
               "--dim", "1", "--grid", "300", "--out", stem) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {stem}.gallery: FVEB cannot hold n_patches 90000, the limit is 65535"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, n_records", [
    pytest.param("--query-idx", "-1", 4, id="--query-idx"),
    pytest.param("--gallery-idx", "-1", 12, id="--gallery-idx"),
    # the query file holds 4 records
    pytest.param("--query-idx", "99", 4, id="--query-idx-past-the-end"),
])
def test_explain_negative_index_exits_one(synth, tmp_path, capsys, flag, value, n_records):
    idx = {"--query-idx": "0", "--gallery-idx": "1", flag: value}
    out = tmp_path / "h.csv"
    assert run("explain", "--gallery", synth + ".gallery", "--queries", synth + ".queries",
               "--query-idx", idx["--query-idx"], "--gallery-idx", idx["--gallery-idx"],
               "--out", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {flag} {value} is out of range for {n_records} records"]
    assert not out.exists()


@pytest.mark.parametrize("command", [["rank"], ["rerank", "--reranker", "emd"]])
def test_empty_gallery_exits_one_naming_it(synth, tmp_path, capsys, command):
    empty = tmp_path / "empty.gallery"
    save_records(Gallery(), empty)
    out = tmp_path / "r.csv"
    assert run(*command, "--gallery", str(empty), "--queries", synth + ".queries",
               "--out", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == ["error: the gallery is empty"]
    assert not out.exists()
