"""Cross-correlation heatmap generation and export."""

import numpy as np
import pytest

from facevit.explain import (cc_heatmap, heatmap_to_csv, heatmap_to_pgm,
                             normalize_heatmap)
from facevit.records import FaceRecord, SynthConfig, generate_synthetic


def toy_pair(sigma=0.2):
    cfg = SynthConfig(2, 2, sigma, 0, dim=16, grid=4)
    g, q = generate_synthetic(cfg)
    return q.records[0], g.records[0]


def test_heatmap_matches_manual_dot_products():
    a, b = toy_pair()
    map_ab, map_ba = cc_heatmap(a, b)
    assert map_ab.shape == (4, 4)
    pa, pb = a.patches.astype(np.float64), b.patches.astype(np.float64)
    ref = (pa @ pb.mean(axis=0)).reshape(4, 4)
    np.testing.assert_allclose(map_ab, ref, atol=1e-12)
    ref_ba = (pb @ pa.mean(axis=0)).reshape(4, 4)
    np.testing.assert_allclose(map_ba, ref_ba, atol=1e-12)


def test_heatmap_rejects_mismatched_grids():
    a, _ = toy_pair()
    other = FaceRecord(0, np.ones(16), np.ones((4, 16)))
    with pytest.raises(ValueError):
        cc_heatmap(a, other)


def test_normalize_range_and_constant_map():
    raw = np.array([[1.0, 3.0], [2.0, 5.0]])
    norm = normalize_heatmap(raw)
    assert norm.min() == 0.0 and norm.max() == 1.0
    np.testing.assert_allclose(norm, (raw - 1.0) / 4.0)
    np.testing.assert_array_equal(normalize_heatmap(np.full((3, 3), 7.0)),
                                  np.zeros((3, 3)))


def test_csv_round_trip(tmp_path):
    a, b = toy_pair()
    raw, _ = cc_heatmap(a, b)
    path = tmp_path / "heat.csv"
    heatmap_to_csv(raw, path)
    np.testing.assert_allclose(np.loadtxt(path, delimiter=","), raw, rtol=1e-9)


def test_pgm_header_and_payload(tmp_path):
    a, b = toy_pair()
    raw, _ = cc_heatmap(a, b)
    path = tmp_path / "heat.pgm"
    heatmap_to_pgm(raw, path, side=64)
    data = path.read_bytes()
    header = b"P5 64 64 255\n"
    assert data.startswith(header)
    img = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(64, 64)
    assert img.min() == 0 and img.max() == 255  # full dynamic range after min-max
    # nearest-neighbor upscale: top-left 16x16 block is constant
    assert np.all(img[:16, :16] == img[0, 0])
