"""Data model, synthetic generator, and the FVEB binary format."""

import mmap
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import facevit
from facevit.emd import build_flow_problem, sinkhorn
from facevit.explain import cc_heatmap
from facevit.model import ModelConfig, Variant, init_random, score_pair_h2l
from facevit.records import (_READ_BYTES, DEFAULT_DIM, BadMagicError, FaceRecord,
                             Gallery, Occlusion, RecordSet, SynthConfig,
                             TruncatedFileError, VersionMismatchError, atomic_write,
                             generate_synthetic, load_gallery, load_queries,
                             occluded_patch_indices, occluded_rows, save_records)
from facevit.trainer import _pair_blocks, sample_pairs

sys.path.insert(0, str(Path(__file__).resolve().parent))
from reference import records_equal  # noqa: E402


def small_cfg(**kw):
    base = dict(n_identities=3, records_per_identity=2, intra_class_noise=0.2,
                seed=0, dim=16, grid=4)
    base.update(kw)
    return SynthConfig(**base)


# -- occlusion geometry ------------------------------------------------------

def test_mask_covers_bottom_three_rows_on_8x8():
    assert occluded_rows(Occlusion.MASK, 8) == [5, 6, 7]


def test_sunglasses_cover_rows_two_and_three_on_8x8():
    assert occluded_rows(Occlusion.SUNGLASSES, 8) == [2, 3]


def test_occlusion_none_covers_nothing():
    assert occluded_rows(Occlusion.NONE, 8) == []
    assert occluded_patch_indices(Occlusion.NONE, 8).size == 0


def test_occluded_patch_indices_are_row_major():
    idx = occluded_patch_indices(Occlusion.MASK, 4)  # bottom 2 rows of a 4x4 grid
    np.testing.assert_array_equal(idx, [8, 9, 10, 11, 12, 13, 14, 15])


# -- record validation -------------------------------------------------------

def test_record_validates_shapes_and_values():
    with pytest.raises(ValueError):
        FaceRecord(-1, np.ones(4), np.ones((4, 4)))
    with pytest.raises(ValueError):
        FaceRecord(0, np.ones(4), np.ones((3, 4)))  # 3 patches is not a grid
    with pytest.raises(ValueError):
        FaceRecord(0, np.ones(4), np.full((4, 4), np.nan))
    r = FaceRecord(0, np.ones(4), np.ones((4, 4)))
    assert r.grid == 2


# -- generator ---------------------------------------------------------------

def test_generator_is_deterministic():
    g1, q1 = generate_synthetic(small_cfg())
    g2, q2 = generate_synthetic(small_cfg())
    assert records_equal(g1, g2) and records_equal(q1, q2)


def test_generator_seed_changes_data():
    g1, _ = generate_synthetic(small_cfg())
    g2, _ = generate_synthetic(small_cfg(seed=1))
    assert not records_equal(g1, g2)


def test_generator_counts_and_labels():
    cfg = small_cfg(n_identities=4, records_per_identity=3, queries_per_identity=2)
    g, q = generate_synthetic(cfg)
    assert len(g) == 12 and len(q) == 8
    assert g.id_counts == {0: 3, 1: 3, 2: 3, 3: 3}
    assert all(r.occlusion == Occlusion.NONE for r in g.records)


def test_columns_equal_records():
    g, q = generate_synthetic(small_cfg(n_identities=4, records_per_identity=3,
                                        queries_per_identity=2, occluded_fraction=0.5))
    for rs in (g, q):
        np.testing.assert_array_equal(rs.identities, [r.identity for r in rs.records])
        np.testing.assert_array_equal(rs.occlusion, [r.occlusion for r in rs.records])
        np.testing.assert_array_equal(rs.patches, np.stack([r.patches for r in rs.records]))
        assert all(np.shares_memory(r.patches, rs.patches) for r in rs.records)
        mat = np.stack([r.image_vec for r in rs.records])
        np.testing.assert_array_equal(rs.images, mat)
        np.testing.assert_array_equal(rs.image_norms, np.linalg.norm(mat, axis=1))
        counts = {}
        for r in rs.records:
            counts[r.identity] = counts.get(r.identity, 0) + 1
        assert rs.id_counts == counts
    empty = Gallery()
    assert len(empty) == 0 and empty.identities.shape == (0,) and dict(empty.id_counts) == {}


def test_record_sets_and_records_are_read_only():
    g, _ = generate_synthetic(small_cfg())
    with pytest.raises(AttributeError):
        g.records = g.records[:1]
    with pytest.raises(TypeError):
        g.records[0] = g.records[1]
    with pytest.raises(AttributeError):
        g.records[0].patches = np.zeros_like(g.records[0].patches)
    with pytest.raises(AttributeError):
        g.records[0].identity = 5
    with pytest.raises(ValueError):
        g.records[0].patches[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.records[0].image_vec[0] = 1.0
    for column in (g.identities, g.occlusion, g.images, g.patches, g.image_norms):
        with pytest.raises(ValueError):
            column[0] = 0
    with pytest.raises(TypeError):
        g.id_counts[0] = 99


def test_image_vec_is_mean_of_patches():
    g, q = generate_synthetic(small_cfg(occluded_fraction=1.0))
    for r in list(g.records) + list(q.records):
        expected = r.patches.astype(np.float64).mean(axis=0).astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(r.image_vec, expected)


def test_occluded_fraction_is_respected():
    cfg = small_cfg(n_identities=5, queries_per_identity=4, occluded_fraction=0.5)
    _, q = generate_synthetic(cfg)
    occluded = [r for r in q.records if r.occlusion != Occlusion.NONE]
    assert len(occluded) == 10


def test_occluded_queries_share_the_occluder_verbatim():
    cfg = small_cfg(n_identities=4, occluded_fraction=1.0)
    _, q = generate_synthetic(cfg)
    idx = occluded_patch_indices(cfg.occlusion_type, cfg.grid)
    blocks = [r.patches[idx] for r in q.records]
    for b in blocks[1:]:
        np.testing.assert_array_equal(b, blocks[0])


def test_clean_rows_keep_identity_signal_under_occlusion():
    cfg = small_cfg(occluded_fraction=1.0, intra_class_noise=0.0)
    g, q = generate_synthetic(cfg)
    idx = occluded_patch_indices(cfg.occlusion_type, cfg.grid)
    clean = np.setdiff1d(np.arange(len(q.records[0].patches)), idx)
    # sigma=0: unoccluded patches equal the identity prototype in the gallery
    np.testing.assert_array_equal(q.records[0].patches[clean],
                                  g.records[0].patches[clean])


def test_sigma_zero_is_allowed_and_gives_identical_records():
    g, _ = generate_synthetic(small_cfg(intra_class_noise=0.0))
    np.testing.assert_array_equal(g.records[0].patches, g.records[1].patches)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(n_identities=1).validate()
    with pytest.raises(ValueError):
        small_cfg(records_per_identity=1).validate()
    with pytest.raises(ValueError):
        small_cfg(intra_class_noise=-0.1).validate()
    with pytest.raises(ValueError):
        small_cfg(occluded_fraction=1.5).validate()


# -- FVEB format -------------------------------------------------------------

def test_empty_set_is_ten_byte_header(tmp_path):
    path = tmp_path / "empty.fveb"
    save_records(Gallery(), path)
    data = path.read_bytes()
    assert len(data) == 10
    assert data[:4] == b"FVEB"
    assert len(load_gallery(path).records) == 0


@pytest.mark.parametrize("dim, n_patches, field", [(1, 90000, "n_patches 90000"),
                                                   (70000, 1, "dim 70000")])
def test_save_rejects_a_shape_the_header_cannot_hold(tmp_path, dim, n_patches, field):
    rec = FaceRecord(0, np.ones(dim), np.ones((n_patches, dim), np.float32))
    path = tmp_path / "big.fveb"
    with pytest.raises(ValueError, match=f"FVEB cannot hold {field}, the limit is 65535"):
        save_records(Gallery(records=[rec]), path)
    assert list(tmp_path.iterdir()) == []


def test_round_trip_default_shape_is_version_1(tmp_path):
    rng = np.random.default_rng(0)
    rec = FaceRecord(7, rng.standard_normal(DEFAULT_DIM).astype(np.float32).astype(np.float64),
                     rng.standard_normal((64, DEFAULT_DIM)).astype(np.float32).astype(np.float64),
                     Occlusion.SUNGLASSES)
    path = tmp_path / "g.fveb"
    save_records(Gallery(records=[rec]), path)
    assert int.from_bytes(path.read_bytes()[4:6], "little") == 1
    loaded = load_gallery(path)
    assert records_equal(loaded, Gallery(records=[rec]))


def test_round_trip_other_shape_uses_version_2(tmp_path):
    g, q = generate_synthetic(small_cfg())
    gp, qp = tmp_path / "a.gallery", tmp_path / "a.queries"
    save_records(g, gp)
    save_records(q, qp)
    assert int.from_bytes(gp.read_bytes()[4:6], "little") == 2
    assert records_equal(load_gallery(gp), g)
    assert records_equal(load_queries(qp), q)


def test_save_then_load_then_save_is_byte_identical(tmp_path):
    g, _ = generate_synthetic(small_cfg())
    p1, p2 = tmp_path / "one", tmp_path / "two"
    save_records(g, p1)
    save_records(load_gallery(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"NOPE" + b"\x00" * 6)
    with pytest.raises(BadMagicError):
        load_gallery(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"FVEB" + (99).to_bytes(2, "little") + (0).to_bytes(4, "little"))
    with pytest.raises(VersionMismatchError):
        load_gallery(path)


def test_truncation_detected(tmp_path):
    g, _ = generate_synthetic(small_cfg())
    path = tmp_path / "g"
    save_records(g, path)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(TruncatedFileError):
        load_gallery(path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(TruncatedFileError):
        load_gallery(path)


def test_mixed_shapes_in_one_file_rejected(tmp_path):
    a = FaceRecord(0, np.ones(4), np.ones((4, 4)))
    b = FaceRecord(0, np.ones(9), np.ones((4, 9)))
    with pytest.raises(ValueError):
        save_records(Gallery(records=[a, b]), tmp_path / "bad")


@given(st.integers(0, 2**31), st.integers(2, 4), st.integers(1, 6),
       st.sampled_from([Occlusion.NONE, Occlusion.MASK, Occlusion.SUNGLASSES]))
@settings(max_examples=30, deadline=None)
def test_round_trip_property(identity, grid, dim, occ):
    rng = np.random.default_rng(identity % 1000)
    patches = rng.standard_normal((grid * grid, dim)).astype(np.float32).astype(np.float64)
    rec = FaceRecord(identity, patches.mean(axis=0).astype(np.float32).astype(np.float64),
                     patches, occ)
    import io, tempfile, os
    fd, path = tempfile.mkstemp()
    os.close(fd)
    try:
        save_records(Gallery(records=[rec]), path)
        assert records_equal(load_gallery(path), Gallery(records=[rec]))
    finally:
        os.unlink(path)


# small_cfg's records: identity, occlusion code, image vector, 16 patches, 16-d
_SMALL_RECORD_BYTES = 5 + 4 * 16 * 17
_NAN = np.float32(np.nan).tobytes()


@pytest.mark.parametrize("n_identities, record, offset, value", [
    pytest.param(3, 1, 5 + 4 * 16 + 4 * 7, _NAN, id="patch"),
    # the last record of a file that the load reads in more than one chunk
    pytest.param(_READ_BYTES // _SMALL_RECORD_BYTES // 2 + 1, -1, 5 + 4 * 16 + 4 * 7, _NAN,
                 id="patch-in-last-record-past-first-chunk"),
    pytest.param(3, 1, 4, bytes([3]), id="occlusion-code-3"),
])
def test_non_finite_patch_in_file_rejected(tmp_path, n_identities, record, offset, value):
    g, _ = generate_synthetic(small_cfg(n_identities=n_identities))
    path = tmp_path / "g"
    save_records(g, path)
    assert path.stat().st_size == 14 + len(g) * _SMALL_RECORD_BYTES
    data = bytearray(path.read_bytes())
    # header (14 bytes for version 2), then the records
    at = 14 + (record % len(g)) * _SMALL_RECORD_BYTES + offset
    data[at:at + len(value)] = value
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError):
        load_gallery(path)


def _rss_file_kb() -> int:
    try:
        with open("/proc/self/status") as fh:
            status = dict(line.split(":", 1) for line in fh)
    except OSError:
        pytest.skip("no /proc/self/status")
    if "RssFile" not in status:
        pytest.skip("no RssFile in /proc/self/status")
    return int(status["RssFile"].split()[0])


def test_loading_leaves_the_patches_unmapped(tmp_path):
    # 160 records of 512-d with 8x8 patches: a 20.8 MB file
    g, _ = generate_synthetic(small_cfg(n_identities=80, dim=DEFAULT_DIM, grid=8))
    path = tmp_path / "g"
    save_records(g, path)
    before = _rss_file_kb()
    loaded = load_gallery(path)
    grown = _rss_file_kb() - before
    assert len(loaded) == 160
    assert grown * 1024 < 0.25 * path.stat().st_size, f"RssFile grew by {grown} kB"


# -- float32 patches mapped from the file --------------------------------------

def _mapping(arr):
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr


def test_loaded_patches_are_read_only_f32_views_of_the_mapped_file(tmp_path):
    g, _ = generate_synthetic(small_cfg())
    path = tmp_path / "g"
    save_records(g, path)
    loaded = load_gallery(path)
    m = _mapping(loaded.records[0].patches)
    assert isinstance(m, mmap.mmap)
    file_bytes = np.frombuffer(m, dtype=np.uint8)
    for i, r in enumerate(loaded.records):
        assert r.patches.dtype == np.float32 and not r.patches.flags.writeable
        assert _mapping(r.patches) is m and np.shares_memory(r.patches, file_bytes)
        assert r.image_vec.dtype == np.float64
        assert np.shares_memory(r.image_vec, loaded.images[i])
    assert loaded.images.dtype == np.float64 and not loaded.images.flags.writeable
    assert all(r.patches.dtype == np.float32 for r in g.records)


def test_a_subset_of_a_loaded_set_gets_its_own_image_column(tmp_path):
    g, _ = generate_synthetic(small_cfg())
    path = tmp_path / "g"
    save_records(g, path)
    loaded = load_gallery(path)
    for records in (loaded.records[1:], loaded.records[::-1]):
        sub = RecordSet(records=records)
        np.testing.assert_array_equal(sub.images, np.stack([r.image_vec for r in records]))


def test_f32_records_score_bit_identical_to_their_f64_twins(tmp_path):
    g, _ = generate_synthetic(small_cfg(n_identities=4, records_per_identity=3))
    path = tmp_path / "g"
    save_records(g, path)
    g32 = load_gallery(path)
    # 1093-byte records: the mapped patches of every other record are unaligned
    assert not all(r.patches.flags.aligned for r in g32.records)
    g64 = Gallery(records=[FaceRecord(r.identity, r.image_vec, r.patches.astype(np.float64),
                                      r.occlusion) for r in g32.records])
    assert all(r.patches.dtype == np.float64 for r in g64.records)
    w = init_random(ModelConfig(Variant.H2L, depth=1, heads=2, dim=16, n_patches=16), 0)
    for i, j in [(0, 1), (1, 4), (5, 2)]:
        a32, b32, a64, b64 = g32[i], g32[j], g64[i], g64[j]
        d32, d64 = (sinkhorn(build_flow_problem(a, b), fixed_iters=30).distance
                    for a, b in [(a32, b32), (a64, b64)])
        assert d32 == d64
        s32, s64 = score_pair_h2l(a32, b32, w), score_pair_h2l(a64, b64, w)
        assert s32[0] == s64[0]
        np.testing.assert_array_equal(s32[1], s64[1])
        np.testing.assert_array_equal(s32[2], s64[2])
        for m32, m64 in zip(cc_heatmap(a32, b32), cc_heatmap(a64, b64)):
            np.testing.assert_array_equal(m32, m64)
    pairs = sample_pairs(g32, 8, 0)
    for x32, x64 in zip(_pair_blocks(g32, pairs), _pair_blocks(g64, pairs)):
        assert x32.dtype == np.float64
        np.testing.assert_array_equal(x32, x64)


def test_saving_over_a_mapped_file_leaves_the_loaded_set_intact(tmp_path):
    g, _ = generate_synthetic(small_cfg(n_identities=4, records_per_identity=3))
    path = tmp_path / "g"
    save_records(g, path)
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from facevit.records import RecordSet, load_gallery, save_records
        path = sys.argv[1]
        g = load_gallery(path)
        before = np.array(g.records[-1].patches)
        save_records(RecordSet(records=g.records[:2]), path)
        assert np.array_equal(g.records[-1].patches, before)
        assert len(load_gallery(path)) == 2
    """)
    src = str(Path(facevit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert records_equal(load_gallery(path), Gallery(records=g.records[:2]))
    assert os.listdir(tmp_path) == ["g"]


def test_atomic_write_leaves_the_target_on_error(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write(b"new")
            raise RuntimeError("stop")
    assert path.read_bytes() == b"old" and os.listdir(tmp_path) == ["f"]
