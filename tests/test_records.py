"""Data model, synthetic generator, and the FVEB binary format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facevit.records import (DEFAULT_DIM, BadMagicError, FaceRecord, Gallery,
                             Occlusion, SynthConfig, TruncatedFileError,
                             VersionMismatchError,
                             generate_synthetic, load_gallery, load_queries,
                             occluded_patch_indices, occluded_rows,
                             records_equal, save_records)


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
    assert (r.dim, r.n_patches, r.grid) == (4, 4, 2)


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
    for column in (g.identities, g.images, g.image_norms):
        with pytest.raises(ValueError):
            column[0] = 0
    with pytest.raises(TypeError):
        g.id_counts[0] = 99


def test_image_vec_is_mean_of_patches():
    g, q = generate_synthetic(small_cfg(occluded_fraction=1.0))
    for r in list(g.records) + list(q.records):
        expected = r.patches.mean(axis=0).astype(np.float32).astype(np.float64)
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
    clean = np.setdiff1d(np.arange(q.records[0].n_patches), idx)
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
