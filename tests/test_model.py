"""Transformer variants: token layout, forward paths, scorer parity, weight files."""

import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from facevit.model import (_HEADER_FMT, _HEADER_SIZE, _VARIANT_CODES, H2LScorer,
                           ModelConfig, ModelWeights, Variant,
                           VariantError, WeightFormatError, _encode, _h2l_encode,
                           assemble_tokens_batch, buffer_shapes, cosine, h1_embed_batch,
                           h2_logits_batch, h2l_features, init_random, load_weights,
                           param_shapes, params_to_tensors, save_weights, score_pair_h2l)
from facevit.records import FaceRecord, SynthConfig, generate_synthetic


def toy_cfg(variant=Variant.H2L, depth=2, heads=2, dim=16, n_patches=16, out_dim=16):
    return ModelConfig(variant, depth=depth, heads=heads, dim=dim,
                       n_patches=n_patches, out_dim=out_dim)


def toy_data(seed=0, n_identities=3, per_id=2, sigma=0.3, dim=16, grid=4, **kw):
    cfg = SynthConfig(n_identities, per_id, sigma, seed, dim=dim, grid=grid, **kw)
    return generate_synthetic(cfg)


def test_config_defaults_and_validation():
    cfg = ModelConfig(Variant.H2L, depth=1, heads=4, dim=64, n_patches=16)
    assert cfg.head_dim == 16 and cfg.mlp_width == 256 and cfg.inner_dim == 64
    assert cfg.seq_len == 34
    assert ModelConfig(Variant.H1, depth=1, heads=1, dim=8, n_patches=4).seq_len == 5
    with pytest.raises(ValueError):
        ModelConfig(Variant.H2L, depth=0, heads=2)
    with pytest.raises(ValueError):
        ModelConfig(Variant.H2L, depth=1, heads=3)


def test_param_shapes_per_variant():
    cfg = toy_cfg()
    shapes = param_shapes(cfg)
    assert shapes["pos_embed"] == (34, 16)
    assert "sep_token" in shapes
    assert shapes["head.lin1_w"] == (16 * 16, 16)
    assert set(buffer_shapes(cfg)) == {"head.bn1_mean", "head.bn1_var",
                                       "head.bn2_mean", "head.bn2_var"}
    h1 = param_shapes(toy_cfg(variant=Variant.H1))
    assert "sep_token" not in h1 and h1["pos_embed"] == (17, 16)
    h2 = param_shapes(toy_cfg(variant=Variant.H2))
    assert h2["head.fc_w"] == (16, 2)


def test_init_is_deterministic_and_f32_exact():
    w1 = init_random(toy_cfg(), 5)
    w2 = init_random(toy_cfg(), 5)
    for k in w1.params:
        np.testing.assert_array_equal(w1.params[k], w2.params[k])
        np.testing.assert_array_equal(
            w1.params[k], w1.params[k].astype(np.float32).astype(np.float64))
    assert np.all(w1.buffers["head.bn1_var"] == 1.0)
    assert np.all(w1.buffers["head.bn1_mean"] == 0.0)


def assemble_pair(a, b, w, add_pos):
    """Token matrix (2P^2+2) x D of one pair, from the two token blocks."""
    za, zb = assemble_tokens_batch(a.patches[None], b.patches[None],
                                   params_to_tensors(w), w.config, add_pos)
    return np.concatenate([za.value[0], zb.value[0]])


def test_token_layout_cls_sep_positions():
    cfg = toy_cfg(depth=1)
    w = init_random(cfg, 0)
    g, _ = toy_data()
    a, b = g.records[0], g.records[1]
    z0 = assemble_pair(a, b, w, add_pos=False)
    assert z0.shape == (2 * 16 + 2, 16)
    e = w.params["token_proj"]
    np.testing.assert_allclose(z0[0], w.params["cls_token"] @ e, atol=1e-12)
    np.testing.assert_allclose(z0[17], w.params["sep_token"] @ e, atol=1e-12)
    np.testing.assert_allclose(z0[1:17], a.patches @ e, atol=1e-12)
    np.testing.assert_allclose(z0[18:], b.patches @ e, atol=1e-12)
    with_pos = assemble_pair(a, b, w, add_pos=True)
    np.testing.assert_allclose(with_pos, z0 + w.params["pos_embed"], atol=1e-12)


def test_score_pair_h2l_range_and_determinism():
    w = init_random(toy_cfg(), 1)
    g, _ = toy_data()
    s1, f1, f2 = score_pair_h2l(g.records[0], g.records[1], w)
    s2, _, _ = score_pair_h2l(g.records[0], g.records[1], w)
    assert -1.0 <= s1 <= 1.0
    assert s1 == s2
    assert f1.shape == (16,) and f2.shape == (16,)


def test_scorer_matches_autodiff_path():
    w = init_random(toy_cfg(depth=2, heads=4), 3)
    g, q = toy_data(per_id=3)
    scorer = H2LScorer(w, dtype=np.float64)
    cands = [(i, g.records[i]) for i in range(len(g))]
    batch = scorer.score_against(q.records[0], cands)
    ref = np.array([score_pair_h2l(q.records[0], r, w)[0] for _, r in cands])
    np.testing.assert_allclose(batch, ref, atol=1e-10)
    # a second call over the same candidates must agree exactly
    np.testing.assert_array_equal(scorer.score_against(q.records[0], cands), batch)


def test_h2l_features_keep_f32():
    w = init_random(toy_cfg(depth=1), 3)
    w32 = ModelWeights(w.config, {k: v.astype(np.float32) for k, v in w.params.items()},
                       {k: v.astype(np.float32) for k, v in w.buffers.items()})
    g, _ = toy_data()
    pa = g.records[0].patches[None].astype(np.float32)
    pb = g.records[1].patches[None].astype(np.float32)
    f1, f2, _ = h2l_features(w32, pa, pb)
    assert f1.value.dtype == np.float32 and f2.value.dtype == np.float32


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_h2l_query_prefix_once_equals_broadcast_query(depth, dtype):
    # a (1, P, D) query's tokens take LN1 and Q/K/V once for the whole batch;
    # that must give exactly what the query repeated for every candidate
    # gives, where the encoder joins the two equal-batch blocks first
    w = init_random(toy_cfg(depth=depth), 8)
    w = ModelWeights(w.config, {k: v.astype(dtype) for k, v in w.params.items()},
                     {k: v.astype(dtype) for k, v in w.buffers.items()})
    g, q = toy_data(per_id=3)
    pb = np.stack([r.patches for r in g.records]).astype(dtype)
    pa = q.records[0].patches[None].astype(dtype)
    f1, f2, attns = h2l_features(w, pa, pb)
    r1, r2, ref_attns = h2l_features(w, np.broadcast_to(pa, pb.shape), pb)
    assert f1.shape == (len(pb), 16) and f1.value.dtype == dtype
    np.testing.assert_array_equal(f1.value, r1.value)
    np.testing.assert_array_equal(f2.value, r2.value)
    assert len(attns) == len(ref_attns) == depth
    for attn, ref in zip(attns, ref_attns):
        np.testing.assert_array_equal(attn, ref)


def test_scorer_f32_mode_close_to_f64():
    w = init_random(toy_cfg(depth=2, heads=4), 3)
    g, q = toy_data(per_id=3)
    cands = [(i, g.records[i]) for i in range(len(g))]
    s32 = H2LScorer(w).score_against(q.records[0], cands)
    s64 = H2LScorer(w, dtype=np.float64).score_against(q.records[0], cands)
    np.testing.assert_allclose(s32, s64, atol=1e-4)


def scores_by_block(monkeypatch, scorer, query, cands):
    """The scorer's scores and the candidate count of each encoder block."""
    sizes = []

    def recording(w, patches_a, patches_b, p, add_pos):
        sizes.append(len(patches_b))
        return _h2l_encode(w, patches_a, patches_b, p, add_pos)

    monkeypatch.setattr("facevit.model._h2l_encode", recording)
    return scorer.score_against(query, cands), sizes


def one_block_scores(scorer, query, cands):
    pa = query.patches[None].astype(scorer.dtype)
    pb = np.stack([r.patches for _, r in cands]).astype(scorer.dtype)
    f1, f2, _ = h2l_features(scorer.w, pa, pb, p=scorer.p)
    f1, f2 = f1.value.astype(np.float64), f2.value.astype(np.float64)
    return np.einsum("bi,bi->b", f1, f2) / (np.linalg.norm(f1, axis=1) * np.linalg.norm(f2, axis=1))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_scorer_blocks_equal_one_block_forward(monkeypatch, dtype):
    # 250 candidates of 34 token rows are 8,500 rows, nine encoder blocks of
    # at most 1,024: 27 or 28 candidates. No block holds one candidate. A
    # 1-candidate block has the query's batch size, so the encoder joins the
    # two token blocks into one before the first layer, and its scores differ
    # from a batched forward's in the last bits (7e-16 in f64 and 5e-7 in f32
    # on this data); blocks of two or more give the batched forward's bits,
    # and the head runs once over all 250, as the one-block forward's does.
    w = init_random(toy_cfg(depth=2), 9)
    g, q = toy_data(n_identities=25, per_id=10)
    cands = [(i, r) for i, r in enumerate(g.records)]
    scorer = H2LScorer(w, dtype=dtype)
    scores, sizes = scores_by_block(monkeypatch, scorer, q.records[0], cands)
    assert sizes == [27, 28, 28, 28, 27, 28, 28, 28, 28]
    np.testing.assert_array_equal(scores, one_block_scores(scorer, q.records[0], cands))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_scorer_blocks_never_hold_one_candidate(monkeypatch, dtype):
    # a 16x16 grid is 514 token rows per pair, more than half a block: 8
    # candidates are 4,112 rows, five blocks by rows, but four of two
    w = init_random(toy_cfg(depth=1, n_patches=256), 4)
    g, q = toy_data(n_identities=4, per_id=2, grid=16)
    cands = [(i, r) for i, r in enumerate(g.records)]
    scorer = H2LScorer(w, dtype=dtype)
    scores, sizes = scores_by_block(monkeypatch, scorer, q.records[0], cands)
    assert sizes == [2, 2, 2, 2]
    np.testing.assert_array_equal(scores, one_block_scores(scorer, q.records[0], cands))


def f32_weights(cfg, seed):
    """Random f32 weights, drawn in f32: init_random would hold an f64 copy
    of each head matrix, 128 MB at 512-d and an 8x8 grid."""
    rng = np.random.default_rng(seed)
    params = {name: rng.standard_normal(shape, dtype=np.float32) * (1.0 / math.sqrt(shape[0]))
              for name, shape in param_shapes(cfg).items()}
    return ModelWeights(cfg, params, {name: np.ones(shape, np.float32)
                                      for name, shape in buffer_shapes(cfg).items()})


def test_scorer_memory_bounded_by_its_blocks():
    # production shape: the encoder's temporaries are bounded by a block of
    # about 1,024 token rows and its outputs by two (k, P^2 * D) f32 arrays,
    # 13 MB each
    cfg = ModelConfig(Variant.H2L, depth=1, heads=2, dim=512, n_patches=64, out_dim=512)
    scorer = H2LScorer(f32_weights(cfg, 0))
    g, q = toy_data(n_identities=50, per_id=2, dim=512, grid=8)
    cands = [(i, r) for i, r in enumerate(g.records)]
    scores = []
    peak = peak_bytes(lambda: scores.append(scorer.score_against(q.records[0], cands)))
    assert np.all(np.isfinite(scores[0])) and len(scores[0]) == 100
    assert peak < 64 << 20


def test_score_pair_h2l_upcasts_one_head_matrix_at_a_time(tmp_path):
    # the f32 head matrices are promoted inside their matmuls, one at a time
    cfg = toy_cfg(depth=1, dim=128, n_patches=64, out_dim=128)
    save_weights(init_random(cfg, 2), tmp_path / "w.fvwt")
    w = load_weights(tmp_path / "w.fvwt")
    g, q = toy_data(dim=128, grid=8)
    both_f64 = 8 * (w.params["head.lin1_w"].size + w.params["head.lin2_w"].size)
    assert peak_bytes(lambda: score_pair_h2l(q.records[0], g.records[0], w)) < both_f64


def test_score_pair_h2l_is_f64_whatever_the_weights_dtype(tmp_path):
    # a loaded file's blocks are f32; the reference forward upcasts them, so
    # it gives exactly what the f64 weights they were saved from give
    w = init_random(toy_cfg(depth=2), 12)
    save_weights(w, tmp_path / "w.fvwt")
    loaded = load_weights(tmp_path / "w.fvwt")
    g, q = toy_data()
    for r in g.records:
        ref = score_pair_h2l(q.records[0], r, w)
        got = score_pair_h2l(q.records[0], r, loaded)
        assert got[0] == ref[0]
        for a, b in zip(got[1:], ref[1:]):
            assert a.dtype == np.float64
            np.testing.assert_array_equal(a, b)


def test_scorer_respects_no_pos_toggle():
    w = init_random(toy_cfg(depth=1), 4)
    g, q = toy_data()
    cands = [(0, g.records[0])]
    with_pos = H2LScorer(w, add_pos=True, dtype=np.float64).score_against(q.records[0], cands)[0]
    without = H2LScorer(w, add_pos=False, dtype=np.float64).score_against(q.records[0], cands)[0]
    ref = score_pair_h2l(q.records[0], g.records[0], w, add_pos=False)[0]
    assert with_pos != without
    np.testing.assert_allclose(without, ref, atol=1e-10)


def test_h2l_block_permutation_within_image():
    # permuting image-b patches (pos disabled) permutes only b-side tokens;
    # the mean-pooled b feature is invariant
    w = init_random(toy_cfg(depth=1), 6)
    p = params_to_tensors(w)
    g, _ = toy_data()
    a, b = g.records[0].patches[None], g.records[1].patches[None]
    perm = np.random.default_rng(0).permutation(16)

    def b_meanpool(pb):
        z, _ = _encode(assemble_tokens_batch(a, pb, p, w.config, add_pos=False), p, w.config)
        return z.value[:, 16 + 2:, :].mean(axis=1)

    np.testing.assert_allclose(b_meanpool(b), b_meanpool(b[:, perm]), atol=1e-10)


def test_batch_norm_modes_differ_and_running_stats_update():
    w = init_random(toy_cfg(depth=1), 7)
    g, _ = toy_data(per_id=3)
    pa = np.stack([g.records[0].patches, g.records[1].patches])
    pb = np.stack([g.records[2].patches, g.records[3].patches])
    before = w.buffers["head.bn1_mean"].copy()
    f_run, _, _ = h2l_features(w, pa, pb, bn_mode="running")
    f_batch, _, _ = h2l_features(w, pa, pb, bn_mode="batch", update_stats=True)
    assert not np.allclose(f_run.value, f_batch.value)
    assert not np.array_equal(w.buffers["head.bn1_mean"], before)
    with pytest.raises(ValueError):
        h2l_features(w, pa, pb, bn_mode="bogus")


def test_variant_guards():
    w = init_random(toy_cfg(variant=Variant.H1), 0)
    g, _ = toy_data()
    with pytest.raises(VariantError):
        score_pair_h2l(g.records[0], g.records[1], w)
    with pytest.raises(VariantError):
        h2_logits_batch(w, g.records[0].patches[None], g.records[1].patches[None])
    emb = h1_embed_batch(w, g.records[0].patches[None]).value[0]
    assert emb.shape == (16,)


def test_h2_logits_shape():
    w = init_random(toy_cfg(variant=Variant.H2), 0)
    g, _ = toy_data()
    logits = h2_logits_batch(w, g.records[0].patches[None], g.records[1].patches[None]).value[0]
    assert logits.shape == (2,)


def test_patch_shape_mismatch_rejected():
    w = init_random(toy_cfg(), 0)
    bad = FaceRecord(0, np.ones(16), np.ones((4, 16)))
    g, _ = toy_data()
    with pytest.raises(ValueError):
        score_pair_h2l(bad, g.records[0], w)


def test_cosine_zero_norm_rejected():
    with pytest.raises(ValueError):
        cosine(np.zeros(3), np.ones(3))


# -- weight files ------------------------------------------------------------

@pytest.mark.parametrize("variant", [Variant.H1, Variant.H2, Variant.H2L])
def test_weight_round_trip_bit_exact(tmp_path, variant):
    w = init_random(toy_cfg(variant=variant, depth=2), 11)
    path = tmp_path / "w.fvwt"
    save_weights(w, path)
    loaded = load_weights(path)
    assert loaded.config == w.config
    for k in w.params:
        np.testing.assert_array_equal(loaded.params[k], w.params[k])
    for k in w.buffers:
        np.testing.assert_array_equal(loaded.buffers[k], w.buffers[k])
    blocks = [*loaded.params.values(), *loaded.buffers.values()]
    assert all(b.dtype == np.float32 for b in blocks)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(blocks) for b in blocks[i + 1:])
    if variant is Variant.H2L:
        # an f32 scorer takes the loaded blocks as they are, without a copy
        scorer = H2LScorer(loaded)
        for name, block in {**loaded.params, **loaded.buffers}.items():
            assert np.shares_memory({**scorer.w.params, **scorer.w.buffers}[name], block)
    # save(load(x)) is byte-identical
    path2 = tmp_path / "w2.fvwt"
    save_weights(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_weight_file_errors(tmp_path):
    path = tmp_path / "w.fvwt"
    w = init_random(toy_cfg(depth=1), 0)
    save_weights(w, path)
    data = path.read_bytes()

    (tmp_path / "magic").write_bytes(b"XXXX" + data[4:])
    with pytest.raises(WeightFormatError):
        load_weights(tmp_path / "magic")

    for cut in (5, 4, 1, len(data) - 24, len(data) - 10, len(data)):
        (tmp_path / "trunc").write_bytes(data[:-cut])
        with pytest.raises(WeightFormatError):
            load_weights(tmp_path / "trunc")

    for tail in (b"\x00\x00", b"\x00" * 4, data[24:]):
        (tmp_path / "trail").write_bytes(data + tail)
        with pytest.raises(WeightFormatError):
            load_weights(tmp_path / "trail")


def fvwt_header(cfg):
    return struct.pack(_HEADER_FMT, b"FVWT", 1, _VARIANT_CODES[cfg.variant], cfg.depth,
                       cfg.heads, cfg.dim, cfg.n_patches, cfg.head_dim, cfg.mlp_width,
                       cfg.out_dim)


def body_bytes(cfg):
    shapes = {**param_shapes(cfg), **buffer_shapes(cfg)}
    return 4 * sum(math.prod(shape) for shape in shapes.values())


def peak_bytes(fn):
    """tracemalloc's peak over one call of `fn`, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_bytes_of_rejected_load(path):
    def rejected():
        with pytest.raises(WeightFormatError):
            load_weights(path)
    return peak_bytes(rejected)


def test_wrong_size_rejected_before_the_body_is_read(tmp_path):
    nope = tmp_path / "nope"
    with open(nope, "wb") as fh:
        fh.write(b"NOPE")
        fh.truncate(64 << 20)  # sparse
    cfg = toy_cfg(depth=1, dim=256, n_patches=64, out_dim=256)
    short = tmp_path / "short"
    with open(short, "wb") as fh:
        fh.write(fvwt_header(cfg))
        fh.truncate(_HEADER_SIZE + body_bytes(cfg) - 4)
    assert body_bytes(cfg) > 32 << 20
    assert peak_bytes_of_rejected_load(nope) < 1 << 20
    assert peak_bytes_of_rejected_load(short) < 1 << 20


@pytest.mark.parametrize("field, value", [("depth", 0), ("heads", 3), ("dim", 0), ("n_patches", 0),
                                          ("head_dim", 0), ("mlp_width", 0), ("out_dim", 0)])
def test_header_with_an_invalid_dimension_names_the_file_and_field(tmp_path, field, value):
    dims = dict(depth=1, heads=2, dim=16, n_patches=16, head_dim=8, mlp_width=64, out_dim=16)
    dims[field] = value
    path = tmp_path / "bad.fvwt"
    path.write_bytes(struct.pack(_HEADER_FMT, b"FVWT", 1, _VARIANT_CODES[Variant.H2L],
                                 *dims.values()) + bytes(64))
    with pytest.raises(WeightFormatError, match=re.escape(f"{path}: {field} must be")):
        load_weights(path)
    with pytest.raises(ValueError, match=f"{field} must be"):
        ModelConfig(Variant.H2L, **dims)


@pytest.mark.parametrize("field, value", [("depth", 2**16), ("dim", 2**16), ("n_patches", 70000),
                                          ("head_dim", 2**16), ("mlp_width", 2**32),
                                          ("out_dim", 2**16)])
def test_config_rejects_a_dimension_its_header_field_cannot_hold(field, value):
    dims = dict(depth=1, heads=1, dim=8, n_patches=4, head_dim=8, mlp_width=8, out_dim=8)
    dims[field] = value
    limit = 2**32 - 1 if field == "mlp_width" else 2**16 - 1
    with pytest.raises(ValueError, match=re.escape(f"{field} must be in [1, {limit}], got {value}")):
        ModelConfig(Variant.H2L, **dims)
    dims[field] = limit  # the largest value fits the header
    assert struct.pack(_HEADER_FMT, b"FVWT", 1, 2, *dims.values())


def test_header_describing_a_huge_body_rejected(tmp_path):
    cfg = ModelConfig(Variant.H2L, depth=1, heads=1, dim=60000, n_patches=60000,
                      head_dim=8, mlp_width=8, out_dim=8)
    assert body_bytes(cfg) > 2 << 30
    path = tmp_path / "huge"
    path.write_bytes(fvwt_header(cfg) + bytes(64))
    with pytest.raises(WeightFormatError):
        load_weights(path)


def test_save_checks_buffer_shapes(tmp_path):
    w = init_random(toy_cfg(depth=1), 0)
    w.buffers["head.bn1_var"] = np.ones(w.config.out_dim + 1)
    with pytest.raises(ValueError):
        save_weights(w, tmp_path / "w.fvwt")
    assert not list(tmp_path.iterdir())


def test_params_to_tensors_requires_grad_flag():
    w = init_random(toy_cfg(depth=1), 0)
    p = params_to_tensors(w)
    assert not any(t.requires_grad for t in p.values())
    assert all(p[k].value is v for k, v in w.params.items())
