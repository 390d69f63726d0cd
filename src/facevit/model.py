"""The 2-image cross-attention transformer (H2L) and its ablation variants.

Token layout for the 2-image variants: index 0 = CLS, 1..P^2 = image a,
P^2+1 = SEP, P^2+2 .. 2P^2+1 = image b. Every incoming token (including CLS
and SEP) is multiplied by the learnable projection E before positional
embeddings are added.

One forward serves every caller. `h2l_features` runs on autodiff Tensors and
is its encoder part followed by its head part: the trainer and the gradient
checks run it in float64 with gradients, and `score_pair_h2l` runs it in
float64 as the reference. `H2LScorer` runs the same two parts in float32
without gradients, on the f32 blocks `load_weights` reads, to re-rank a query
against a shortlist: the encoder part over blocks of candidates, with the
query at batch size 1 so that its tokens are built once per block, and the
head part once over the whole shortlist.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .autograd import Tensor, concat
from .nn_core import LayerParams, encoder_layer_t, layer_norm_t
from .records import FaceRecord, atomic_write

_WEIGHT_MAGIC = b"FVWT"
_HEADER_FMT = "<4sHBHHHHHIH"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_LN_EPS = 1e-6
_BN_EPS = 1e-5

_ALLOWED_HEADS = (1, 2, 4, 6, 8)
# token rows per H2LScorer encoder block; each MLP temporary is rows x mlp_width
_SCORE_BLOCK_ROWS = 1024
# score_pair_h2l leaves these in their dtype: numpy promotes each exactly
# inside its one matmul, so one f64 copy of a head matrix is alive at a time
_HEAD_MATRICES = ("head.lin1_w", "head.lin2_w")


class Variant(Enum):
    H1 = "h1"
    H2 = "h2"
    H2L = "h2l"


class VariantError(ValueError):
    pass


class WeightFormatError(ValueError):
    pass


@dataclass
class ModelConfig:
    variant: Variant
    depth: int
    heads: int
    dim: int = 512
    n_patches: int = 64
    head_dim: int | None = None
    mlp_width: int | None = None
    out_dim: int = 512

    def __post_init__(self):
        if self.heads not in _ALLOWED_HEADS:
            raise ValueError(f"heads must be one of {_ALLOWED_HEADS}")
        if self.head_dim is None:
            self.head_dim = self.dim // self.heads
        if self.mlp_width is None:
            self.mlp_width = 4 * self.dim
        # the limits of the FVWT header fields: u32 for mlp_width, u16 for the rest
        for name in ("depth", "dim", "n_patches", "head_dim", "mlp_width", "out_dim"):
            value, limit = getattr(self, name), 2**32 - 1 if name == "mlp_width" else 2**16 - 1
            if not 1 <= value <= limit:
                raise ValueError(f"{name} must be in [1, {limit}], got {value}")

    @property
    def inner_dim(self) -> int:
        return self.heads * self.head_dim

    @property
    def seq_len(self) -> int:
        if self.variant is Variant.H1:
            return self.n_patches + 1
        return 2 * self.n_patches + 2


@dataclass
class ModelWeights:
    config: ModelConfig
    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# parameter layout
# ---------------------------------------------------------------------------

_LAYER_FIELDS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                 "w1", "b1", "w2", "b2", "ln1_g", "ln1_b", "ln2_g", "ln2_b")


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, di, m = cfg.dim, cfg.inner_dim, cfg.mlp_width
    shapes: dict[str, tuple[int, ...]] = {
        "token_proj": (d, d),
        "cls_token": (d,),
        "pos_embed": (cfg.seq_len, d),
    }
    if cfg.variant is not Variant.H1:
        shapes["sep_token"] = (d,)
    for i in range(cfg.depth):
        pre = f"layers.{i}."
        shapes.update({
            pre + "wq": (d, di), pre + "bq": (di,),
            pre + "wk": (d, di), pre + "bk": (di,),
            pre + "wv": (d, di), pre + "bv": (di,),
            pre + "wo": (di, d), pre + "bo": (d,),
            pre + "w1": (d, m), pre + "b1": (m,),
            pre + "w2": (m, d), pre + "b2": (d,),
            pre + "ln1_g": (d,), pre + "ln1_b": (d,),
            pre + "ln2_g": (d,), pre + "ln2_b": (d,),
        })
    if cfg.variant is Variant.H2L:
        flat = cfg.n_patches * d
        shapes.update({
            "head.lin1_w": (flat, cfg.out_dim), "head.lin1_b": (cfg.out_dim,),
            "head.lin2_w": (flat, cfg.out_dim), "head.lin2_b": (cfg.out_dim,),
            "head.bn1_g": (cfg.out_dim,), "head.bn1_b": (cfg.out_dim,),
            "head.bn2_g": (cfg.out_dim,), "head.bn2_b": (cfg.out_dim,),
            "head.ln_g": (cfg.out_dim,), "head.ln_b": (cfg.out_dim,),
        })
    elif cfg.variant is Variant.H2:
        shapes.update({
            "head.ln_g": (d,), "head.ln_b": (d,),
            "head.fc_w": (d, 2), "head.fc_b": (2,),
        })
    else:
        shapes.update({"head.ln_g": (d,), "head.ln_b": (d,)})
    return shapes


def buffer_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    if cfg.variant is not Variant.H2L:
        return {}
    o = (cfg.out_dim,)
    return {"head.bn1_mean": o, "head.bn1_var": o, "head.bn2_mean": o, "head.bn2_var": o}


def _trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return np.clip(rng.normal(0.0, 0.02, size=shape), -0.04, 0.04)


def init_random(cfg: ModelConfig, seed: int) -> ModelWeights:
    """Deterministic init: near-identity token projection, truncated-normal
    embeddings, fan-in uniform affine maps. Values are rounded to f32
    precision so that weight files round-trip exactly."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if name == "token_proj":
            arr = np.eye(cfg.dim) + _trunc_normal(rng, shape)
        elif name in ("cls_token", "sep_token", "pos_embed"):
            arr = _trunc_normal(rng, shape)
        elif leaf.startswith(("ln1_g", "ln2_g", "ln_g", "bn1_g", "bn2_g")) or leaf in ("ln_g",):
            arr = np.ones(shape)
        elif leaf.startswith("b") or leaf.endswith("_b"):
            arr = np.zeros(shape)
        elif leaf.startswith("w") or leaf.endswith("_w"):
            bound = 1.0 / np.sqrt(shape[0])
            arr = rng.uniform(-bound, bound, size=shape)
        else:
            raise AssertionError(f"unhandled parameter {name}")
        params[name] = arr.astype(np.float32).astype(np.float64)
    buffers = {}
    for name, shape in buffer_shapes(cfg).items():
        buffers[name] = (np.ones(shape) if name.endswith("_var") else np.zeros(shape))
    return ModelWeights(cfg, params, buffers)


def cast_weights(w: ModelWeights, dtype, copy: bool = False, keep: tuple[str, ...] = ()) -> ModelWeights:
    """`w` with every block but those named in `keep` in `dtype`; a block
    already in it is shared unless `copy`, and a kept block is shared."""
    return ModelWeights(w.config,
                        {k: v if k in keep else v.astype(dtype, copy=copy) for k, v in w.params.items()},
                        {k: v.astype(dtype, copy=copy) for k, v in w.buffers.items()})


def params_to_tensors(w: ModelWeights) -> dict[str, Tensor]:
    return {k: Tensor(v) for k, v in w.params.items()}


def layer_tensors(p: dict[str, Tensor], i: int, heads: int) -> LayerParams:
    pre = f"layers.{i}."
    return LayerParams(heads=heads, **{f: p[pre + f] for f in _LAYER_FIELDS})


# ---------------------------------------------------------------------------
# autodiff forward
# ---------------------------------------------------------------------------

def _require_variant(cfg: ModelConfig, variant: Variant) -> None:
    if cfg.variant is not variant:
        raise VariantError(f"operation requires variant {variant.value}, got {cfg.variant.value}")


def _check_patches(r: FaceRecord, cfg: ModelConfig) -> None:
    if r.patches.shape != (cfg.n_patches, cfg.dim):
        raise ValueError(f"record patches {r.patches.shape} do not match model "
                         f"({cfg.n_patches}, {cfg.dim})")


def assemble_tokens_batch(
    patches_a: np.ndarray,  # (B_a, P^2, D)
    patches_b: np.ndarray,  # (B_b, P^2, D)
    p: dict[str, Tensor],
    cfg: ModelConfig,
    add_pos: bool = True,
) -> tuple[Tensor, Tensor]:
    """The token sequence as two blocks: `[CLS, a, SEP]` at image a's batch
    size and `b` at image b's, each with its slice of the positional
    embedding. With B_a = 1 the query's tokens are built once for all B_b
    candidates; `_encode` broadcasts them."""
    e = p["token_proj"]
    n = cfg.n_patches

    def row(name: str) -> Tensor:
        return (p[name] @ e).reshape(1, 1, cfg.dim)

    za = concat([row("cls_token"), Tensor(patches_a) @ e, row("sep_token")], axis=1)
    zb = Tensor(patches_b) @ e
    if add_pos:
        za = za + p["pos_embed"][:n + 2]
        zb = zb + p["pos_embed"][n + 2:]
    return za, zb


def _encode(z, p: dict[str, Tensor], cfg: ModelConfig) -> tuple[Tensor, list[np.ndarray]]:
    """The encoder layers; `z` is a Tensor or the first layer's token blocks."""
    attns = []
    for i in range(cfg.depth):
        z, attn = encoder_layer_t(z, layer_tensors(p, i, cfg.heads), _LN_EPS)
        attns.append(attn)
    return z, attns


def _batch_norm_t(x: Tensor, gamma: Tensor, beta: Tensor, mean: np.ndarray, var: np.ndarray,
                  mode: str, buffers: dict[str, np.ndarray] | None = None,
                  names: tuple[str, str] | None = None) -> Tensor:
    """Per-feature affine normalization. mode='running' uses frozen statistics
    (well-defined at batch size 1); mode='batch' uses batch statistics and,
    when buffers/names are given, updates the running ones with momentum 0.1."""
    if mode == "running":
        centered = x - Tensor(mean)
        scaled = centered / Tensor(np.sqrt(var + _BN_EPS))
    elif mode == "batch":
        mu = x.mean(axis=0, keepdims=True)
        centered = x - mu
        batch_var = (centered * centered).mean(axis=0, keepdims=True)
        scaled = centered / (batch_var + _BN_EPS).sqrt()
        if buffers is not None and names is not None:
            m_name, v_name = names
            buffers[m_name] = 0.9 * buffers[m_name] + 0.1 * mu.value[0]
            buffers[v_name] = 0.9 * buffers[v_name] + 0.1 * batch_var.value[0]
    else:
        raise ValueError(f"unknown batch-norm mode {mode!r}")
    return scaled * gamma + beta


def _h2l_encode(w: ModelWeights, patches_a: np.ndarray, patches_b: np.ndarray,
                p: dict[str, Tensor], add_pos: bool) -> tuple[Tensor, Tensor, list[np.ndarray]]:
    """The encoder part of the H2L forward: image a's and image b's token
    outputs as (B, P^2 * D) rows, and the attention maps."""
    cfg = w.config
    z, attns = _encode(assemble_tokens_batch(patches_a, patches_b, p, cfg, add_pos), p, cfg)
    n = cfg.n_patches
    batch = z.shape[0]
    z1 = z[:, 1:n + 1, :].reshape(batch, n * cfg.dim)
    z2 = z[:, n + 2:2 * n + 2, :].reshape(batch, n * cfg.dim)
    return z1, z2, attns


def _h2l_head(w: ModelWeights, z1: Tensor, z2: Tensor, p: dict[str, Tensor],
              bn_mode: str = "running", update_stats: bool = False) -> tuple[Tensor, Tensor]:
    """The head part of the H2L forward: per image, linear, batch norm, then
    the shared layer norm. Every op but batch-mode statistics is row-wise."""
    bufs = w.buffers if update_stats else None
    f1 = _batch_norm_t(z1 @ p["head.lin1_w"] + p["head.lin1_b"], p["head.bn1_g"], p["head.bn1_b"],
                       w.buffers["head.bn1_mean"], w.buffers["head.bn1_var"], bn_mode,
                       bufs, ("head.bn1_mean", "head.bn1_var"))
    f2 = _batch_norm_t(z2 @ p["head.lin2_w"] + p["head.lin2_b"], p["head.bn2_g"], p["head.bn2_b"],
                       w.buffers["head.bn2_mean"], w.buffers["head.bn2_var"], bn_mode,
                       bufs, ("head.bn2_mean", "head.bn2_var"))
    return (layer_norm_t(f1, p["head.ln_g"], p["head.ln_b"], _LN_EPS),
            layer_norm_t(f2, p["head.ln_g"], p["head.ln_b"], _LN_EPS))


def h2l_features(
    w: ModelWeights,
    patches_a: np.ndarray,
    patches_b: np.ndarray,
    p: dict[str, Tensor] | None = None,
    bn_mode: str = "running",
    update_stats: bool = False,
    add_pos: bool = True,
) -> tuple[Tensor, Tensor, list[np.ndarray]]:
    """Batched H2L forward: (B, P^2, D) patch blocks -> (f1, f2) feature
    batches. `patches_a` may instead be (1, P^2, D), one query against all B
    candidates, with the same result as that query repeated B times."""
    _require_variant(w.config, Variant.H2L)
    if p is None:
        p = params_to_tensors(w)
    z1, z2, attns = _h2l_encode(w, patches_a, patches_b, p, add_pos)
    f1, f2 = _h2l_head(w, z1, z2, p, bn_mode, update_stats)
    return f1, f2, attns


def row_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of each row of `a` with the same row of `b`."""
    return np.einsum("bi,bi->b", a, b) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine of zero-norm vector")
    return float(np.dot(u, v) / (nu * nv))


def score_pair_h2l(a: FaceRecord, b: FaceRecord, w: ModelWeights,
                   add_pos: bool = True) -> tuple[float, np.ndarray, np.ndarray]:
    """Pair similarity in [-1, 1] plus the two cross-attention features, in f64
    whatever the weights' dtype. f32 weights are upcast per call, except the
    two head matrices, which their matmuls promote exactly one at a time."""
    _check_patches(a, w.config)
    _check_patches(b, w.config)
    pa, pb = (np.asarray(r.patches[None], dtype=np.float64) for r in (a, b))
    f1, f2, _ = h2l_features(cast_weights(w, np.float64, keep=_HEAD_MATRICES), pa, pb, add_pos=add_pos)
    v1, v2 = f1.value[0], f2.value[0]
    if not (np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))):
        raise ValueError("non-finite activations in H2L forward")
    return cosine(v1, v2), v1, v2


def h2_logits_batch(w: ModelWeights, patches_a: np.ndarray, patches_b: np.ndarray,
                    p: dict[str, Tensor] | None = None) -> Tensor:
    cfg = w.config
    _require_variant(cfg, Variant.H2)
    if p is None:
        p = params_to_tensors(w)
    z, _ = _encode(assemble_tokens_batch(patches_a, patches_b, p, cfg), p, cfg)
    cls_out = layer_norm_t(z[:, 0, :], p["head.ln_g"], p["head.ln_b"], _LN_EPS)
    return cls_out @ p["head.fc_w"] + p["head.fc_b"]


def h1_embed_batch(w: ModelWeights, patches: np.ndarray,
                   p: dict[str, Tensor] | None = None) -> Tensor:
    cfg = w.config
    _require_variant(cfg, Variant.H1)
    if p is None:
        p = params_to_tensors(w)
    e = p["token_proj"]
    z0 = concat([(p["cls_token"] @ e).reshape(1, 1, cfg.dim), Tensor(patches) @ e], axis=1)
    z, _ = _encode(z0 + p["pos_embed"], p, cfg)
    return layer_norm_t(z[:, 0, :], p["head.ln_g"], p["head.ln_b"], _LN_EPS)


# ---------------------------------------------------------------------------
# batched re-ranking
# ---------------------------------------------------------------------------

class H2LScorer:
    """Forward-only H2L scoring of one query against gallery candidates
    through the two parts of `h2l_features`. The encoder part runs over
    blocks of about `_SCORE_BLOCK_ROWS` token rows and writes each block's
    outputs into two (k, P^2 * D) arrays; the head part then runs once over
    all k, so its GEMMs see the whole shortlist. The query goes in at batch
    size 1, so its tokens, their first layer norm and their Q/K/V are
    computed once per block rather than per candidate.

    Defaults to float32 compute: training and gradient checks stay float64,
    but this inference hot loop is GEMM-bound, one 2-D GEMM per dense layer
    per block; f32 roughly halves its wall-clock and takes the float32 erf in
    GELU, at a per-score error around 1e-7, far below the score gaps that
    matter for ranking. Weights already in `dtype` are shared, not copied;
    others are cast once, here."""

    def __init__(self, w: ModelWeights, add_pos: bool = True, dtype=np.float32):
        _require_variant(w.config, Variant.H2L)
        self.add_pos = add_pos
        self.dtype = np.dtype(dtype)
        self.w = cast_weights(w, self.dtype)
        self.p = params_to_tensors(self.w)

    def score_against(self, query: FaceRecord, candidates: list[tuple[int, FaceRecord]]) -> np.ndarray:
        """Scores of (query, candidate) pairs; candidates are (key, record)
        and the key is not used. A pair whose score is not finite (a record
        that overflows the f32 forward) scores NaN; the other pairs of the
        batch are unaffected, since the forward mixes no data across pairs."""
        cfg = self.w.config
        _check_patches(query, cfg)
        patches_a = query.patches[None].astype(self.dtype)
        k = len(candidates)
        # block sizes differ by at most one, and no block holds one candidate
        # when k >= 2: a block at the query's batch size takes the encoder's
        # joined-block path, whose scores differ in the last bits
        n_blocks = max(1, min(-(-k * cfg.seq_len // _SCORE_BLOCK_ROWS), k // 2))
        z1 = np.empty((k, cfg.n_patches * cfg.dim), dtype=self.dtype)
        z2 = np.empty_like(z1)
        # every non-finite score is returned as NaN, so the overflow and
        # invalid-value warnings on the way there carry no information
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n_blocks):
                lo, hi = k * i // n_blocks, k * (i + 1) // n_blocks
                patches_b = np.stack([rec.patches for _, rec in candidates[lo:hi]], dtype=self.dtype)
                b1, b2, _ = _h2l_encode(self.w, patches_a, patches_b, self.p, self.add_pos)
                z1[lo:hi], z2[lo:hi] = b1.value, b2.value
            f1, f2 = _h2l_head(self.w, Tensor(z1), Tensor(z2), self.p)
            f1, f2 = f1.value.astype(np.float64), f2.value.astype(np.float64)
            scores = row_cosine(f1, f2)
        return np.where(np.isfinite(scores), scores, np.nan)


# ---------------------------------------------------------------------------
# weight files
# ---------------------------------------------------------------------------

_VARIANT_CODES = {Variant.H1: 0, Variant.H2: 1, Variant.H2L: 2}
_CODE_VARIANTS = {v: k for k, v in _VARIANT_CODES.items()}


def _fvwt_body(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """FVWT body blocks in file order, little-endian f32: parameters, then buffers."""
    return {**param_shapes(cfg), **buffer_shapes(cfg)}


def save_weights(w: ModelWeights, path) -> None:
    cfg = w.config
    blocks = {**w.params, **w.buffers}
    with atomic_write(path) as fh:
        fh.write(struct.pack(
            _HEADER_FMT, _WEIGHT_MAGIC, 1, _VARIANT_CODES[cfg.variant], cfg.depth,
            cfg.heads, cfg.dim, cfg.n_patches, cfg.head_dim, cfg.mlp_width, cfg.out_dim))
        for name, shape in _fvwt_body(cfg).items():
            if blocks[name].shape != shape:
                raise ValueError(f"block {name} has shape {blocks[name].shape}, expected {shape}")
            fh.write(blocks[name].astype("<f4").tobytes())


def load_weights(path) -> ModelWeights:
    """Checks the file's size against the body its header describes before it
    allocates anything for the body, then reads the body in one call. Every
    block is an f32 view of that one body array; no two blocks overlap."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_SIZE)
        if len(head) < _HEADER_SIZE or head[:4] != _WEIGHT_MAGIC:
            raise WeightFormatError(f"{path}: not an FVWT file")
        _, version, vcode, *dims = struct.unpack(_HEADER_FMT, head)
        if version != 1:
            raise WeightFormatError(f"{path}: unsupported FVWT version {version}")
        if vcode not in _CODE_VARIANTS:
            raise WeightFormatError(f"{path}: unknown variant code {vcode}")
        try:
            cfg = ModelConfig(_CODE_VARIANTS[vcode], *dims)
        except ValueError as exc:
            raise WeightFormatError(f"{path}: {exc}") from exc
        layout = _fvwt_body(cfg)
        sizes = [math.prod(shape) for shape in layout.values()]
        count, size = sum(sizes), os.fstat(fh.fileno()).st_size
        if size != _HEADER_SIZE + 4 * count:
            raise WeightFormatError(f"{path}: {size} bytes, where the header describes "
                                    f"{_HEADER_SIZE + 4 * count}")
        flat = np.fromfile(fh, "<f4", count)
    if flat.size != count:
        raise WeightFormatError(f"{path}: truncated while reading the body")
    blocks = {name: part.reshape(shape)
              for (name, shape), part in zip(layout.items(), np.split(flat, np.cumsum(sizes)[:-1]))}
    buffers = {name: blocks.pop(name) for name in buffer_shapes(cfg)}
    return ModelWeights(cfg, blocks, buffers)
