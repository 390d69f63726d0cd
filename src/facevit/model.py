"""The 2-image cross-attention transformer (H2L) and its ablation variants.

Token layout for the 2-image variants: index 0 = CLS, 1..P^2 = image a,
P^2+1 = SEP, P^2+2 .. 2P^2+1 = image b. Every incoming token (including CLS
and SEP) is multiplied by the learnable projection E before positional
embeddings are added.

One forward serves every caller. `h2l_features` runs on autodiff Tensors: the
trainer and the gradient checks run it in float64 with gradients, and
`H2LScorer` runs it in float32 without, to re-rank a query against a batch of
candidates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .autograd import Tensor, concat
from .nn_core import LayerParams, encoder_layer_t, layer_norm_t
from .records import FaceRecord

_WEIGHT_MAGIC = b"FVWT"
_HEADER_FMT = "<4sHBHHHHHIH"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_LN_EPS = 1e-6
_BN_EPS = 1e-5

_ALLOWED_HEADS = (1, 2, 4, 6, 8)


class Variant(Enum):
    H1 = "h1"
    H2 = "h2"
    H2L = "h2l"


class VariantError(ValueError):
    pass


class WeightFormatError(Exception):
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
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.heads not in _ALLOWED_HEADS:
            raise ValueError(f"heads must be one of {_ALLOWED_HEADS}")
        if self.head_dim is None:
            self.head_dim = self.dim // self.heads
        if self.mlp_width is None:
            self.mlp_width = 4 * self.dim

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


def _trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    return np.clip(rng.normal(0.0, std, size=shape), -2 * std, 2 * std)


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


def params_to_tensors(w: ModelWeights, requires_grad: bool = False) -> dict[str, Tensor]:
    return {k: Tensor(v, requires_grad=requires_grad) for k, v in w.params.items()}


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
    patches_a: np.ndarray,  # (B, P^2, D)
    patches_b: np.ndarray,
    p: dict[str, Tensor],
    cfg: ModelConfig,
    add_pos: bool = True,
) -> Tensor:
    e = p["token_proj"]
    batch = patches_a.shape[0]
    pa = Tensor(patches_a) @ e
    pb = Tensor(patches_b) @ e
    ones = Tensor(np.ones((batch, 1, 1), dtype=e.value.dtype))
    cls_row = ones * (p["cls_token"] @ e).reshape(1, 1, cfg.dim)
    sep_row = ones * (p["sep_token"] @ e).reshape(1, 1, cfg.dim)
    z0 = concat([cls_row, pa, sep_row, pb], axis=1)
    if add_pos:
        z0 = z0 + p["pos_embed"]
    return z0


def assemble_tokens(a: FaceRecord, b: FaceRecord, w: ModelWeights, add_pos: bool = True) -> np.ndarray:
    """Token matrix (2P^2+2) x D for one pair."""
    _check_patches(a, w.config)
    _check_patches(b, w.config)
    p = params_to_tensors(w)
    z0 = assemble_tokens_batch(a.patches[None], b.patches[None], p, w.config, add_pos)
    return z0.value[0]


def _encode(z: Tensor, p: dict[str, Tensor], cfg: ModelConfig) -> tuple[Tensor, list[np.ndarray]]:
    attns = []
    for i in range(cfg.depth):
        z, attn = encoder_layer_t(z, layer_tensors(p, i, cfg.heads), _LN_EPS)
        attns.append(attn)
    return z, attns


def _batch_norm_t(x: Tensor, gamma: Tensor, beta: Tensor, mean: np.ndarray, var: np.ndarray,
                  mode: str, buffers: dict[str, np.ndarray] | None = None,
                  names: tuple[str, str] | None = None, momentum: float = 0.1) -> Tensor:
    """Per-feature affine normalization. mode='running' uses frozen statistics
    (well-defined at batch size 1); mode='batch' uses batch statistics and,
    when buffers/names are given, updates the running ones with momentum."""
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
            buffers[m_name] = (1 - momentum) * buffers[m_name] + momentum * mu.value[0]
            buffers[v_name] = (1 - momentum) * buffers[v_name] + momentum * batch_var.value[0]
    else:
        raise ValueError(f"unknown batch-norm mode {mode!r}")
    return scaled * gamma + beta


def h2l_features(
    w: ModelWeights,
    patches_a: np.ndarray,
    patches_b: np.ndarray,
    p: dict[str, Tensor] | None = None,
    bn_mode: str = "running",
    update_stats: bool = False,
    add_pos: bool = True,
) -> tuple[Tensor, Tensor, list[np.ndarray]]:
    """Batched H2L forward: (B, P^2, D) patch blocks -> (f1, f2) feature batches."""
    cfg = w.config
    _require_variant(cfg, Variant.H2L)
    if p is None:
        p = params_to_tensors(w)
    z0 = assemble_tokens_batch(patches_a, patches_b, p, cfg, add_pos)
    z, attns = _encode(z0, p, cfg)
    n = cfg.n_patches
    batch = patches_a.shape[0]
    z1 = z[:, 1:n + 1, :].reshape(batch, n * cfg.dim)
    z2 = z[:, n + 2:2 * n + 2, :].reshape(batch, n * cfg.dim)
    bufs = w.buffers if update_stats else None
    f1 = _batch_norm_t(z1 @ p["head.lin1_w"] + p["head.lin1_b"], p["head.bn1_g"], p["head.bn1_b"],
                       w.buffers["head.bn1_mean"], w.buffers["head.bn1_var"], bn_mode,
                       bufs, ("head.bn1_mean", "head.bn1_var"))
    f2 = _batch_norm_t(z2 @ p["head.lin2_w"] + p["head.lin2_b"], p["head.bn2_g"], p["head.bn2_b"],
                       w.buffers["head.bn2_mean"], w.buffers["head.bn2_var"], bn_mode,
                       bufs, ("head.bn2_mean", "head.bn2_var"))
    f1 = layer_norm_t(f1, p["head.ln_g"], p["head.ln_b"], _LN_EPS)
    f2 = layer_norm_t(f2, p["head.ln_g"], p["head.ln_b"], _LN_EPS)
    return f1, f2, attns


def h2l_meanpool_features(
    w: ModelWeights, patches_a: np.ndarray, patches_b: np.ndarray, add_pos: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean-pooled per-block features; internal, used by the permutation
    invariance test only (the production head flattens)."""
    cfg = w.config
    _require_variant(cfg, Variant.H2L)
    p = params_to_tensors(w)
    z0 = assemble_tokens_batch(patches_a, patches_b, p, cfg, add_pos)
    z, _ = _encode(z0, p, cfg)
    n = cfg.n_patches
    return z.value[:, 1:n + 1, :].mean(axis=1), z.value[:, n + 2:, :].mean(axis=1)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine of zero-norm vector")
    return float(np.dot(u, v) / (nu * nv))


def score_pair_h2l(a: FaceRecord, b: FaceRecord, w: ModelWeights,
                   add_pos: bool = True) -> tuple[float, np.ndarray, np.ndarray]:
    """Pair similarity in [-1, 1] plus the two cross-attention features."""
    _check_patches(a, w.config)
    _check_patches(b, w.config)
    f1, f2, _ = h2l_features(w, a.patches[None], b.patches[None], add_pos=add_pos)
    v1, v2 = f1.value[0], f2.value[0]
    if not (np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))):
        raise ValueError("non-finite activations in H2L forward")
    return cosine(v1, v2), v1, v2


def h2_logits_batch(w: ModelWeights, patches_a: np.ndarray, patches_b: np.ndarray,
                    p: dict[str, Tensor] | None = None, add_pos: bool = True) -> Tensor:
    cfg = w.config
    _require_variant(cfg, Variant.H2)
    if p is None:
        p = params_to_tensors(w)
    z0 = assemble_tokens_batch(patches_a, patches_b, p, cfg, add_pos)
    z, _ = _encode(z0, p, cfg)
    cls_out = layer_norm_t(z[:, 0, :], p["head.ln_g"], p["head.ln_b"], _LN_EPS)
    return cls_out @ p["head.fc_w"] + p["head.fc_b"]


def score_pair_h2(a: FaceRecord, b: FaceRecord, w: ModelWeights) -> np.ndarray:
    """Same/different logits (2,) from the CLS output row."""
    _check_patches(a, w.config)
    _check_patches(b, w.config)
    logits = h2_logits_batch(w, a.patches[None], b.patches[None]).value[0]
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite activations in H2 forward")
    return logits


def h1_embed_batch(w: ModelWeights, patches: np.ndarray,
                   p: dict[str, Tensor] | None = None, add_pos: bool = True) -> Tensor:
    cfg = w.config
    _require_variant(cfg, Variant.H1)
    if p is None:
        p = params_to_tensors(w)
    e = p["token_proj"]
    batch = patches.shape[0]
    pa = Tensor(patches) @ e
    ones = Tensor(np.ones((batch, 1, 1), dtype=e.value.dtype))
    cls_row = ones * (p["cls_token"] @ e).reshape(1, 1, cfg.dim)
    z0 = concat([cls_row, pa], axis=1)
    if add_pos:
        z0 = z0 + p["pos_embed"]
    z, _ = _encode(z0, p, cfg)
    return layer_norm_t(z[:, 0, :], p["head.ln_g"], p["head.ln_b"], _LN_EPS)


def embed_single_h1(a: FaceRecord, w: ModelWeights) -> np.ndarray:
    """CLS output feature of the 1-image baseline."""
    _check_patches(a, w.config)
    out = h1_embed_batch(w, a.patches[None]).value[0]
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite activations in H1 forward")
    return out


# ---------------------------------------------------------------------------
# batched re-ranking
# ---------------------------------------------------------------------------

class H2LScorer:
    """Forward-only H2L scoring of one query against a batch of gallery
    candidates through `h2l_features`.

    Defaults to float32 compute: training and gradient checks stay float64,
    but this inference hot loop is GEMM-bound and f32 roughly halves its
    wall-clock at a per-score error around 1e-5, far below the score gaps
    that matter for ranking. The weights are cast once, here."""

    def __init__(self, w: ModelWeights, add_pos: bool = True, dtype=np.float32):
        _require_variant(w.config, Variant.H2L)
        self.add_pos = add_pos
        self.dtype = np.dtype(dtype)
        self.w = ModelWeights(w.config,
                              {k: v.astype(self.dtype) for k, v in w.params.items()},
                              {k: v.astype(self.dtype) for k, v in w.buffers.items()})
        self.p = params_to_tensors(self.w)

    def score_against(self, query: FaceRecord, candidates: list[tuple[int, FaceRecord]]) -> np.ndarray:
        """Scores of (query, candidate) pairs; candidates are (key, record)
        and the key is not used. A pair whose score is not finite (a record
        that overflows the f32 forward) scores NaN; the other pairs of the
        batch are unaffected, since the forward mixes no data across pairs."""
        cfg = self.w.config
        _check_patches(query, cfg)
        patches_b = np.stack([rec.patches for _, rec in candidates], dtype=self.dtype)
        patches_a = np.broadcast_to(query.patches.astype(self.dtype), patches_b.shape)
        # every non-finite score is returned as NaN, so the overflow and
        # invalid-value warnings on the way there carry no information
        with np.errstate(over="ignore", invalid="ignore"):
            f1, f2, _ = h2l_features(self.w, patches_a, patches_b, p=self.p, add_pos=self.add_pos)
            f1, f2 = f1.value.astype(np.float64), f2.value.astype(np.float64)
            scores = np.einsum("bi,bi->b", f1, f2) / (np.linalg.norm(f1, axis=1) * np.linalg.norm(f2, axis=1))
        return np.where(np.isfinite(scores), scores, np.nan)


# ---------------------------------------------------------------------------
# weight files
# ---------------------------------------------------------------------------

_VARIANT_CODES = {Variant.H1: 0, Variant.H2: 1, Variant.H2L: 2}
_CODE_VARIANTS = {v: k for k, v in _VARIANT_CODES.items()}


def save_weights(w: ModelWeights, path) -> None:
    cfg = w.config
    header = struct.pack(
        _HEADER_FMT, _WEIGHT_MAGIC, 1, _VARIANT_CODES[cfg.variant], cfg.depth,
        cfg.heads, cfg.dim, cfg.n_patches, cfg.head_dim, cfg.mlp_width, cfg.out_dim)
    chunks = [header]
    for name, shape in param_shapes(cfg).items():
        arr = w.params[name]
        if arr.shape != shape:
            raise ValueError(f"parameter {name} has shape {arr.shape}, expected {shape}")
        chunks.append(arr.astype("<f4").tobytes())
    for name, shape in buffer_shapes(cfg).items():
        chunks.append(w.buffers[name].astype("<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_weights(path, expect: ModelConfig | None = None) -> ModelWeights:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER_SIZE or data[:4] != _WEIGHT_MAGIC:
        raise WeightFormatError(f"{path}: not an FVWT file")
    magic, version, vcode, depth, heads, dim, n_patches, head_dim, mlp_width, out_dim = \
        struct.unpack(_HEADER_FMT, data[:_HEADER_SIZE])
    if version != 1:
        raise WeightFormatError(f"{path}: unsupported FVWT version {version}")
    if vcode not in _CODE_VARIANTS:
        raise WeightFormatError(f"{path}: unknown variant code {vcode}")
    cfg = ModelConfig(_CODE_VARIANTS[vcode], depth, heads, dim, n_patches, head_dim,
                      mlp_width, out_dim)
    if expect is not None and cfg != expect:
        raise WeightFormatError(f"{path}: weight header {cfg} does not match expected {expect}")
    off = _HEADER_SIZE
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        size = 4 * int(np.prod(shape))
        if off + size > len(data):
            raise WeightFormatError(f"{path}: truncated parameter block {name}")
        params[name] = np.frombuffer(data[off:off + size], dtype="<f4").astype(np.float64).reshape(shape)
        off += size
    buffers: dict[str, np.ndarray] = {}
    for name, shape in buffer_shapes(cfg).items():
        size = 4 * int(np.prod(shape))
        if off + size > len(data):
            raise WeightFormatError(f"{path}: truncated buffer block {name}")
        buffers[name] = np.frombuffer(data[off:off + size], dtype="<f4").astype(np.float64).reshape(shape)
        off += size
    if off != len(data):
        raise WeightFormatError(f"{path}: {len(data) - off} trailing bytes")
    return ModelWeights(cfg, params, buffers)
