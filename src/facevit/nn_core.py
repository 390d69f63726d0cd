"""Dense neural primitives: layer norm, multi-head attention, MLP, gradient checking.

Each primitive (suffix _t) takes and returns autodiff Tensors and computes in
the dtype of its inputs: float64 for training and gradient checks, float32 for
the re-ranking forward. A dense layer runs as one GEMM over all of a token
block's rows (see `Tensor.__matmul__`). Attention and the encoder layer also
take their input as a list of token blocks, so a block shared by a batch is
projected once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autograd import Tensor, concat, ensure_tensor, softmax as softmax_t


@dataclass
class LayerParams:
    """Parameters of one pre-norm encoder layer (attention + MLP)."""

    heads: int
    wq: np.ndarray  # D x D_inner, D_inner = heads * head_dim
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray  # D_inner x D
    bo: np.ndarray
    w1: np.ndarray  # D x m
    b1: np.ndarray
    w2: np.ndarray  # m x D
    b2: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray


# ---------------------------------------------------------------------------
# primitives (Tensor form)
# ---------------------------------------------------------------------------

def layer_norm_t(x: Tensor, gamma, beta, eps: float = 1e-6) -> Tensor:
    """Normalize each row (last axis) to zero mean / unit population variance."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = ensure_tensor(x)
    gamma = ensure_tensor(gamma)
    beta = ensure_tensor(beta)
    if gamma.value.shape[-1] != x.value.shape[-1] or beta.value.shape[-1] != x.value.shape[-1]:
        raise ValueError("layer_norm parameter length must match feature dimension")
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gamma + beta


def mlp_block_t(x: Tensor, p: LayerParams) -> Tensor:
    """Affine -> GELU -> affine, applied row-wise."""
    x = ensure_tensor(x)
    w1 = ensure_tensor(p.w1)
    if x.value.shape[-1] != w1.value.shape[0]:
        raise ValueError("mlp_block input dimension mismatch")
    h = (x @ w1 + ensure_tensor(p.b1)).gelu()
    return h @ ensure_tensor(p.w2) + ensure_tensor(p.b2)


def _token_blocks(tokens) -> list[Tensor]:
    return [ensure_tensor(b) for b in (tokens if isinstance(tokens, (list, tuple)) else [tokens])]


def multi_head_attention_t(tokens, p: LayerParams) -> tuple[Tensor, np.ndarray]:
    """Scaled-dot-product attention over (..., T, D) tokens.

    `tokens` is one Tensor or a list of blocks that join along the token axis,
    their other axes broadcasting as in `concat`. Q, K and V are projected
    block by block, so a block of batch size 1 is projected once for the
    whole batch.

    Returns the projected output and the per-head attention maps
    (..., heads, T, T) as plain arrays for the explainer.
    """
    blocks = _token_blocks(tokens)
    wq = ensure_tensor(p.wq)
    d_inner = wq.value.shape[1]
    if d_inner % p.heads != 0:
        raise ValueError("attention inner dim must be divisible by head count")
    if any(b.value.shape[-1] != wq.value.shape[0] for b in blocks):
        raise ValueError("attention input dimension mismatch")
    d_h = d_inner // p.heads

    def project(w, bias) -> Tensor:
        w, bias = ensure_tensor(w), ensure_tensor(bias)
        return concat([b @ w + bias for b in blocks], axis=-2)

    q = project(wq, p.bq)
    lead, t_len = q.shape[:-2], q.shape[-2]

    def split_heads(x: Tensor) -> Tensor:
        return x.reshape(lead + (t_len, p.heads, d_h)).swapaxes(-3, -2)

    q = split_heads(q)
    k = split_heads(project(p.wk, p.bk))
    v = split_heads(project(p.wv, p.bv))

    scores = (q @ k.swapaxes(-1, -2)) * float(1.0 / np.sqrt(d_h))
    attn = softmax_t(scores, axis=-1)
    mixed = attn @ v  # (..., heads, T, d_h)
    merged = mixed.swapaxes(-3, -2).reshape(lead + (t_len, d_inner))
    out = merged @ ensure_tensor(p.wo) + ensure_tensor(p.bo)
    return out, attn.value


def encoder_layer_t(z, p: LayerParams, eps: float = 1e-6) -> tuple[Tensor, np.ndarray]:
    """Pre-norm block with residuals on both sub-layers. `z` is one Tensor or
    a list of token blocks, as `multi_head_attention_t` takes; layer norm
    runs per block, and the output is one (..., T, D) Tensor. Blocks of equal
    leading shape share nothing, so they are joined first: one block per op
    costs less in Python than two."""
    blocks = _token_blocks(z)
    if len({b.shape[:-2] for b in blocks}) == 1:
        blocks = [concat(blocks, axis=-2)]
    normed = [layer_norm_t(b, p.ln1_g, p.ln1_b, eps) for b in blocks]
    attn_out, attn = multi_head_attention_t(normed, p)
    z = concat(blocks, axis=-2) + attn_out
    z = z + mlp_block_t(layer_norm_t(z, p.ln2_g, p.ln2_b, eps), p)
    return z, attn


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

GradFn = Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]]


def grad_check(
    f: GradFn,
    theta: dict[str, np.ndarray],
    h: float = 1e-5,
    n_directions: int = 24,
    seed: int = 0,
) -> float:
    """Max relative error between f's reverse-mode gradient and central differences.

    Parameter sets of at most 1,024 values are probed coordinate by coordinate;
    larger ones along random unit directions. Denominators are guarded by
    max(|analytic|, |numeric|, 1e-8).
    """
    if not (1e-6 <= h <= 1e-4):
        raise ValueError("h must lie in [1e-6, 1e-4]")
    theta = {k: np.asarray(v, dtype=np.float64) for k, v in theta.items()}
    loss0, grads = f(theta)
    if not np.isfinite(loss0):
        raise ValueError("non-finite loss at theta")

    def probe(direction: dict[str, np.ndarray]) -> float:
        plus = {k: theta[k] + h * direction[k] for k in theta}
        minus = {k: theta[k] - h * direction[k] for k in theta}
        fp, _ = f(plus)
        fm, _ = f(minus)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("non-finite loss at finite-difference probe point")
        return (fp - fm) / (2.0 * h)

    total = sum(v.size for v in theta.values())
    max_err = 0.0
    if total <= 1024:
        for name, arr in theta.items():
            for idx in np.ndindex(arr.shape):
                direction = {k: np.zeros_like(v) for k, v in theta.items()}
                direction[name][idx] = 1.0
                numeric = probe(direction)
                analytic = float(grads[name][idx])
                denom = max(abs(analytic), abs(numeric), 1e-8)
                max_err = max(max_err, abs(analytic - numeric) / denom)
    else:
        rng = np.random.default_rng(seed)
        for _ in range(n_directions):
            direction = {k: rng.standard_normal(v.shape) for k, v in theta.items()}
            norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
            direction = {k: d / norm for k, d in direction.items()}
            numeric = probe(direction)
            analytic = sum(float((grads[k] * direction[k]).sum()) for k in theta)
            denom = max(abs(analytic), abs(numeric), 1e-8)
            max_err = max(max_err, abs(analytic - numeric) / denom)
    return max_err
