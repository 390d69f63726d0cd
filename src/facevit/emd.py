"""Patch-wise optimal-transport similarity (the EMD re-ranking baseline).

Entropic-regularized OT solved by log-domain Sinkhorn iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .records import FaceRecord

_WEIGHT_FLOOR = 1e-4
_CHECK_EVERY = 5  # Sinkhorn iterations between convergence checks


class WeightScheme(Enum):
    UNIFORM = "uniform"
    CROSS_CORRELATION = "cross_correlation"


class SinkhornError(Exception):
    pass


@dataclass
class FlowProblem:
    cost: np.ndarray  # (n, n), entries in [0, 2]
    u: np.ndarray     # row marginal, sums to 1
    v: np.ndarray     # column marginal, sums to 1

    def __post_init__(self):
        self.cost = np.asarray(self.cost, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        n, m = self.cost.shape
        if n != m or self.u.shape != (n,) or self.v.shape != (n,):
            raise ValueError("cost must be square with matching marginals")
        if not all(np.isfinite(x).all() for x in (self.cost, self.u, self.v)):
            raise ValueError("cost and marginals must be finite")  # NaN passes the checks below
        if self.cost.min() < -1e-9 or self.cost.max() > 2 + 1e-9:
            raise ValueError("cost entries must lie in [0, 2]")
        if np.any(self.u < 0) or np.any(self.v < 0):
            raise ValueError("marginals must be non-negative")
        if abs(self.u.sum() - 1) > 1e-9 or abs(self.v.sum() - 1) > 1e-9:
            raise ValueError("marginals must sum to 1")

    @property
    def n(self) -> int:
        return self.cost.shape[0]


@dataclass
class SinkhornResult:
    flow: np.ndarray
    distance: float
    iterations: int
    converged: bool
    marginal_error: float


def check_sinkhorn_settings(eps: float, tol: float, max_iters: int,
                            fixed_iters: int | None) -> None:
    """Raises `ValueError` for settings `sinkhorn` cannot run with."""
    if not (1e-3 <= eps <= 1.0):
        raise ValueError("eps must lie in [1e-3, 1]")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if fixed_iters is not None and fixed_iters < 1:
        raise ValueError("fixed_iters must be at least 1")


def sinkhorn(
    fp: FlowProblem,
    eps: float = 0.01,
    max_iters: int = 500,
    tol: float = 1e-6,
    fixed_iters: int | None = None,
) -> SinkhornResult:
    """Log-domain Sinkhorn. Alternates the two potential updates until both
    marginal L1 violations drop below tol, or for exactly `fixed_iters`
    iterations when that is given (benchmark mode, no convergence checks).
    """
    check_sinkhorn_settings(eps, tol, max_iters, fixed_iters)
    cost, u, v = fp.cost, fp.u, fp.v
    if np.any(u == 0) or np.any(v == 0):
        raise ValueError("sinkhorn requires strictly positive marginals")
    n = fp.n
    log_u, log_v = np.log(u), np.log(v)
    c_over_eps = cost / eps
    f = np.zeros(n)
    g = np.zeros(n)

    def plan() -> np.ndarray:
        return np.exp((f[:, None] + g[None, :]) / eps - c_over_eps)

    n_iters = fixed_iters if fixed_iters is not None else max_iters
    converged = False
    it = 0
    for it in range(1, n_iters + 1):
        m = g[None, :] / eps - c_over_eps
        mx = m.max(axis=1)
        f = eps * (log_u - np.log(np.exp(m - mx[:, None]).sum(axis=1)) - mx)
        m = f[:, None] / eps - c_over_eps
        mx = m.max(axis=0)
        g = eps * (log_v - np.log(np.exp(m - mx[None, :]).sum(axis=0)) - mx)
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
            raise SinkhornError("non-finite scaling potentials")
        if fixed_iters is None and (it % _CHECK_EVERY == 0 or it == n_iters):
            p = plan()
            err = np.abs(p.sum(axis=1) - u).sum() + np.abs(p.sum(axis=0) - v).sum()
            if err < tol:
                converged = True
                break

    p = plan()
    if not np.all(np.isfinite(p)):
        raise SinkhornError("non-finite transport plan")
    err = float(np.abs(p.sum(axis=1) - u).sum() + np.abs(p.sum(axis=0) - v).sum())
    if fixed_iters is not None:
        converged = True  # fixed-budget mode has no convergence notion
    return SinkhornResult(p, float((p * cost).sum()), it, converged, err)


# ---------------------------------------------------------------------------
# patch-set similarity
# ---------------------------------------------------------------------------

def _unit_rows(x: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if not np.all((norms > 0) & (norms < np.inf)):  # a finite row near 1e200 overflows it
        raise ValueError(f"zero-norm or overflowing {what}")
    return x / norms


def patch_cost_matrix(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """c_ij = 1 - cosine(pa_i, pb_j) over two f64 (n, D) patch arrays,
    clipped into [0, 2]."""
    na = _unit_rows(pa, "patch in first record")
    nb = _unit_rows(pb, "patch in second record")
    return np.clip(1.0 - na @ nb.T, 0.0, 2.0)


def marginal_weights(pa: np.ndarray, pb: np.ndarray,
                     scheme: WeightScheme) -> tuple[np.ndarray, np.ndarray]:
    """Marginals over the rows of two f64 (n, D) patch arrays."""
    n = pa.shape[0]
    if scheme is WeightScheme.UNIFORM:
        w = np.full(n, 1.0 / n)
        return w, w.copy()
    # cross-correlation: weight each patch by its (rectified) dot product with
    # the other image's average-pooled feature, floored to stay positive
    u = np.maximum(0.0, pa @ pb.mean(axis=0)) + _WEIGHT_FLOOR
    v = np.maximum(0.0, pb @ pa.mean(axis=0)) + _WEIGHT_FLOOR
    return u / u.sum(), v / v.sum()


def build_flow_problem(a: FaceRecord, b: FaceRecord,
                       scheme: WeightScheme = WeightScheme.CROSS_CORRELATION) -> FlowProblem:
    pa = np.asarray(a.patches, dtype=np.float64)
    pb = np.asarray(b.patches, dtype=np.float64)
    u, v = marginal_weights(pa, pb, scheme)
    return FlowProblem(patch_cost_matrix(pa, pb), u, v)

