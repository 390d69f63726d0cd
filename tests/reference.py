"""Reference implementations the tests compare the program against."""

import itertools

import numpy as np


def records_equal(a, b) -> bool:
    """Two record sets hold the same records, column by column."""
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("identities", "occlusion", "images", "patches"))


def exact_assignment_oracle(cost: np.ndarray) -> float:
    """Exact OT distance for uniform equal marginals by exhaustive permutation
    search (the optimum sits on a permutation); n <= 8 only."""
    cost = np.asarray(cost, dtype=np.float64)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise ValueError("cost must be square")
    if n > 8:
        raise ValueError("oracle limited to n <= 8")
    best = np.inf
    idx = np.arange(n)
    for perm in itertools.permutations(range(n)):
        total = cost[idx, perm].sum()
        if total < best:
            best = total
    return float(best / n)
