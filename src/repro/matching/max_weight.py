"""Maximum-weight perfect matching on a dense weight matrix.

Eclipse's greedy step needs, for each candidate circuit duration α, the
permutation ``M`` maximizing ``sum_{(i,j) in M} min(D_ij, α·Co)``.  That is
a maximum-weight perfect-matching (assignment) problem on an n×n matrix of
non-negative weights.

The default implementation delegates to
:func:`scipy.optimize.linear_sum_assignment` (Jonker–Volgenant, O(n^3)).
A pure-Python Hungarian implementation (``use_scipy=False``) is kept as a
test oracle for the scipy path.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


def max_weight_matching(weights: np.ndarray, *, use_scipy: bool = True) -> "tuple[np.ndarray, float]":
    """Maximum-weight perfect matching of a square weight matrix.

    Parameters
    ----------
    weights:
        n×n array of finite weights (negative weights are allowed; zero
        weight simply contributes nothing).
    use_scipy:
        Use the scipy assignment solver (default).  ``False`` forces the
        pure-Python Hungarian implementation (slower; used in tests).

    Returns
    -------
    assignment, value:
        ``assignment[i]`` is the column matched to row ``i``;
        ``value`` is the total matched weight.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weight matrix must be square, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight matrix contains non-finite entries")
    if use_scipy:
        rows, cols = linear_sum_assignment(w, maximize=True)
        assignment = np.empty(w.shape[0], dtype=np.int64)
        assignment[rows] = cols
        value = float(w[rows, cols].sum())
        return assignment, value
    return _hungarian(w)


def _hungarian(weights: np.ndarray) -> "tuple[np.ndarray, float]":
    """Pure-Python O(n^3) Hungarian algorithm (maximization form).

    Classic shortest-augmenting-path formulation with potentials, written
    for minimization of ``-weights``.
    """
    n = weights.shape[0]
    cost = -weights  # minimize
    inf = float("inf")
    # Potentials and matching use 1-based auxiliary arrays per the classic
    # formulation; p[j] is the row matched to column j.
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)  # column -> row (1-based rows)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    assignment = np.empty(n, dtype=np.int64)
    for j in range(1, n + 1):
        assignment[p[j] - 1] = j - 1
    value = float(weights[np.arange(n), assignment].sum())
    return assignment, value
