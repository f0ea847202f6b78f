"""Input validation helpers shared by the scheduling and simulation layers.

All validators raise :class:`ValueError` (never assert) so that misuse of
the public API fails loudly in optimized runs too.
"""

from __future__ import annotations

import numpy as np

#: Absolute tolerance for "is this demand fully drained" style comparisons,
#: in Mb.  One kilobit of residual demand is far below anything the paper's
#: workloads can distinguish.
VOLUME_TOL: float = 1e-9


def check_positive(name: str, value: float) -> float:
    """Validate that ``value`` is a finite, strictly positive scalar."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Validate that ``value`` is a finite, non-negative scalar."""
    value = float(value)
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value}")
    return value


def check_demand_matrix(demand: np.ndarray, *, square: bool = True) -> np.ndarray:
    """Validate and canonicalize a demand matrix.

    Returns a C-contiguous float64 copy so callers may mutate it freely.

    Parameters
    ----------
    demand:
        2-D array of non-negative, finite demand volumes (Mb).
    square:
        Require the matrix to be square (the switch model is n×n).
    """
    arr = np.asarray(demand, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"demand matrix must be 2-D, got shape {arr.shape}")
    if square and arr.shape[0] != arr.shape[1]:
        raise ValueError(f"demand matrix must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("demand matrix must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("demand matrix contains non-finite entries")
    if np.any(arr < 0):
        raise ValueError("demand matrix contains negative entries")
    # np.array copies exactly once; the previous ascontiguousarray().copy()
    # chain copied twice whenever the input was not already a C-contiguous
    # float64 array.
    return np.array(arr, dtype=np.float64, order="C")


def check_permutation(perm: np.ndarray, *, partial: bool = True) -> np.ndarray:
    """Validate a (possibly partial) permutation matrix.

    A permutation matrix here is a 0/1 square matrix with at most one 1 per
    row and per column; with ``partial=False`` exactly one per row/column is
    required.  Returns it as a C-contiguous int8 matrix.
    """
    return permutation_matching(perm, partial=partial)[0]


def permutation_matching(
    perm: np.ndarray, *, partial: bool = True
) -> "tuple[np.ndarray, np.ndarray]":
    """Validate a permutation matrix and return it with its matching.

    The matrix comes back as in :func:`check_permutation`.  The *matching*
    is an ``(m,)`` int64 array whose entry ``i`` is the column of row
    ``i``'s 1, or -1 for an empty row.  One scan over the matrix finds the
    nonzeros; checking them and deriving the matching costs O(nonzeros).
    """
    arr = np.asarray(perm)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"permutation must be square 2-D, got shape {arr.shape}")
    m = arr.shape[0]
    keys = np.flatnonzero(arr)
    if (arr.flat[keys] != 1).any():  # negative, fractional and NaN entries
        raise ValueError("permutation entries must be 0 or 1")
    # Row-major keys: a row used twice repeats a neighbour's row.
    rows = keys // max(m, 1)
    cols = keys - rows * m
    repeated = (np.diff(rows) == 0).any() or (np.bincount(cols, minlength=m) > 1).any()
    if partial:
        if repeated:
            raise ValueError("partial permutation has a row or column with >1 entry")
    elif repeated or keys.size != m:
        raise ValueError("full permutation must have exactly one entry per row/column")
    matching = np.full(m, -1, dtype=np.int64)
    matching[rows] = cols
    return np.ascontiguousarray(arr, dtype=np.int8), matching
