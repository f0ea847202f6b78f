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


def check_matching(matching: np.ndarray, n: "int | None" = None) -> np.ndarray:
    """Validate a matching and return a read-only int64 copy of it.

    A *matching* holds one OCS configuration's circuits: entry ``i`` is the
    output port input ``i``'s circuit reaches, or -1 if input ``i`` has no
    circuit.  It must be a 1-D integer array, of shape ``(n,)`` when ``n``
    is given, with values in ``[-1, n)`` and no output used twice.  O(n).
    """
    arr = np.asarray(matching)
    if arr.ndim != 1 or (n is not None and arr.shape[0] != n):
        expected = "1-D" if n is None else f"({n},)"
        raise ValueError(f"matching has shape {arr.shape}, expected {expected}")
    n = arr.shape[0]
    if arr.dtype.kind not in "iu":
        raise ValueError(f"matching must be integers, got dtype {arr.dtype}")
    if n and (arr.min() < -1 or arr.max() >= n):
        raise ValueError(f"matching must map each input to an output in [0, {n}) or -1")
    copy = np.array(arr, dtype=np.int64)
    # Shifted by one, "no circuit" counts in bin 0.
    if n and np.bincount(copy + 1, minlength=n + 1)[1:].max() > 1:
        raise ValueError("matching connects an output more than once")
    copy.setflags(write=False)
    return copy


def matching_from_permutation(perm: np.ndarray) -> np.ndarray:
    """The matching of a (possibly partial) permutation matrix.

    A permutation matrix here is a square 0/1 matrix (any numeric or
    boolean dtype) with at most one 1 per row and per column.  Returns its
    circuits as in :func:`check_matching`: entry ``i`` is the column of row
    ``i``'s 1, or -1 for an empty row.
    """
    arr = np.asarray(perm)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"permutation must be square 2-D, got shape {arr.shape}")
    m = arr.shape[0]
    keys = np.flatnonzero(arr)
    if (arr.flat[keys] != 1).any():  # negative, fractional and NaN entries
        raise ValueError("permutation entries must be 0 or 1")
    rows, cols = np.divmod(keys, max(m, 1))
    # Row-major keys: a row used twice repeats a neighbour's row.
    if (np.diff(rows) == 0).any():
        raise ValueError("permutation has a row with more than one entry")
    matching = np.full(m, -1, dtype=np.int64)
    matching[rows] = cols
    return check_matching(matching)
