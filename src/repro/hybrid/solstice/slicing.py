"""BigSlice — Solstice's greedy threshold-slicing step.

Given a stuffed (equal row/column sum) matrix ``E``, BigSlice finds a large
threshold ``r`` such that the bipartite graph with an edge wherever
``E[i, j] >= r`` admits a perfect matching, and returns that matching with
``r`` (as an ``(n,)`` matching, see :mod:`repro.hybrid.schedule`).  Scheduling the matching for ``r / Co`` and subtracting ``r`` from
every matched entry keeps all row and column sums equal (they each drop by
exactly ``r``), preserving the invariant — and with it the existence of the
next perfect matching.

Feasibility is monotone in ``r`` and changes only at values present in
``E``, so the exact optimum is found by binary search over the sorted
unique positive entries.  For large matrices that set can approach ``n^2``
values; we binary-search a quantile grid of it (``max_probes`` candidates)
and then tighten the returned threshold to the **minimum matched entry** of
the found matching — a value at least as large as the probed threshold, so
the slice is never smaller than what the probe guaranteed, and the
stuffedness invariant holds exactly.  With ``max_probes=None`` the search
is exhaustive and exactly optimal.
"""

from __future__ import annotations

import numpy as np

from repro.matching import kernels
from repro.matching.hopcroft_karp import maximum_matching_mask
from repro.utils.validation import VOLUME_TOL

#: Default size of the quantile grid the threshold search probes.
DEFAULT_MAX_PROBES: int = 64

_NOT_STUFFED_MSG = (
    "no perfect matching over positive entries; matrix is not stuffed "
    "(row/column sums unequal?)"
)


class BigSliceState:
    """Warm-start memo carried across :func:`big_slice` calls on one matrix.

    The Solstice loop calls BigSlice repeatedly on the *same* stuffed
    matrix, subtracting the slice threshold from the matched entries in
    between — entries only ever decrease.  Three things survive between
    calls under that contract:

    * an **infeasibility certificate**: once ``matrix >= v`` lacked a
      perfect matching, it lacks one forever (masks only shrink), so later
      threshold searches clip their probe range to values below ``v``
      instead of re-discovering the bound;
    * the quantile-grid index cache: for ``method="nearest"`` the probed
      quantiles are pure *positions* in the sorted unique values, so the
      index vector depends only on the value count and is reused;
    * the live nonzero structure, from which every probe's CSR
      biadjacency is assembled in O(nnz).

    The state must be created fresh for every scheduler run (a new stuffed
    matrix invalidates all three memos).
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix
        self.infeasible_at: float = np.inf
        self._qidx: "dict[tuple[int, int], np.ndarray]" = {}
        self._grids: "dict[int, np.ndarray]" = {}
        n = matrix.shape[0]
        #: Each input's flat key ``row * n``: a matching's entries sit at
        #: ``row_keys + matching`` in the raveled matrix, in row order.
        self.row_keys = np.arange(n) * n
        #: Nonzero structure, maintained across slices.  Entries only ever
        #: decrease, so positions that fall to ``<= VOLUME_TOL`` never
        #: revive — the live set shrinks monotonically and every probe and
        #: value extraction runs in O(nnz) instead of O(n²).  Positions are
        #: stored in row-major (``np.nonzero``) order, as flat keys for the
        #: value gather and as rows and columns for the probes, so boolean
        #: sub-selection yields canonical (row-sorted) CSR indices.
        self._keys = np.flatnonzero(matrix > VOLUME_TOL)
        self._nz_rows = (self._keys // n).astype(np.int32)
        self._nz_cols = (self._keys % n).astype(np.int32)
        self._indptr = np.zeros(n + 1, dtype=np.int32)
        self._values: "np.ndarray | None" = None

    def refresh(self) -> np.ndarray:
        """Current values of the live entries, in row-major order.

        Drops the tracked positions the last subtraction took to
        ``VOLUME_TOL`` or below.  Every untracked entry is at or below it,
        so an empty result means ``matrix.max() <= VOLUME_TOL``.  The
        values are gathered once per slice: a later call returns them
        again until a BigSlice call uses them, after which the caller
        subtracts its slice.
        """
        if self._values is None:
            vals = self.matrix.take(self._keys)
            alive = vals > VOLUME_TOL
            if not alive.all():
                self._keys = self._keys[alive]
                self._nz_rows = self._nz_rows[alive]
                self._nz_cols = self._nz_cols[alive]
                vals = vals[alive]
            self._values = vals
        return self._values

    def quantile_index(self, m: int, max_probes: int) -> np.ndarray:
        """Positions ``np.quantile(values, grid, method="nearest")`` picks.

        For the "nearest" method the selected elements depend only on the
        array length, never its contents: numpy rounds the virtual indexes
        ``q * (m - 1)`` half-to-even, so ``values[rint(grid * (m - 1))]``
        reproduces the oracle's probe grid bit-for-bit at a fraction of a
        full quantile computation (~150 µs → ~3 µs per slice).
        """
        key = (m, max_probes)
        index = self._qidx.get(key)
        if index is None:
            grid = self._grids.get(max_probes)
            if grid is None:
                grid = np.linspace(0.0, 1.0, max_probes)
                self._grids[max_probes] = grid
            index = np.rint(grid * (m - 1)).astype(np.int64)
            self._qidx[key] = index
        return index


def big_slice(
    stuffed: np.ndarray,
    *,
    max_probes: "int | None" = DEFAULT_MAX_PROBES,
    state: "BigSliceState | None" = None,
) -> "tuple[float, np.ndarray]":
    """Large-threshold perfect matching of a stuffed matrix.

    Parameters
    ----------
    stuffed:
        Equal row/column-sum non-negative matrix with positive total volume.
    max_probes:
        Cap on candidate thresholds probed (quantiles of the unique entry
        values).  ``None`` probes every unique value (exact optimum).

    Returns
    -------
    threshold, matching:
        The slicing threshold ``r`` (Mb) — the minimum entry the returned
        matching touches — and the perfect matching, an ``(n,)`` int64
        array whose entry ``i`` is input ``i``'s output, supported on
        entries ``>= r``.

    Raises
    ------
    ValueError
        If no positive entries exist, or no perfect matching exists even at
        the smallest positive threshold (i.e. the matrix is not stuffed).
    """
    if state is not None:
        return _big_slice_kernel(state, max_probes)

    matrix = np.asarray(stuffed, dtype=np.float64)
    values = np.unique(matrix[matrix > VOLUME_TOL])
    if values.size == 0:
        raise ValueError("big_slice called on an (effectively) empty matrix")
    if max_probes is not None and values.size > max_probes:
        grid = np.linspace(0.0, 1.0, max_probes)
        values = np.unique(np.quantile(values, grid, method="nearest"))

    n = matrix.shape[0]

    def probe(threshold: float) -> "np.ndarray | None":
        match, size = maximum_matching_mask(matrix >= threshold)
        return match if size == n else None

    lo, hi = 0, values.size - 1
    best_match = probe(float(values[lo]))
    if best_match is None:
        raise ValueError(_NOT_STUFFED_MSG)
    lo += 1
    while lo <= hi:
        mid = (lo + hi) // 2
        match = probe(float(values[mid]))
        if match is not None:
            best_match = match
            lo = mid + 1
        else:
            hi = mid - 1

    # Tighten: the slice can be as thick as the thinnest matched entry.
    threshold = float(matrix[np.arange(n), best_match].min())
    return threshold, best_match


def _big_slice_kernel(
    state: BigSliceState, max_probes: "int | None"
) -> "tuple[float, np.ndarray]":
    """Warm-start BigSlice — bit-identical to the oracle path above.

    Why identical output is guaranteed, not just hoped for:

    * The candidate grid is the same by construction — ``np.unique`` of the
      positive entries, thinned by the same ``method="nearest"`` quantiles
      (selected through the cached position index, which picks exactly the
      elements ``np.quantile`` would return).
    * Both paths find the **largest grid index whose mask admits a perfect
      matching**.  Feasibility is a property of the mask, so the kernel's
      probes and the oracle's agree on every verdict — and hence on the
      winning index.  The infeasibility certificate only removes probes
      whose verdict is already known (entries never increase between
      slices), never changing the outcome.
    * The oracle's published matching is always the scipy matching at that
      winning index: its binary search only stores ``best_match`` when a
      probe succeeds, and successful probe values increase monotonically,
      so the last stored one is the probe at the winner.  The kernel's
      probes make that same scipy call on byte-identical CSR arrays, and
      its last successful probe is likewise at the winner.
    """
    matrix = state.matrix
    # Refresh the live nonzero structure.  ``matrix[matrix > VOLUME_TOL]``
    # extracts in row-major order — exactly the order the tracked positions
    # are kept in — so the value multiset and its sort below match the
    # oracle's bit-for-bit.  The caller subtracts this slice next, so the
    # next refresh gathers again.
    vals = state.refresh()
    state._values = None
    if vals.size == 0:
        raise ValueError("big_slice called on an (effectively) empty matrix")
    # Sorted unique positive values, as ``np.unique`` would produce them —
    # sort + neighbour-dedup is ~3× cheaper than ``np.unique``'s hash path.
    positive = np.sort(vals)
    keep = np.empty(positive.size, dtype=bool)
    keep[0] = True
    np.not_equal(positive[1:], positive[:-1], out=keep[1:])
    values = positive[keep]
    if max_probes is not None and values.size > max_probes:
        # The oracle re-dedups after quantile selection, but that is a
        # no-op here: with m > max_probes the rounded grid positions are
        # strictly increasing (step (m-1)/(max_probes-1) > 1), and distinct
        # indices into a strictly increasing array select distinct values.
        values = values[state.quantile_index(values.size, max_probes)]

    n = matrix.shape[0]
    # Match from the winning probe — the binary search's last successful
    # probe is always at the winning index, so the published matching needs
    # no separate derivation.
    match_star: "np.ndarray | None" = None

    # Each probe asks scipy directly.  The CSR biadjacency is assembled
    # straight from the tracked nonzero structure — O(nnz), never a dense
    # n² mask — and matches what ``csr_matrix(matrix >= value)`` would hold
    # byte-for-byte (every entry ≥ a grid value is > VOLUME_TOL and hence
    # tracked).
    nz_rows = state._nz_rows
    nz_cols = state._nz_cols
    indptr = state._indptr

    def probe(value: float) -> bool:
        nonlocal match_star
        sel = vals >= value
        np.cumsum(np.bincount(nz_rows[sel], minlength=n), out=indptr[1:])
        match, size = kernels.scipy_matching_csr(nz_cols[sel], indptr, n)
        if size != n:
            return False
        match_star = match
        return True

    # Clip the search below the carried infeasibility certificate.
    hi = values.size - 1
    if state.infeasible_at != np.inf:
        hi = int(np.searchsorted(values, state.infeasible_at, side="left")) - 1
    star = -1
    if hi >= 0:
        # Probe the top of the admissible range first: the certificate and
        # the Hall bound usually pin the winner, making this the only
        # probe of the call.  When the top probe fails, the winner is
        # almost always within a step or two below it (the slice
        # subtraction only drops a handful of grid values), so descend
        # linearly a couple of steps before paying for a full bisection.
        descents = 3
        while descents and hi >= 0:
            if probe(float(values[hi])):
                star = hi
                break
            state.infeasible_at = float(values[hi])
            hi -= 1
            descents -= 1
        else:
            lo = 0
            while lo <= hi:
                mid = (lo + hi) // 2
                if probe(float(values[mid])):
                    star = mid
                    lo = mid + 1
                else:
                    state.infeasible_at = float(values[mid])
                    hi = mid - 1
    if star < 0:
        raise ValueError(_NOT_STUFFED_MSG)

    threshold = float(matrix.take(state.row_keys + match_star).min())
    return threshold, match_star
