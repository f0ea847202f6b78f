"""QuickStuff — Solstice's matrix-stuffing step.

Solstice first "stuffs" the demand matrix ``D`` into a matrix ``E >= D``
whose row sums and column sums all equal the same value
``phi = max port load``.  Such an equal-sum matrix decomposes completely
into permutation matrices (Birkhoff–von-Neumann), which is what makes the
slicing loop's perfect matchings always exist.

QuickStuff adds the padding volume in two passes:

1. **Non-zero pass** — grow existing non-zero entries first (largest first,
   for determinism), so padding rides along circuits that real demand needs
   anyway and the stuffed matrix stays as sparse as the input.
2. **Zero pass** — distribute the remaining row/column slack over zero
   entries greedily (largest slack first).

Both passes preserve ``E >= D`` and terminate with every row and column sum
exactly ``phi``.

Float pathology on adversarial inputs (huge dynamic range, near-tolerance
entries) can leave the sums unequal beyond tolerance; instead of raising —
which used to abort whole sweeps — a watchdog runs bounded repair rounds
(re-pair the exact residual slacks, raising ``phi`` to the largest observed
sum so only volume is *added* and ``E >= D`` stays intact) and, if the
matrix still is not equalized, returns it anyway together with a
:class:`~repro.hybrid.diagnostics.SchedulerDiagnostics` record.  Downstream
the Solstice loop degrades gracefully when slicing such a matrix.
"""

from __future__ import annotations

import numpy as np

from repro.hybrid.diagnostics import SchedulerDiagnostics
from repro.utils.validation import VOLUME_TOL, check_demand_matrix

#: Bounded repair attempts before QuickStuff accepts the imbalance.
MAX_REPAIR_ROUNDS: int = 3


def quick_stuff(demand: np.ndarray) -> np.ndarray:
    """Stuff ``demand`` into an equal-row/column-sum matrix.

    Returns a new matrix ``E`` with ``E >= demand`` element-wise and all row
    and column sums equal to the maximum port load of ``demand``.

    Examples
    --------
    >>> import numpy as np
    >>> E = quick_stuff(np.array([[3.0, 0.0], [1.0, 1.0]]))
    >>> E.sum(axis=0).tolist(), E.sum(axis=1).tolist()
    ([4.0, 4.0], [4.0, 4.0])
    """
    stuffed, _diag = quick_stuff_diagnosed(demand)
    return stuffed


def quick_stuff_diagnosed(
    demand: np.ndarray,
) -> "tuple[np.ndarray, SchedulerDiagnostics | None]":
    """:func:`quick_stuff` plus the watchdog's diagnostics record.

    The second element is ``None`` when the sums equalized exactly (the
    overwhelmingly common case) and a ``stuffing-imbalance`` record when
    bounded repair could not close the gap — the returned matrix is still a
    valid ``E >= demand`` over-approximation either way, never an exception.
    """
    stuffed = check_demand_matrix(demand)
    n = stuffed.shape[0]
    row_sums = stuffed.sum(axis=1)
    col_sums = stuffed.sum(axis=0)
    phi = float(max(row_sums.max(), col_sums.max()))
    if phi <= VOLUME_TOL:
        return stuffed, None  # empty demand stuffs to itself

    # Pass 1: absorb slack into existing non-zero entries, largest first.
    # The scan is inherently sequential (each entry's slack depends on the
    # updates before it), so it runs over plain Python floats — an order of
    # magnitude cheaper than per-entry numpy scalar indexing — and the
    # accumulated additions are written back to the matrix in one batch.
    # The arithmetic (min of two float64 differences, one addition each) is
    # identical operation-for-operation, so the result is bit-identical.
    rows, cols = np.nonzero(stuffed > VOLUME_TOL)
    order = np.argsort(-stuffed[rows, cols], kind="stable")
    rows, cols = rows[order], cols[order]
    row_list = rows.tolist()
    col_list = cols.tolist()
    rs = row_sums.tolist()
    cs = col_sums.tolist()
    added = [0.0] * len(row_list)
    for k, (i, j) in enumerate(zip(row_list, col_list)):
        ri, cj = rs[i], cs[j]
        slack = min(phi - ri, phi - cj)
        if slack > 0:
            added[k] = slack
            rs[i] = ri + slack
            cs[j] = cj + slack
    stuffed[rows, cols] += added  # (rows, cols) pairs are unique
    row_sums = np.array(rs)
    col_sums = np.array(cs)

    # Pass 2: pair remaining row slack with column slack on any entries.
    # Total row slack equals total column slack, so a greedy pairing always
    # terminates: each step zeroes at least one port's slack.
    row_slack = phi - row_sums
    col_slack = phi - col_sums
    # kind="stable" (as in pass 1): the default introsort orders tied
    # slacks differently across numpy versions/platforms, breaking the
    # repo's bit-identity guarantees on demands with duplicated loads.
    open_rows = [
        int(i) for i in np.argsort(-row_slack, kind="stable") if row_slack[i] > VOLUME_TOL
    ]
    open_cols = [
        int(j) for j in np.argsort(-col_slack, kind="stable") if col_slack[j] > VOLUME_TOL
    ]
    ri = ci = 0
    while ri < len(open_rows) and ci < len(open_cols):
        i, j = open_rows[ri], open_cols[ci]
        fill = min(row_slack[i], col_slack[j])
        if fill > VOLUME_TOL:
            stuffed[i, j] += fill
            row_slack[i] -= fill
            col_slack[j] -= fill
        if row_slack[i] <= VOLUME_TOL:
            ri += 1
        if col_slack[j] <= VOLUME_TOL:
            ci += 1

    # The pairing above is exact up to float error; verify, and if anything
    # beyond accumulated roundoff is left (e.g. slacks below VOLUME_TOL that
    # the tolerance-filtered pairing skipped), repair in place instead of
    # raising.  The repair trigger sits well above pass 2's few-ulp rounding
    # noise, so well-conditioned demands take the fast path bit-identically.
    tolerance = n * 1e-9 * max(phi, 1.0)
    snap = 1024.0 * np.finfo(np.float64).eps * max(phi, 1.0)
    imbalance = _imbalance(stuffed, phi)
    rounds = 0
    while imbalance > snap and rounds < MAX_REPAIR_ROUNDS:
        rounds += 1
        phi, imbalance = _repair_round(stuffed, phi)

    if imbalance > tolerance:
        return stuffed, SchedulerDiagnostics(
            scheduler="quick_stuff",
            event="stuffing-imbalance",
            detail=(
                f"row/column sums still differ from phi by {imbalance:.3g} Mb "
                f"after {rounds} repair rounds (tolerance {tolerance:.3g})"
            ),
            iterations=rounds,
            cap=MAX_REPAIR_ROUNDS,
            residual=float(imbalance),
        )
    return stuffed, None


def _imbalance(stuffed: np.ndarray, phi: float) -> float:
    """Worst per-port deviation of the row/column sums from ``phi`` (Mb)."""
    return float(
        max(
            np.abs(stuffed.sum(axis=1) - phi).max(),
            np.abs(stuffed.sum(axis=0) - phi).max(),
        )
    )


def _repair_round(stuffed: np.ndarray, phi: float) -> "tuple[float, float]":
    """One bounded repair pass: re-pair exact residual slacks in place.

    ``phi`` is first raised to the largest observed port sum so every slack
    is non-negative — the repair only *adds* volume, preserving the
    ``E >= demand`` invariant.  Returns the (possibly raised) ``phi`` and
    the remaining imbalance.
    """
    row_sums = stuffed.sum(axis=1)
    col_sums = stuffed.sum(axis=0)
    phi = float(max(phi, row_sums.max(), col_sums.max()))
    row_slack = phi - row_sums
    col_slack = phi - col_sums
    # Stable for the same reason as pass 2: tied residual slacks must pair
    # identically on every platform.
    open_rows = [
        int(i) for i in np.argsort(-row_slack, kind="stable") if row_slack[i] > 0
    ]
    open_cols = [
        int(j) for j in np.argsort(-col_slack, kind="stable") if col_slack[j] > 0
    ]
    ri = ci = 0
    while ri < len(open_rows) and ci < len(open_cols):
        i, j = open_rows[ri], open_cols[ci]
        fill = min(row_slack[i], col_slack[j])
        if fill > 0:
            stuffed[i, j] += fill
            row_slack[i] -= fill
            col_slack[j] -= fill
        if row_slack[i] <= 0:
            ri += 1
        if col_slack[j] <= 0:
            ci += 1
    return phi, _imbalance(stuffed, phi)


def stuffing_overhead(demand: np.ndarray, stuffed: np.ndarray) -> float:
    """Fraction of the stuffed matrix volume that is padding (not demand)."""
    total = float(np.asarray(stuffed).sum())
    if total <= 0:
        return 0.0
    return (total - float(np.asarray(demand).sum())) / total
