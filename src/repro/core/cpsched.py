"""Algorithm 2 — ``CPSched`` (§2.3): scheduling *within* a composite path.

When a permutation grants sender ``p`` a one-to-many composite path for
``t`` ms, its filtered demands ``S = Df[p, :]`` are served **to all active
destinations simultaneously** at the per-destination rate

    ``rate = min(Ce, Co / Rc)``

where ``Rc`` is the number of destinations still active: each destination's
EPS link caps at ``Ce`` (or the reserved budget ``Ce*``), and the shared
OCS leg caps the total at ``Co``.  As destinations drain, ``Rc`` shrinks and
the per-destination rate can rise (until the ``Ce`` cap binds).  The paper's
loop advances in closed form from one drain event to the next:

    ``tmax = max(Rm / Ce, Rm * Rc / Co)``

is exactly the time for the smallest active residual ``Rm`` to finish at
the current rate.  Many-to-one paths are the mirror image with sources in
place of destinations.

:func:`cpsched` runs that loop over the endpoints sorted once by demand,
so the active ones are a suffix whose start moves right as they drain;
each step reads the smallest from the suffix head and updates the suffix
in place.  Every endpoint sees the same operations as in a loop that
re-scans all endpoints per step, so the residuals are the same bits.
The fluid simulator (:mod:`repro.sim.engine`) serves composite paths at
the same rates inside its own event loop.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import VOLUME_TOL, check_nonnegative, check_positive


def cpsched(
    demands: np.ndarray,
    duration: float,
    ocs_rate: float,
    eps_rate: float,
) -> np.ndarray:
    """Algorithm 2: residual demands after ``duration`` on a composite path.

    Parameters
    ----------
    demands:
        ``S`` — 1-D array of per-endpoint demands (Mb) sharing this
        composite path.  Zero entries are inactive endpoints.
    duration:
        ``t`` — composite-path duration (ms).
    ocs_rate:
        ``Co`` — shared OCS-leg rate (Mb/ms).
    eps_rate:
        Per-endpoint EPS rate cap — ``Ce`` or the reserved budget ``Ce*``
        (Mb/ms).

    Returns
    -------
    ``R`` — residual demands (Mb), same shape as ``S``.
    """
    remaining = np.asarray(demands, dtype=np.float64).copy()
    if remaining.ndim != 1:
        raise ValueError(f"demands must be a 1-D vector, got shape {remaining.shape}")
    if np.any(remaining < 0) or not np.all(np.isfinite(remaining)):
        raise ValueError("demands must be finite and non-negative")
    check_nonnegative("duration", duration)
    check_positive("ocs_rate", ocs_rate)
    check_positive("eps_rate", eps_rate)

    # Sorted once, the active endpoints (residual above VOLUME_TOL) are a
    # suffix, and they stay one: every active residual falls by the same
    # amount and is clamped at zero, both monotone under rounding.
    order = remaining.argsort()
    level = remaining[order]
    size = level.size
    start = int(level.searchsorted(VOLUME_TOL, side="right"))
    tau = float(duration)
    while tau > 0 and start < size:
        active_count = size - start
        smallest = float(level[start])
        rate = min(eps_rate, ocs_rate / active_count)
        # Paper line 6: time until the smallest active residual drains.
        tmax = max(smallest / eps_rate, smallest * active_count / ocs_rate)
        tcurr = min(tmax, tau)
        active = level[start:]
        np.subtract(active, tcurr * rate, out=active)
        np.maximum(active, 0.0, out=active)
        start += int(active.searchsorted(VOLUME_TOL, side="right"))
        tau -= tcurr
    remaining[order] = level
    return remaining


def composite_path_rate(active_count: int, ocs_rate: float, eps_rate: float) -> float:
    """Per-endpoint rate of a composite path with ``active_count`` endpoints.

    The inherent cp-Switch tradeoff (§2.3): parallelism is capped per
    endpoint by the EPS link (``Ce``), while the shared optical leg caps the
    total (``Co``).
    """
    if active_count <= 0:
        return 0.0
    return min(eps_rate, ocs_rate / active_count)
