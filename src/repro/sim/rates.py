"""Max-min fair rate allocation for the EPS fabric.

The EPS can send from any port to any port simultaneously (§1), limited by
each input and output link's rate ``Ce``.  Among the demand entries it
serves concurrently, the simulator allocates **max-min fair** rates — the
classic water-filling allocation, which is what per-VOQ fair queueing on a
crossbar converges to.  (The packet-level cross-check in
:mod:`repro.sim.packetlevel` validates the abstraction.)

The algorithm is vectorized progressive filling: all unfrozen flows grow at
the same rate until some port saturates; flows through saturated ports
freeze; repeat.  Each round saturates at least one port, so there are at
most ``2n`` rounds of O(E) numpy work.

Inputs and outputs share one port axis (inputs first), so a round divides,
steps and tests saturation once over that axis instead of once per side;
the per-port flow counts are carried from round to round, losing only the
flows that froze, instead of recounted.  A port whose flows have all
frozen gets an infinite remainder, which keeps it out of every later share
and saturation test without a mask.  Every flow grows by the same steps
until it freezes, so a flow's rate is the running sum of the steps up to
its round, added in the same order as per-flow accumulation would.
"""

from __future__ import annotations

import numpy as np

_RATE_TOL = 1e-12


def max_min_fair_rates(
    rows: np.ndarray,
    cols: np.ndarray,
    in_capacity: np.ndarray,
    out_capacity: np.ndarray,
) -> np.ndarray:
    """Max-min fair rates for flows ``(rows[k], cols[k])``.

    Parameters
    ----------
    rows, cols:
        Flow endpoints: flow ``k`` goes from input ``rows[k]`` to output
        ``cols[k]``.  Multiple flows may share endpoints.
    in_capacity, out_capacity:
        Per-port available capacities (Mb/ms).  May be zero (e.g. a link
        fully reserved by a composite path), in which case flows through
        that port get rate 0.

    Returns
    -------
    Array of per-flow rates (Mb/ms), same length as ``rows``.  The
    allocation saturates every bottleneck port: no flow can be sped up
    without slowing a flow of equal or lower rate.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ValueError("rows and cols must be 1-D arrays of equal length")
    n_flows = rows.size
    rates = np.zeros(n_flows, dtype=np.float64)
    if n_flows == 0:
        return rates

    n_in = int(in_capacity.shape[0])
    n_ports = n_in + int(out_capacity.shape[0])
    remaining = np.concatenate((in_capacity, out_capacity), dtype=np.float64)
    if not remaining.min() >= -_RATE_TOL:
        raise ValueError("capacities must be non-negative")
    np.maximum(remaining, 0.0, out=remaining)

    # Each active flow's input and output port on the shared axis.
    active = np.arange(n_flows)
    ins = rows
    outs = cols + n_in
    count = np.bincount(np.concatenate((ins, outs)), minlength=n_ports)
    remaining[count == 0] = np.inf
    level = 0.0
    for _round in range(n_ports + 1):
        step = (remaining / count).min()
        if _RATE_TOL < step < np.inf:
            level += step
            # Rounding can leave a port a hair below zero; such a port
            # saturates below, so it leaves every later round, clamped or not.
            remaining -= step * count
        # Freeze flows through ports that are now saturated (or whose
        # remaining capacity is below one per-flow tolerance share — such
        # ports would otherwise stall the filling loop with sub-tolerance
        # steps forever).
        saturated = remaining <= _RATE_TOL * count
        frozen = saturated[ins] | saturated[outs]
        n_frozen = np.count_nonzero(frozen)
        if n_frozen in (0, active.size):
            # Either every flow froze, or none did: then no port saturated
            # and all remaining shares were infinite, which cannot happen
            # while counts are positive (a defensive break).
            break
        rates[active[frozen]] = level
        keep = ~frozen
        active = active[keep]
        count -= np.bincount(
            np.concatenate((ins[frozen], outs[frozen])), minlength=n_ports
        )
        ins = ins[keep]
        outs = outs[keep]
        remaining[count == 0] = np.inf
    rates[active] = level
    return rates


def max_min_fair_rate_matrix(
    active: np.ndarray,
    in_capacity: np.ndarray,
    out_capacity: np.ndarray,
) -> np.ndarray:
    """Matrix-shaped convenience wrapper over :func:`max_min_fair_rates`.

    ``active`` is a boolean n_in×n_out mask of flows to serve; the result is
    a rate matrix of the same shape (zero where inactive).
    """
    active = np.asarray(active, dtype=bool)
    rates = np.zeros(active.shape, dtype=np.float64)
    rows, cols = np.nonzero(active)
    if rows.size:
        rates[rows, cols] = max_min_fair_rates(rows, cols, in_capacity, out_capacity)
    return rates
