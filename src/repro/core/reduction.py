"""Algorithm 1 — ``cp-SwitchDemandReduction`` (§2.2), for k paths (§4).

Reduces the n×n demand matrix ``D`` into an (n+k)×(n+k) matrix ``DI`` that
any h-Switch scheduler can consume, with ``k`` composite paths per
direction (the paper's switch has k = 1).  Column ``n + p`` (0-based) of
``DI`` represents one-to-many composite path ``p``: ``DI[i, n + p]`` is the
aggregate volume sender ``i`` would push through OCS → composite link → EPS
when it sits on that path.  Row ``n + q`` represents many-to-one path ``q``
symmetrically.  ``DI[n:, n:]`` is always zero: composite endpoints never
talk to each other.

Filtering (paper intuition, §2.2):

* entries larger than ``Bt`` are kept out of composite paths — a large
  entry amortizes its own circuit's reconfiguration cost;
* only rows/columns with at least ``Rt`` surviving non-zero entries qualify
  — aggregation pays off only for genuine one-to-many / many-to-one
  fan-out;
* an entry whose row *and* column both qualify is assigned greedily to the
  currently lighter composite path (load balancing), scanning entries in
  row-major order (the paper says "arbitrary order"; row-major keeps runs
  deterministic).

The function returns both ``DI`` and the *filtered* matrix ``Df`` holding
exactly the entries assigned to composite paths, so that
``DI[:n, :n] == D - Df`` and total volume is conserved.

k paths (the §4 extension).  The split above does not depend on k.  Only
then does each port with a composite aggregate take a path, one per
direction: senders in ascending port order, each to the one-to-many path
with the least total so far (ties to the lowest path), and receivers the
same over the many-to-one paths.  At k = 1 every port takes path 0, which
is Algorithm 1 bit for bit.

Why ports and not entries.  The paper's sketch balances "the minimal
composite entry"; taken per *entry* that would shard one sender's fan-out
across several paths, which backfires: a configuration can still match the
sender to only one path at a time, so sharding shrinks the aggregate each
configuration sees (shorter Solstice slices) and drops the composite rate
below ``Co`` (fewer live entries per grant).  With each port on one path,
its aggregate stays whole, a grant serves the port's whole filtered row or
column (Algorithm 4), and the k paths spread across *different* skewed
ports — the §3.5 overload that the extension exists for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import FilterConfig
from repro.switch.params import SwitchParams
from repro.utils.validation import VOLUME_TOL, check_demand_matrix, check_nonnegative

@dataclass(frozen=True)
class ReducedDemand:
    """Output of Algorithm 1.

    Attributes
    ----------
    reduced:
        ``DI`` — the (n+k)×(n+k) reduced demand.  ``reduced[:n, :n]`` is the
        demand left on regular EPS-EPS / OCS-OCS paths; ``reduced[:n, n:]``
        holds each sender's one-to-many composite aggregate in the column
        of its path, ``reduced[n:, :n]`` each receiver's many-to-one
        aggregate in the row of its path.
    filtered:
        ``Df`` — the n×n matrix of entries assigned to composite paths.
    """

    reduced: np.ndarray
    filtered: np.ndarray

    def __post_init__(self) -> None:
        # Freeze the arrays: schedules keep references to this reduction as
        # provenance — a caller mutating either would silently corrupt
        # every schedule derived from it.
        for name in ("reduced", "filtered"):
            array = np.asarray(getattr(self, name))
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n_ports(self) -> int:
        return self.filtered.shape[0]

    @property
    def composite_volume(self) -> float:
        """Total volume routed via composite paths (Mb)."""
        return float(self.filtered.sum())

    @property
    def o2m_loads(self) -> np.ndarray:
        """Per-sender one-to-many composite aggregate (each sender's one
        nonzero of ``DI[i, n:]``), read-only like ``reduced``."""
        n = self.n_ports
        return _read_only(self.reduced[:n, n:].sum(axis=1))

    @property
    def m2o_loads(self) -> np.ndarray:
        """Per-receiver many-to-one composite aggregate (each receiver's
        one nonzero of ``DI[n:, j]``), read-only like ``reduced``."""
        n = self.n_ports
        return _read_only(self.reduced[n:, :n].sum(axis=0))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _blocked_mask(n: int, blocked, name: str) -> "np.ndarray | None":
    """Normalize a blocked-port spec (iterable of ports or bool mask)."""
    if blocked is None:
        return None
    blocked = np.asarray(
        sorted(blocked) if isinstance(blocked, (set, frozenset)) else blocked
    )
    if blocked.dtype == bool:
        if blocked.shape != (n,):
            raise ValueError(f"{name} mask has shape {blocked.shape}, expected ({n},)")
        return blocked
    mask = np.zeros(n, dtype=bool)
    ports = blocked.astype(np.int64, casting="unsafe").ravel()
    if ports.size and (ports.min() < 0 or ports.max() >= n):
        raise ValueError(f"{name} ports must be in [0, {n}), got {ports.tolist()}")
    mask[ports] = True
    return mask


def qualifying_lines(
    demand: np.ndarray,
    fanout_threshold: int,
    volume_threshold: float,
    *,
    blocked_o2m=None,
    blocked_m2o=None,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Algorithm 1 lines 3-5: the small entries and the lines they qualify.

    Returns ``(small, row_qualifies, col_qualifies)``: the n×n mask of
    non-zero entries no larger than ``Bt``, and the n-masks of the rows and
    columns holding at least ``Rt`` of them whose composite port is not
    blocked.  ``demand`` must already be validated
    (:func:`~repro.utils.validation.check_demand_matrix`); the other
    arguments are those of :func:`cp_switch_demand_reduction`.
    """
    if fanout_threshold < 1:
        raise ValueError(f"fanout_threshold (Rt) must be >= 1, got {fanout_threshold}")
    check_nonnegative("volume_threshold", volume_threshold)
    n = demand.shape[0]

    # Line 3: Dlow = ZerosAboveBt(D) — drop entries too big for composites.
    small = (demand > VOLUME_TOL) & (demand <= volume_threshold)

    # Lines 4-5: qualifying rows/columns by surviving-entry count.
    row_qualifies = small.sum(axis=1) >= fanout_threshold
    col_qualifies = small.sum(axis=0) >= fanout_threshold

    # Fault masking: a row/column whose composite port is known dead can
    # never qualify — its entries stay on the regular paths.
    row_blocked = _blocked_mask(n, blocked_o2m, "blocked_o2m")
    if row_blocked is not None:
        row_qualifies &= ~row_blocked
    col_blocked = _blocked_mask(n, blocked_m2o, "blocked_m2o")
    if col_blocked is not None:
        col_qualifies &= ~col_blocked
    return small, row_qualifies, col_qualifies


def _paths_of_ports(
    loads: np.ndarray, n_paths: int
) -> "tuple[np.ndarray, np.ndarray]":
    """The ports with a composite aggregate, ascending, and each one's path.

    Ports take a path in ascending port order, each the path with the
    least total so far, ties to the lowest path (see the module docstring).
    """
    ports = np.flatnonzero(loads > 0.0)
    totals = [0.0] * n_paths
    paths = []
    for load in loads[ports].tolist():
        path = totals.index(min(totals))
        paths.append(path)
        totals[path] += load
    return ports, np.array(paths, dtype=np.int64)


def cp_switch_demand_reduction(
    demand: np.ndarray,
    fanout_threshold: int,
    volume_threshold: float,
    *,
    blocked_o2m=None,
    blocked_m2o=None,
    n_paths: int = 1,
) -> ReducedDemand:
    """Algorithm 1: build the reduced demand ``DI`` and filtered demand ``Df``.

    Parameters
    ----------
    demand:
        n×n demand matrix ``D`` (Mb).
    fanout_threshold:
        ``Rt`` — minimum number of small entries a row/column needs to
        qualify for a composite path.
    volume_threshold:
        ``Bt`` — entries strictly larger than this never ride a composite
        path.
    blocked_o2m, blocked_m2o:
        Optional ports whose one-to-many / many-to-one composite path must
        not be used — an iterable of port indices or a boolean n-mask.
        The epoch controller passes the composite ports it has observed
        dead, so the next scheduling round keeps their rows/columns on the
        regular paths instead of parking demand on hardware that cannot
        serve it.
    n_paths:
        k — composite paths per direction (§4); each port with a composite
        aggregate sits on one of them (see the module docstring).

    Returns
    -------
    ReducedDemand
        With volume conserved: ``DI.sum() == D.sum()`` and
        ``DI[:n, :n] == D - Df``.
    """
    demand = check_demand_matrix(demand)
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    n = demand.shape[0]
    nonzero, row_qualifies, col_qualifies = qualifying_lines(
        demand,
        fanout_threshold,
        volume_threshold,
        blocked_o2m=blocked_o2m,
        blocked_m2o=blocked_m2o,
    )

    filtered = np.zeros_like(demand)
    o2m_loads = np.zeros(n)
    m2o_loads = np.zeros(n)

    # Lines 6-8: row qualifies, column does not -> one-to-many path of i.
    only_rows = nonzero & row_qualifies[:, None] & ~col_qualifies[None, :]
    filtered[only_rows] = demand[only_rows]
    np.add.at(o2m_loads, np.nonzero(only_rows)[0], demand[only_rows])

    # Lines 9-11: column qualifies, row does not -> many-to-one path of j.
    only_cols = nonzero & ~row_qualifies[:, None] & col_qualifies[None, :]
    filtered[only_cols] = demand[only_cols]
    np.add.at(m2o_loads, np.nonzero(only_cols)[1], demand[only_cols])

    # Lines 12-15: both qualify -> greedily balance onto the lighter path.
    # Every such entry is filtered whichever path takes it; the greedy
    # choice only moves load, and each choice depends on the loads of
    # every earlier entry, so the scan stays sequential.  It runs over
    # plain Python floats (an order of magnitude cheaper than numpy scalar
    # indexing) with the seed loop's per-entry arithmetic (one comparison,
    # one addition), so the loads keep its bits.
    both_rows, both_cols = np.nonzero(
        nonzero & row_qualifies[:, None] & col_qualifies[None, :]
    )
    if both_rows.size:
        values = demand[both_rows, both_cols]
        filtered[both_rows, both_cols] = values
        o2m = o2m_loads.tolist()
        m2o = m2o_loads.tolist()
        for i, j, value in zip(both_rows.tolist(), both_cols.tolist(), values.tolist()):
            if o2m[i] <= m2o[j]:
                o2m[i] = o2m[i] + value
            else:
                m2o[j] = m2o[j] + value
        o2m_loads[:] = o2m
        m2o_loads[:] = m2o

    # Line 16: remaining demand stays on regular paths; each port's
    # aggregate goes to its path's column (one-to-many) or row (many-to-one).
    reduced = np.zeros((n + n_paths, n + n_paths), dtype=np.float64)
    reduced[:n, :n] = demand - filtered
    rows, paths = _paths_of_ports(o2m_loads, n_paths)
    reduced[rows, n + paths] = o2m_loads[rows]
    cols, paths = _paths_of_ports(m2o_loads, n_paths)
    reduced[n + paths, cols] = m2o_loads[cols]

    return ReducedDemand(reduced=reduced, filtered=filtered)


def reduce_with_config(
    demand: np.ndarray,
    params: SwitchParams,
    config: "FilterConfig | None" = None,
    *,
    blocked_o2m=None,
    blocked_m2o=None,
    n_paths: int = 1,
) -> ReducedDemand:
    """Algorithm 1 with thresholds resolved from a :class:`FilterConfig`."""
    config = config or FilterConfig()
    return cp_switch_demand_reduction(
        demand,
        fanout_threshold=config.resolve_fanout_threshold(params),
        volume_threshold=config.resolve_volume_threshold(params),
        blocked_o2m=blocked_o2m,
        blocked_m2o=blocked_m2o,
        n_paths=n_paths,
    )
