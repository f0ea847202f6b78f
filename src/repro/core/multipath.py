"""§4 extension — k composite paths per direction.

The base cp-Switch has exactly one one-to-many and one many-to-one
composite path, which §3.5 shows saturates once several ports carry skewed
demand.  The paper sketches the fix: give the reduced demand ``k`` extra
columns and ``k`` extra rows (one per composite path), and extend the
filtering to balance entries across the k paths by always growing the
currently-minimal composite entry.  The h-Switch sub-scheduler then treats
the k path endpoints as ordinary ports, so several composite paths can be
active in the same permutation.

Layout of the reduced matrix (m = n + k):

* ``DI[i, n + p]`` — sender ``i``'s aggregate on one-to-many path ``p``;
* ``DI[n + p, j]`` — receiver ``j``'s aggregate on many-to-one path ``p``;
* ``DI[n:, n:]`` — always zero (composite endpoints never talk to each
  other).

Because an entry's service depends on *which* path it was assigned to, the
reduction also returns per-entry path-assignment maps, which the extended
scheduler uses to route CPSched over the right subset of ``Df`` (the
path's *lane*).

With ``k = 1`` this is not the base Algorithm 1/4.  The reduction filters
the same entries as Algorithm 1 and puts every entry whose row or column
alone qualifies on the same path (``test_k1_filters_like_algorithm_1``),
but its greedy scans entries in row-major order while Algorithm 1 books
those single-side entries first, so an entry whose row and column both
qualify can go the other way.  And each grant here serves only its lane,
while Algorithm 4 serves the whole filtered row or column.  So a k = 1
schedule and its simulation generally differ from Algorithm 4's.

Design note — port-sticky balancing.  The paper's sketch balances "the
minimal composite entry"; taken per *entry* that would shard one sender's
fan-out across several paths, which is counterproductive: a permutation can
still only match the sender to one path at a time, so sharding halves the
per-configuration aggregate (shorter Solstice slices) and drops the
composite rate below ``Co`` (fewer concurrently active endpoints per lane).
We therefore balance at the *port* level: the first composite entry of a
sender (receiver) picks the currently lightest one-to-many (many-to-one)
path and the port sticks to it, so each port's aggregate stays whole and
the k paths spread across *different* skewed ports — which is exactly the
§3.5 overload scenario the extension exists for.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import FilterConfig
from repro.core.cpsched import cpsched
from repro.core.scheduler import _check_cp_entry, _check_cp_schedule, _served_since
from repro.hybrid.base import HybridScheduler
from repro.hybrid.schedule import Schedule
from repro.switch.params import SwitchParams
from repro.utils.validation import VOLUME_TOL, check_demand_matrix, check_nonnegative

#: Sentinel in the path-assignment maps for "not on a composite path".
NO_PATH: int = -1


@dataclass(frozen=True)
class MultiPathReducedDemand:
    """Output of the k-path demand reduction.

    Attributes
    ----------
    reduced:
        The (n+k)×(n+k) reduced demand ``DI``.
    filtered:
        ``Df`` — n×n matrix of entries assigned to composite paths.
    o2m_path, m2o_path:
        n×n int maps: the one-to-many / many-to-one path index serving each
        entry, or :data:`NO_PATH`.
    n_paths:
        k — number of composite paths per direction.
    volume_threshold, fanout_threshold:
        The resolved ``Bt`` and ``Rt``.
    """

    reduced: np.ndarray
    filtered: np.ndarray
    o2m_path: np.ndarray
    m2o_path: np.ndarray
    n_paths: int
    volume_threshold: float
    fanout_threshold: int

    def __post_init__(self) -> None:
        # Freeze the arrays, as the base ReducedDemand does: schedules keep
        # this reduction as provenance and the simulator routes lanes off
        # the path maps.
        for name in ("reduced", "filtered", "o2m_path", "m2o_path"):
            array = np.asarray(getattr(self, name))
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n_ports(self) -> int:
        return self.filtered.shape[0]


def multi_path_reduction(
    demand: np.ndarray,
    n_paths: int,
    fanout_threshold: int,
    volume_threshold: float,
) -> MultiPathReducedDemand:
    """k-path generalization of Algorithm 1 (port-sticky balancing).

    A sender's first one-to-many entry picks the one-to-many path with the
    lowest total load (min-heap over paths) and the sender sticks to that
    path; receivers do the same over many-to-one paths.  Entries whose row
    *and* column qualify go to whichever side's per-port aggregate
    (``DI[i, n+p]`` vs ``DI[n+q, j]``) is currently smaller, exactly like
    the base algorithm's greedy.
    """
    demand = check_demand_matrix(demand)
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if fanout_threshold < 1:
        raise ValueError(f"fanout_threshold (Rt) must be >= 1, got {fanout_threshold}")
    check_nonnegative("volume_threshold", volume_threshold)
    n = demand.shape[0]
    k = int(n_paths)
    m = n + k

    low = demand.copy()
    low[low > volume_threshold] = 0.0
    nonzero = low > VOLUME_TOL
    row_qualifies = nonzero.sum(axis=1) >= fanout_threshold
    col_qualifies = nonzero.sum(axis=0) >= fanout_threshold

    reduced = np.zeros((m, m), dtype=np.float64)
    filtered = np.zeros_like(demand)
    o2m_path = np.full((n, n), NO_PATH, dtype=np.int64)
    m2o_path = np.full((n, n), NO_PATH, dtype=np.int64)

    # Sticky port->path assignments plus a lazy min-heap of (total load,
    # path) per direction for the "lightest path" pick.
    path_of_sender = np.full(n, NO_PATH, dtype=np.int64)
    path_of_receiver = np.full(n, NO_PATH, dtype=np.int64)
    o2m_totals = np.zeros(k)
    m2o_totals = np.zeros(k)
    o2m_heap = [(0.0, p) for p in range(k)]
    m2o_heap = [(0.0, p) for p in range(k)]

    def _lightest(heap: "list[tuple[float, int]]", totals: np.ndarray) -> int:
        while True:
            load, path = heap[0]
            if load == totals[path]:
                return path
            heapq.heapreplace(heap, (float(totals[path]), path))

    def _sticky_path(port: int, assigned: np.ndarray, heap, totals) -> int:
        if assigned[port] == NO_PATH:
            assigned[port] = _lightest(heap, totals)
        return int(assigned[port])

    def _book(heap, totals, path: int, value: float) -> None:
        totals[path] += value
        if heap[0][1] == path:
            heapq.heapreplace(heap, (float(totals[path]), path))

    for i, j in zip(*np.nonzero(nonzero)):
        i, j = int(i), int(j)
        row_ok = bool(row_qualifies[i])
        col_ok = bool(col_qualifies[j])
        if not row_ok and not col_ok:
            continue
        value = float(demand[i, j])
        filtered[i, j] = value
        if row_ok and col_ok:
            # Greedy per-port aggregate comparison, as in the base
            # algorithm (peeking does not commit a port to a path).
            p = (
                int(path_of_sender[i])
                if path_of_sender[i] != NO_PATH
                else _lightest(o2m_heap, o2m_totals)
            )
            q = (
                int(path_of_receiver[j])
                if path_of_receiver[j] != NO_PATH
                else _lightest(m2o_heap, m2o_totals)
            )
            row_ok = reduced[i, n + p] <= reduced[n + q, j]
            col_ok = not row_ok
        if row_ok:
            path = _sticky_path(i, path_of_sender, o2m_heap, o2m_totals)
            reduced[i, n + path] += value
            _book(o2m_heap, o2m_totals, path, value)
            o2m_path[i, j] = path
        else:
            path = _sticky_path(j, path_of_receiver, m2o_heap, m2o_totals)
            reduced[n + path, j] += value
            _book(m2o_heap, m2o_totals, path, value)
            m2o_path[i, j] = path

    reduced[:n, :n] = demand - filtered
    return MultiPathReducedDemand(
        reduced=reduced,
        filtered=filtered,
        o2m_path=o2m_path,
        m2o_path=m2o_path,
        n_paths=k,
        volume_threshold=float(volume_threshold),
        fanout_threshold=int(fanout_threshold),
    )


@dataclass(frozen=True)
class MultiPathScheduleEntry:
    """One k-path cp-Switch configuration.

    ``matching`` holds the regular circuits as an ``(n,)`` matching (see
    :mod:`repro.hybrid.schedule`); ``o2m_grants`` maps composite-path
    index → granted sender and ``m2o_grants`` composite-path index →
    granted receiver.  Validated and frozen as
    :class:`~repro.core.scheduler.CompositeScheduleEntry` is.
    """

    matching: np.ndarray
    duration: float
    composite_served: np.ndarray
    o2m_grants: "dict[int, int]"
    m2o_grants: "dict[int, int]"

    def __post_init__(self) -> None:
        _check_cp_entry(self)

    @property
    def composite_volume(self) -> float:
        return float(self.composite_served.sum())


@dataclass(frozen=True)
class MultiPathCpSchedule:
    """Schedule produced by :class:`MultiPathCpScheduler`; validated and
    frozen as :class:`~repro.core.scheduler.CpSchedule` is."""

    entries: "tuple[MultiPathScheduleEntry, ...]"
    reconfig_delay: float
    reduction: MultiPathReducedDemand
    filtered_residual: np.ndarray
    reduced_schedule: Schedule

    def __post_init__(self) -> None:
        _check_cp_schedule(self)

    @property
    def n_configs(self) -> int:
        return len(self.entries)

    @property
    def makespan(self) -> float:
        return (
            float(sum(e.duration for e in self.entries))
            + self.n_configs * self.reconfig_delay
        )

    @property
    def composite_volume_served(self) -> float:
        return float(sum(e.composite_volume for e in self.entries))


def divide_by_type_multipath(
    matching: np.ndarray, n_ports: int
) -> "tuple[np.ndarray, dict[int, int], dict[int, int]]":
    """k-path generalization of Algorithm 3, on a configuration's
    ``(n+k,)`` matching (validated when its entry was built), in O(n + k).

    Returns the regular circuits as a new ``(n,)`` matching and the grants,
    each a dict path index → port in ascending path order.  Circuits among
    composite endpoints (``P[n:, n:]``) carry no demand and are ignored.
    """
    n = int(n_ports)
    if matching.shape[0] <= n:
        raise ValueError(
            f"a configuration of {matching.shape[0]} ports cannot host {n} ports + paths"
        )
    regular = matching[:n].copy()
    senders = np.flatnonzero(regular >= n)
    paths = regular[senders] - n
    regular[senders] = -1
    order = np.argsort(paths)
    o2m_grants = dict(zip(paths[order].tolist(), senders[order].tolist()))
    m2o_grants: dict[int, int] = {}
    for p, receiver in enumerate(matching[n:].tolist()):
        if 0 <= receiver < n:
            m2o_grants[p] = receiver
    return regular, o2m_grants, m2o_grants


@dataclass
class MultiPathCpScheduler:
    """Algorithm 4 generalized to k composite paths per direction.

    Parameters
    ----------
    inner:
        h-Switch scheduler used as a sub-routine.
    n_paths:
        k — composite paths per direction.
    filter_config:
        (Rt, Bt) resolution, as in the base scheduler.
    """

    inner: HybridScheduler
    n_paths: int = 1
    filter_config: FilterConfig = field(default_factory=FilterConfig)

    @property
    def name(self) -> str:
        return f"cp{self.n_paths}-{self.inner.name}"

    def schedule(self, demand: np.ndarray, params: SwitchParams) -> MultiPathCpSchedule:
        demand = check_demand_matrix(demand)
        n = demand.shape[0]
        if n != params.n_ports:
            raise ValueError(f"demand is {n}x{n} but params.n_ports={params.n_ports}")
        reduction = multi_path_reduction(
            demand,
            self.n_paths,
            fanout_threshold=self.filter_config.resolve_fanout_threshold(params),
            volume_threshold=self.filter_config.resolve_volume_threshold(params),
        )
        reduced_schedule = self.inner.schedule(reduction.reduced, params)

        eps_budget = params.effective_eps_budget
        filtered = reduction.filtered.copy()
        entries: list[MultiPathScheduleEntry] = []
        for item in reduced_schedule:
            matching, o2m_grants, m2o_grants = divide_by_type_multipath(
                item.matching, n
            )
            rows = list(o2m_grants.values())
            cols = list(m2o_grants.values())
            before = filtered[rows], filtered[:, cols]
            for path, sender in o2m_grants.items():
                lane = filtered[sender, :] * (reduction.o2m_path[sender, :] == path)
                remaining = cpsched(lane, item.duration, params.ocs_rate, eps_budget)
                served = lane - remaining
                filtered[sender, :] -= served
            for path, receiver in m2o_grants.items():
                lane = filtered[:, receiver] * (reduction.m2o_path[:, receiver] == path)
                remaining = cpsched(lane, item.duration, params.ocs_rate, eps_budget)
                served = lane - remaining
                filtered[:, receiver] -= served
            entries.append(
                MultiPathScheduleEntry(
                    matching=matching,
                    duration=item.duration,
                    composite_served=_served_since(filtered, rows, cols, before),
                    o2m_grants=o2m_grants,
                    m2o_grants=m2o_grants,
                )
            )
        return MultiPathCpSchedule(
            entries=tuple(entries),
            reconfig_delay=params.reconfig_delay,
            reduction=reduction,
            filtered_residual=filtered,
            reduced_schedule=reduced_schedule,
        )
