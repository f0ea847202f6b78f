"""Algorithm 4 — ``CPSwitchSched`` (§2.3): the full cp-Switch scheduler.

The pipeline (Figure 4 of the paper), with ``k`` composite paths per
direction (k = 1 in the paper; §4 sketches k > 1):

1. **Reduce & filter** the n×n demand ``D`` into the (n+k)×(n+k) demand
   ``DI`` and the filtered composite demand ``Df`` (Algorithm 1).
2. **Delegate** ``DI`` to any h-Switch scheduler (Solstice or Eclipse here)
   — this is the reduction that lets cp-Switch ride on the existing body of
   hybrid-switch scheduling research.
3. **Interpret** each returned configuration with DivideByType
   (Algorithm 3): circuits to or from the last k ports are composite-path
   grants.
4. **Schedule within** each granted composite path with CPSched
   (Algorithm 2) under the reserved EPS budget ``Ce*``, recording exactly
   how much of ``Df`` each configuration serves.  A grant serves its
   port's whole filtered row (one-to-many) or column (many-to-one).

The result is a :class:`CpSchedule`: an ordered list of
:class:`CompositeScheduleEntry` — the cp-Switch analogue of a plain
:class:`~repro.hybrid.schedule.Schedule` — plus the reduction artifacts and
whatever filtered demand the composite paths could not finish (it falls
back to the EPS afterwards; the simulator handles that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection

import numpy as np

from repro import obs
from repro.core.config import FilterConfig
from repro.core.cpsched import cpsched
from repro.core.divide import divide_by_type
from repro.core.reduction import ReducedDemand, reduce_with_config
from repro.hybrid.base import HybridScheduler
from repro.hybrid.schedule import Schedule
from repro.switch.params import SwitchParams
from repro.utils.validation import (
    check_demand_matrix,
    check_matching,
    check_nonnegative,
)


@dataclass(frozen=True)
class CompositeScheduleEntry:
    """One cp-Switch configuration.

    Attributes
    ----------
    matching:
        The regular OCS-OCS circuits as an ``(n,)`` matching (see
        :mod:`repro.hybrid.schedule`), stored as a read-only int64 copy.
    duration:
        Hold time (ms), reconfiguration penalty excluded.
    composite_volume:
        Filtered-demand volume (Mb) the composite paths deliver during
        this configuration — the sum of the paper's ``Df,prev − Df`` term.
    o2m_ports, m2o_ports:
        Ports granted a one-to-many / many-to-one composite path, in path
        order (empty if none; at most one each with one path).
    """

    matching: np.ndarray
    duration: float
    composite_volume: float = 0.0
    o2m_ports: "tuple[int, ...]" = ()
    m2o_ports: "tuple[int, ...]" = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "matching", check_matching(self.matching))
        check_nonnegative("duration", self.duration)
        volume = check_nonnegative("composite_volume", self.composite_volume)
        object.__setattr__(self, "composite_volume", volume)
        object.__setattr__(self, "o2m_ports", tuple(self.o2m_ports))
        object.__setattr__(self, "m2o_ports", tuple(self.m2o_ports))


@dataclass(frozen=True)
class CpSchedule:
    """Full cp-Switch schedule: interpreted configurations + provenance.

    Attributes
    ----------
    entries:
        Ordered cp-Switch configurations.
    reconfig_delay:
        OCS reconfiguration penalty δ (ms), charged before every entry.
    reduction:
        The Algorithm 1 output this schedule was derived from.
    filtered_residual:
        Part of ``Df`` the composite paths did not finish within the
        schedule (Mb); it is served by the EPS afterwards.
    reduced_schedule:
        The raw (n+k)-space schedule the h-Switch sub-scheduler produced
        (kept for the deadline ladder's warm reuse).
    """

    entries: "tuple[CompositeScheduleEntry, ...]"
    reconfig_delay: float
    reduction: ReducedDemand
    filtered_residual: np.ndarray
    reduced_schedule: Schedule

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        check_nonnegative("reconfig_delay", self.reconfig_delay)
        # The residual is provenance (the simulator parks and serves
        # ``reduction.filtered`` itself); freeze it like the reduction.
        residual = np.asarray(self.filtered_residual, dtype=np.float64)
        residual.setflags(write=False)
        object.__setattr__(self, "filtered_residual", residual)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def n_configs(self) -> int:
        """Number of OCS configurations."""
        return len(self.entries)

    @property
    def makespan(self) -> float:
        """Circuit time plus one δ per configuration (ms)."""
        return float(sum(e.duration for e in self.entries)) + self.n_configs * self.reconfig_delay

    @property
    def composite_volume_served(self) -> float:
        """Total volume (Mb) delivered over composite paths."""
        return float(sum(e.composite_volume for e in self.entries))

    @property
    def granted_ports(self) -> "tuple[tuple[str, int], ...]":
        """The ``(kind, port)`` composite grants, in first-grant order.

        ``kind`` is ``"o2m"`` or ``"m2o"``; each granted port appears once.
        """
        granted: dict[tuple[str, int], None] = {}
        for entry in self.entries:
            for port in entry.o2m_ports:
                granted[("o2m", port)] = None
            for port in entry.m2o_ports:
                granted[("m2o", port)] = None
        return tuple(granted)

    def reordered(self, order: "list[int]") -> "CpSchedule":
        """Entries permuted by ``order`` — offline execution (§4)."""
        if sorted(order) != list(range(len(self.entries))):
            raise ValueError("order must be a permutation of entry indices")
        return CpSchedule(
            entries=tuple(self.entries[i] for i in order),
            reconfig_delay=self.reconfig_delay,
            reduction=self.reduction,
            filtered_residual=self.filtered_residual,
            reduced_schedule=self.reduced_schedule,
        )


@dataclass
class CpSwitchScheduler:
    """Algorithm 4: composite-path switch scheduler.

    Wraps any :class:`~repro.hybrid.base.HybridScheduler` — the paper's
    central claim is that this wrapper is all it takes to extend h-Switch
    scheduling to the cp-Switch.

    Parameters
    ----------
    inner:
        The h-Switch scheduling algorithm used as a sub-routine.
    n_paths:
        k — composite paths per direction (the §4 extension; the paper's
        switch has one).
    filter_config:
        Resolution of the (Rt, Bt) thresholds; defaults to the paper's
        heuristic (β = 0.7, α by OCS class).
    """

    inner: HybridScheduler
    n_paths: int = 1
    filter_config: FilterConfig = field(default_factory=FilterConfig)
    #: Optional :class:`~repro.service.deadline.DeadlineBudget` polled
    #: after the Algorithm-1 reduction and before each interpretation step
    #: (duck-typed to avoid an import cycle; the inner h-Switch scheduler
    #: carries its own ``budget`` hook).  A budget that never exhausts
    #: changes nothing — checkpoints only read the clock.
    budget: "object | None" = field(default=None, repr=False, compare=False)

    @property
    def name(self) -> str:
        paths = "" if self.n_paths == 1 else self.n_paths
        return f"cp{paths}-{self.inner.name}"

    def schedule(
        self,
        demand: np.ndarray,
        params: SwitchParams,
        *,
        blocked_o2m=None,
        blocked_m2o=None,
    ) -> CpSchedule:
        """Compute the full cp-Switch schedule for ``demand``.

        ``blocked_o2m`` / ``blocked_m2o`` exclude composite ports observed
        dead (see :func:`repro.core.reduction.cp_switch_demand_reduction`):
        their rows/columns stay on the regular paths, which is how the
        epoch controller degrades a faulted cp-Switch toward an h-Switch
        instead of parking demand on hardware that cannot serve it.
        """
        demand = check_demand_matrix(demand)
        n = demand.shape[0]
        if n != params.n_ports:
            raise ValueError(f"demand is {n}x{n} but params.n_ports={params.n_ports}")

        # Step 1: reduce and filter (Algorithm 1).
        with obs.profiled("cpsched.reduce", n=n):
            reduction = reduce_with_config(
                demand,
                params,
                self.filter_config,
                blocked_o2m=blocked_o2m,
                blocked_m2o=blocked_m2o,
                n_paths=self.n_paths,
            )
        if self.budget is not None:
            # Stage marker: exhaustion surfaces at the inner scheduler's
            # own checkpoints (or the interpretation loop below).
            self.budget.checkpoint("cpsched.reduce")

        # Step 2: h-Switch scheduling of the reduced demand.
        with obs.profiled("cpsched.inner", scheduler=self.inner.name):
            reduced_schedule = self.inner.schedule(reduction.reduced, params)

        # Steps 3-4: interpret each configuration; schedule within composite
        # paths under the reserved EPS budget Ce*.
        with obs.profiled("cpsched.interpret") as interpret_span:
            cp_schedule = interpret(
                reduced_schedule, reduction, params, budget=self.budget
            )
            interpret_span.set(configs=len(cp_schedule.entries))
        entries = cp_schedule.entries

        if obs.active():
            # Schedule-quality audit: what Algorithm 4 decided, not how
            # fast — deterministic for a seeded run, so ``repro obs diff``
            # and the BENCH_obs gate treat any change as drift.
            o2m_grants = sum(len(e.o2m_ports) for e in entries)
            m2o_grants = sum(len(e.m2o_ports) for e in entries)
            composite_mb = cp_schedule.composite_volume_served
            obs.get_tracer().event(
                "cpsched.audit",
                n=n,
                configs=len(entries),
                o2m_grants=o2m_grants,
                m2o_grants=m2o_grants,
                composite_mb=composite_mb,
                residual_mb=float(cp_schedule.filtered_residual.sum()),
            )
            metrics = obs.get_metrics()
            metrics.counter(
                "cpsched_schedules_total", "cp-Switch schedule() calls"
            ).inc()
            grants = metrics.counter(
                "cpsched_composite_grants_total",
                "composite-path grants in interpreted configurations (by kind)",
            )
            if o2m_grants:
                grants.labels(kind="o2m").inc(o2m_grants)
            if m2o_grants:
                grants.labels(kind="m2o").inc(m2o_grants)
            metrics.counter(
                "cpsched_composite_volume_mb_total",
                "volume (Mb) scheduled onto composite paths",
            ).inc(composite_mb)

        return cp_schedule


def interpret(
    reduced_schedule: Schedule,
    reduction: ReducedDemand,
    params: SwitchParams,
    *,
    dead_o2m: "Collection[int]" = (),
    dead_m2o: "Collection[int]" = (),
    budget=None,
) -> CpSchedule:
    """Algorithm 4 steps 3-4: interpret a reduced-space schedule.

    Each configuration's matching is split by DivideByType (Algorithm 3,
    :func:`~repro.core.divide.divide_by_type`); each composite grant then
    serves its port's whole row (one-to-many) or column (many-to-one) of
    the filtered demand ``reduction.filtered`` with CPSched (Algorithm 2)
    under the reserved EPS budget Ce*, the one-to-many grants first, and
    the entry records what its grants served: each grant's CPSched input
    minus its output, summed.  Only the granted rows and columns of the
    one working copy of ``filtered`` change.

    Grants on ``dead_o2m`` / ``dead_m2o`` ports are stripped: the entry
    keeps its regular circuits and serves nothing over that composite path.
    ``budget`` (a :class:`~repro.service.deadline.DeadlineBudget`) is polled
    before each configuration and truncates only on a hard overdraft.
    """
    eps_budget = params.effective_eps_budget
    n = reduction.n_ports
    filtered = reduction.filtered.copy()
    entries: list[CompositeScheduleEntry] = []
    for item in reduced_schedule:
        if (
            budget is not None
            and not budget.checkpoint("cpsched.interpret")
            and budget.overdrawn()
        ):
            # Interpretation is O(n) per configuration — cheap enough to
            # finish for the prefix the budget already paid for — so it
            # only truncates on a hard overdraft.  The parked demand the
            # dropped configurations would have served merges back for the
            # EPS drain.
            break
        matching, o2m_ports, m2o_ports = divide_by_type(item.matching, n)
        rows = [port for port in o2m_ports if port not in dead_o2m]
        cols = [port for port in m2o_ports if port not in dead_m2o]
        # Views of ``filtered``: a granted column sees the rows served first.
        lines = [filtered[port] for port in rows] + [filtered[:, port] for port in cols]
        volume = 0.0
        for line in lines:
            left = cpsched(line, item.duration, params.ocs_rate, eps_budget)
            volume += float((line - left).sum())
            line[:] = left
        entries.append(
            CompositeScheduleEntry(
                matching=matching,
                duration=item.duration,
                composite_volume=volume,
                o2m_ports=tuple(rows),
                m2o_ports=tuple(cols),
            )
        )
    return CpSchedule(
        entries=tuple(entries),
        reconfig_delay=params.reconfig_delay,
        reduction=reduction,
        filtered_residual=filtered,
        reduced_schedule=reduced_schedule,
    )
