"""Deadline-aware anytime scheduling: budget, checkpoints, fallback ladder.

The epoch loop of a scheduling *service* cannot wait for Solstice or
Eclipse to converge: an epoch boundary arrives on the wall clock whether
the scheduler is done or not.  Two observations make a hard deadline
tractable without giving up schedule quality when there is time to spare:

* schedule value is incremental per configuration (Eclipse's objective is
  submodular; Solstice extracts its most valuable slices first), so a
  truncated prefix of a schedule is itself a useful schedule;
* every product of the pipeline short of a fresh schedule — last epoch's
  schedule, a naive TDM round-robin, the bare packet switch — is still a
  *valid* way to serve the demand, merely a worse one.

:class:`DeadlineBudget` turns the first observation into per-stage
checkpoints the schedulers poll (Algorithm 1 reduction, stuffing, each
BigSlice/Eclipse iteration, each interpretation step), and
:class:`AnytimeScheduler` turns the second into an explicit fallback
ladder selected when the budget runs out:

====  =================================================================
L0    the full schedule completed inside the budget
L1    truncate to the configurations produced so far; the EPS drains the
      residual (the schedulers' own ``deadline`` watchdog degradation)
L2    warm reuse — the previous epoch's reduced-space schedule is
      re-interpreted against the *current* demand (Algorithm 4 steps 3–4
      only; no h-Switch call), with grants on dead composite ports
      stripped via the fast-reroute grant machinery
L3    TDM round-robin (:class:`~repro.hybrid.tdm.TdmScheduler`) — O(n²)
      greedy edge coloring, no iterative convergence to wait for
L4    EPS-only drain (an empty schedule) — selected instead of L3 when
      the budget is *hard-overdrawn* (the scheduler blew through several
      deadlines' worth of wall clock before noticing)
====  =================================================================

The correctness spine: with ``deadline_s=None`` (or an infinite budget)
the wrapper is **bit-identical** to the unwrapped
:class:`~repro.core.scheduler.CpSwitchScheduler` — checkpoints only read
the clock, they never perturb arithmetic — and under any finite budget
every rung of the ladder yields a conservation-clean schedule
(``tests/test_deadline.py`` fuzzes both claims on both kernel backends).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.core.reduction import ReducedDemand, reduce_with_config
from repro.core.scheduler import (
    CompositeScheduleEntry,
    CpSchedule,
    CpSwitchScheduler,
    interpret,
)
from repro.hybrid.schedule import Schedule
from repro.hybrid.tdm import TdmScheduler
from repro.switch.params import SwitchParams

#: Fallback-ladder rungs (see module docstring).
FALLBACK_FULL: int = 0
FALLBACK_TRUNCATED: int = 1
FALLBACK_WARM_REUSE: int = 2
FALLBACK_TDM: int = 3
FALLBACK_EPS_ONLY: int = 4

#: Elapsed/deadline ratio past which even the TDM fallback is skipped: the
#: run is so far overdrawn that any further scheduling work steals from the
#: *next* epoch, so the EPS-only drain (zero additional work) is selected.
HARD_OVERDRAFT: float = 4.0


class TickClock:
    """Deterministic fake clock: every reading advances time by ``step``.

    Injecting it for ``DeadlineBudget(clock=...)`` makes budget exhaustion
    a function of *how many checkpoints ran*, not of machine speed — the
    tests and the ``BENCH_obs.json`` quality fingerprint both rely on that
    to get deterministic fallback levels.
    """

    def __init__(self, step: float = 1.0, start: float = 0.0) -> None:
        if not step >= 0.0:  # NaN-safe
            raise ValueError(f"step must be >= 0, got {step}")
        self.now = float(start)
        self.step = float(step)

    def __call__(self) -> float:
        reading = self.now
        self.now += self.step
        return reading

    def jump(self, dt: float) -> None:
        """Advance time without a reading (models a stall/GC pause)."""
        self.now += float(dt)


def check_deadline(deadline_s, name: str = "deadline_s") -> "float | None":
    """Validate a deadline knob: ``None``/``inf`` unbounded, else > 0."""
    if deadline_s is None:
        return None
    deadline_s = float(deadline_s)
    if math.isnan(deadline_s) or deadline_s <= 0:
        raise ValueError(
            f"{name} must be a positive number of seconds (or None for "
            f"unbounded), got {deadline_s}"
        )
    return deadline_s


class DeadlineBudget:
    """Monotonic wall-clock budget with per-stage checkpoints.

    A budget is armed with :meth:`start` and polled with
    :meth:`checkpoint`: each call reads the clock (a ``deadline_checkpoint``
    trace event when tracing is on) and returns ``False`` once the
    deadline has passed — the polling loop's signal to stop and hand back
    whatever it has.  Checkpoints are *observations only*: they read the
    clock and never touch the numbers a scheduler computes, which is what
    keeps an unexhausted budget bit-identical to no budget at all.

    Parameters
    ----------
    deadline_s:
        Budget in seconds; ``None`` or ``inf`` never exhausts.
    clock:
        Monotonic time source (injectable; see :class:`TickClock`).
        Defaults to :func:`time.perf_counter` — the highest-resolution
        monotonic clock available; duration deltas must never come from
        the steppable wall clock.
    """

    def __init__(
        self,
        deadline_s: "float | None",
        *,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.deadline_s = check_deadline(deadline_s)
        self._clock = clock
        self._start: "float | None" = None
        self._exhausted = False

    def start(self) -> "DeadlineBudget":
        """(Re)arm the budget: zero the clock and clear exhaustion."""
        self._start = self._clock()
        self._exhausted = False
        return self

    def elapsed_s(self) -> float:
        """Seconds since :meth:`start` (arming lazily on first use)."""
        if self._start is None:
            self.start()
            return 0.0
        return max(0.0, self._clock() - self._start)

    def remaining_s(self) -> float:
        """Budget left; ``inf`` when unbounded, clamped at 0."""
        if self.deadline_s is None:
            return math.inf
        return max(0.0, self.deadline_s - self.elapsed_s())

    @property
    def exhausted(self) -> bool:
        """Whether any checkpoint has observed the deadline passed."""
        return self._exhausted

    def checkpoint(self, stage: str) -> bool:
        """Poll the budget at ``stage``; ``False`` means *stop now*.

        Emits a ``deadline_checkpoint`` trace event when tracing is on, so
        a traced run shows exactly where the budget went.
        """
        elapsed = self.elapsed_s()
        if self.deadline_s is not None and elapsed >= self.deadline_s:
            self._exhausted = True
        if obs.active():
            tracer = obs.get_tracer()
            if tracer.enabled:
                tracer.event(
                    "deadline_checkpoint",
                    stage=stage,
                    elapsed_ms=elapsed * 1e3,
                    deadline_ms=(
                        self.deadline_s * 1e3
                        if self.deadline_s is not None and math.isfinite(self.deadline_s)
                        else None
                    ),
                    exhausted=self._exhausted,
                )
        return not self._exhausted

    def overdrawn(self) -> bool:
        """Whether elapsed time exceeds :data:`HARD_OVERDRAFT` × the deadline."""
        if self.deadline_s is None or not math.isfinite(self.deadline_s):
            return False
        return self.elapsed_s() >= HARD_OVERDRAFT * self.deadline_s


@dataclass(frozen=True)
class AnytimeOutcome:
    """What one :meth:`AnytimeScheduler.schedule` call decided.

    Attributes
    ----------
    fallback_level:
        Rung of the fallback ladder (``FALLBACK_FULL`` … ``FALLBACK_EPS_ONLY``).
    deadline_hit:
        Whether the budget exhausted before the full schedule completed.
    schedule_ms:
        Wall-clock time the scheduling call consumed (budget's clock).
    schedule_age_epochs:
        For warm reuse (L2): how many ``schedule()`` calls old the reused
        reduced-space schedule is; 0 for every other rung.
    detail:
        Human-readable one-liner (which rung and why).
    """

    fallback_level: int
    deadline_hit: bool
    schedule_ms: float
    schedule_age_epochs: int = 0
    detail: str = ""


def _trivial_reduction(demand: np.ndarray) -> ReducedDemand:
    """A park-nothing Algorithm-1 artifact: all demand on regular paths.

    The L3/L4 fallbacks never use composite paths, but a
    :class:`~repro.core.scheduler.CpSchedule` carries its reduction as
    provenance (and the simulator parks ``reduction.filtered``), so they
    wrap their schedules around this zero-filtered reduction.
    """
    n = demand.shape[0]
    reduced = np.zeros((n + 1, n + 1))
    reduced[:n, :n] = demand
    return ReducedDemand(reduced=reduced, filtered=np.zeros((n, n)))


@dataclass
class AnytimeScheduler:
    """Deadline-aware wrapper around :class:`CpSwitchScheduler`.

    Drop-in for the wrapped scheduler's ``schedule()`` signature; with
    ``deadline_s=None`` it delegates untouched (bit-identical output).
    With a finite budget it installs a :class:`DeadlineBudget` into the
    cp-Switch pipeline and the inner h-Switch scheduler for the duration
    of the call, then selects the best available rung of the fallback
    ladder (module docstring) and records the decision on
    :attr:`last_outcome` — the ``last_diagnostics`` idiom, so callers
    that only want a :class:`CpSchedule` never see the machinery.

    Parameters
    ----------
    inner:
        The :class:`CpSwitchScheduler` to wrap.
    deadline_s:
        Per-call wall-clock budget in seconds (``None``/``inf`` unbounded).
    clock:
        Monotonic time source for the budget (injectable for tests;
        defaults to :func:`time.perf_counter`, never the wall clock).

    Past :data:`HARD_OVERDRAFT` × the deadline, L3 (a default
    :class:`~repro.hybrid.tdm.TdmScheduler`) is skipped for L4.
    """

    inner: CpSwitchScheduler
    deadline_s: "float | None" = None
    clock: Callable[[], float] = field(default=time.perf_counter, repr=False)
    last_outcome: "AnytimeOutcome | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.deadline_s = check_deadline(self.deadline_s)
        self._previous: "tuple[CpSchedule, int] | None" = None
        self._calls = 0

    @property
    def name(self) -> str:
        return f"anytime-{self.inner.name}"

    # ------------------------------------------------------------------ #

    def schedule(
        self,
        demand: np.ndarray,
        params: SwitchParams,
        *,
        blocked_o2m=None,
        blocked_m2o=None,
    ) -> CpSchedule:
        """Schedule ``demand`` within the budget; degrade if it runs out."""
        self._calls += 1
        budget = DeadlineBudget(self.deadline_s, clock=self.clock)
        budget.start()

        if self.deadline_s is None:
            # Unbounded: the wrapped pipeline runs untouched — no budget is
            # installed anywhere, so bit-identity is structural, not tested
            # luck.
            cp_schedule = self.inner.schedule(
                demand, params, blocked_o2m=blocked_o2m, blocked_m2o=blocked_m2o
            )
            outcome = AnytimeOutcome(
                fallback_level=FALLBACK_FULL,
                deadline_hit=False,
                schedule_ms=budget.elapsed_s() * 1e3,
                detail="unbounded budget: full schedule",
            )
            self._finish(cp_schedule, outcome, remember=True)
            return cp_schedule

        h_scheduler = self.inner.inner
        saved_cp = getattr(self.inner, "budget", None)
        saved_h = getattr(h_scheduler, "budget", None)
        self.inner.budget = budget
        if hasattr(h_scheduler, "budget"):
            h_scheduler.budget = budget
        try:
            cp_schedule = self.inner.schedule(
                demand, params, blocked_o2m=blocked_o2m, blocked_m2o=blocked_m2o
            )
        finally:
            self.inner.budget = saved_cp
            if hasattr(h_scheduler, "budget"):
                h_scheduler.budget = saved_h

        if not budget.exhausted:
            outcome = AnytimeOutcome(
                fallback_level=FALLBACK_FULL,
                deadline_hit=False,
                schedule_ms=budget.elapsed_s() * 1e3,
                detail="full schedule within budget",
            )
            self._finish(cp_schedule, outcome, remember=True)
            return cp_schedule

        if len(cp_schedule.entries) > 0:
            # L1: the schedulers' own deadline watchdogs already truncated
            # the loop; the prefix is a valid schedule and the residual
            # (circuit-uncovered + parked-but-unserved) drains on the EPS.
            outcome = AnytimeOutcome(
                fallback_level=FALLBACK_TRUNCATED,
                deadline_hit=True,
                schedule_ms=budget.elapsed_s() * 1e3,
                detail=(
                    f"budget exhausted after {len(cp_schedule.entries)} "
                    "configurations; prefix kept, residual drains on the EPS"
                ),
            )
            self._finish(cp_schedule, outcome, remember=True)
            return cp_schedule

        overdrawn = budget.overdrawn()
        previous = self._previous
        if previous is not None and not overdrawn:
            prev_schedule, prev_call = previous
            if prev_schedule.reduction.n_ports == demand.shape[0] and len(
                prev_schedule.reduced_schedule
            ):
                cp_schedule, stripped = self._reinterpret(
                    prev_schedule, demand, params, blocked_o2m, blocked_m2o
                )
                age = self._calls - prev_call
                outcome = AnytimeOutcome(
                    fallback_level=FALLBACK_WARM_REUSE,
                    deadline_hit=True,
                    schedule_ms=budget.elapsed_s() * 1e3,
                    schedule_age_epochs=age,
                    detail=(
                        f"warm reuse of schedule {age} epoch(s) old"
                        + (
                            f"; {stripped} dead-port grant(s) stripped"
                            if stripped
                            else ""
                        )
                    ),
                )
                self._finish(cp_schedule, outcome, remember=False)
                return cp_schedule

        if not overdrawn:
            cp_schedule = self._tdm_schedule(demand, params)
            outcome = AnytimeOutcome(
                fallback_level=FALLBACK_TDM,
                deadline_hit=True,
                schedule_ms=budget.elapsed_s() * 1e3,
                detail="no schedule and no reusable predecessor: TDM round-robin",
            )
            self._finish(cp_schedule, outcome, remember=False)
            return cp_schedule

        cp_schedule = CpSchedule(
            entries=(),
            reconfig_delay=params.reconfig_delay,
            reduction=_trivial_reduction(demand),
            filtered_residual=np.zeros_like(demand),
            reduced_schedule=Schedule(entries=(), reconfig_delay=params.reconfig_delay),
        )
        outcome = AnytimeOutcome(
            fallback_level=FALLBACK_EPS_ONLY,
            deadline_hit=True,
            schedule_ms=budget.elapsed_s() * 1e3,
            detail=(
                f"budget overdrawn beyond {HARD_OVERDRAFT:g}x: "
                "EPS-only drain"
            ),
        )
        self._finish(cp_schedule, outcome, remember=False)
        return cp_schedule

    # ------------------------------------------------------------------ #

    def _finish(
        self, cp_schedule: CpSchedule, outcome: AnytimeOutcome, *, remember: bool
    ) -> None:
        """Record the outcome, update the warm-reuse cache, emit obs."""
        self.last_outcome = outcome
        if remember and len(cp_schedule.reduced_schedule):
            self._previous = (cp_schedule, self._calls)
        if obs.active():
            metrics = obs.get_metrics()
            if metrics.enabled:
                metrics.counter(
                    "deadline_fallback_total",
                    "anytime-scheduler outcomes by fallback-ladder level",
                ).labels(level=str(outcome.fallback_level)).inc()
                if outcome.deadline_hit:
                    metrics.counter(
                        "deadline_misses_total",
                        "scheduling calls whose wall-clock budget exhausted",
                    ).inc()
            tracer = obs.get_tracer()
            if tracer.enabled:
                tracer.event(
                    "deadline.outcome",
                    scheduler=self.name,
                    fallback_level=outcome.fallback_level,
                    deadline_hit=outcome.deadline_hit,
                    schedule_ms=outcome.schedule_ms,
                    schedule_age_epochs=outcome.schedule_age_epochs,
                    configs=len(cp_schedule.entries),
                )

    def _reinterpret(
        self,
        prev: CpSchedule,
        demand: np.ndarray,
        params: SwitchParams,
        blocked_o2m,
        blocked_m2o,
    ) -> "tuple[CpSchedule, int]":
        """L2: re-run Algorithm 4 steps 3–4
        (:func:`~repro.core.scheduler.interpret`) over the previous
        reduced-space schedule against the *current* demand.

        The expensive part of the pipeline is the inner h-Switch call; the
        reduction (O(n²)) and the interpretation (O(n) per configuration)
        are cheap enough to run even past the deadline.  Grants on ports
        the caller reports dead are stripped (counted over the grant
        inventory, :attr:`~repro.core.scheduler.CpSchedule.granted_ports`,
        that the fast-reroute planner arms) so a stale schedule can never
        park demand on hardware known unable to serve it; the blocked
        reduction leaves those rows/columns unfiltered anyway, so the
        stripped grants carry no volume.
        """
        dead_o2m = set(int(p) for p in (blocked_o2m or ()))
        dead_m2o = set(int(p) for p in (blocked_m2o or ()))
        reduction = reduce_with_config(
            demand,
            params,
            self.inner.filter_config,
            blocked_o2m=blocked_o2m,
            blocked_m2o=blocked_m2o,
            n_paths=self.inner.n_paths,
        )
        stripped = sum(
            1
            for kind, port in prev.granted_ports
            if port in (dead_o2m if kind == "o2m" else dead_m2o)
        )
        schedule = interpret(
            prev.reduced_schedule, reduction, params, dead_o2m=dead_o2m, dead_m2o=dead_m2o
        )
        return schedule, stripped

    def _tdm_schedule(self, demand: np.ndarray, params: SwitchParams) -> CpSchedule:
        """L3: wrap a TDM round-robin schedule into cp-Switch form."""
        tdm_schedule = TdmScheduler().schedule(demand, params)
        entries = tuple(
            CompositeScheduleEntry(matching=entry.matching, duration=entry.duration)
            for entry in tdm_schedule
        )
        return CpSchedule(
            entries=entries,
            reconfig_delay=params.reconfig_delay,
            reduction=_trivial_reduction(demand),
            filtered_residual=np.zeros_like(demand),
            reduced_schedule=tdm_schedule,
        )
