"""Closed-loop epoch controller — VOQ-driven online operation (§2.1).

The paper's switch model builds each scheduling round's demand matrix from
the VOQ occupancies ("The occupancy of these VOQs can be used to build the
demand matrix").  This module closes that loop for multi-epoch operation:

1. arrivals enqueue into the :class:`~repro.switch.voq.VirtualOutputQueues`;
2. at each epoch boundary the controller snapshots the occupancy, runs the
   configured scheduler (h-Switch or cp-Switch), and executes the schedule
   in the fluid simulator — to completion, or bounded by the epoch length;
3. the next epoch's arrivals accumulate (leftovers stay queued) and the
   loop runs again.

This is how a deployment would actually drive the scheduling algorithms,
and it surfaces behaviour single-shot experiments cannot: backlog
evolution under sustained load, and whether the switch *keeps up* — a
bounded epoch whose arrivals exceed its service capacity grows backlog
epoch over epoch.

With a :class:`~repro.faults.plan.FaultPlan` the loop also closes over
hardware faults: each epoch executes under a fresh realization of the plan
(stream = epoch index, so whole trajectories replay from one seed), and at
the epoch boundary the controller *detects* composite-path ports that died
during execution and excludes them from the next scheduling round — the
demand reduction's composite column/row is masked, so demand that would
have parked on dead hardware stays on the regular paths.  Stranded backlog
(volume a faulted or truncated epoch could not deliver) remains queued in
the VOQs and is retried in the next round automatically.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.core.scheduler import CpSwitchScheduler
from repro.faults.plan import FaultPlan
from repro.faults.reroute import BackupPlanner
from repro.hybrid.base import HybridScheduler
from repro.runner.journal import RunJournal
from repro.service.deadline import AnytimeScheduler, check_deadline
from repro.sim import simulate_cp, simulate_hybrid
from repro.sim.metrics import SimulationResult
from repro.switch.params import SwitchParams
from repro.switch.voq import VirtualOutputQueues
from repro.utils.validation import VOLUME_TOL, check_demand_matrix

#: An arrival process: epoch index -> demand-matrix increment (Mb).
ArrivalProcess = Callable[[int], np.ndarray]

#: Consecutive deadline misses after which backpressure engages (with
#: ``max_backlog`` set): one miss already means the epoch fell behind.
BACKPRESSURE_AFTER_MISSES: int = 1


@dataclass(frozen=True)
class EpochReport:
    """Outcome of one control epoch.

    ``stranded_volume`` is the demand this epoch scheduled but could not
    deliver (it stays queued and is retried next epoch);
    ``released_composite`` is the volume that fell back from dead composite
    paths to the regular paths during the epoch; ``dead_o2m``/``dead_m2o``
    are the composite ports known dead *after* the epoch — the next
    scheduling round excludes them.

    With fast-reroute enabled, ``backups_armed`` / ``backup_plan_ms``
    record the per-epoch backup planning, and ``reroute_swaps`` /
    ``recovery_ms`` / ``reparked_mb`` the mid-epoch swaps executed
    (``recovery_ms`` is the worst detection-to-resumption latency).

    With a scheduling deadline (``deadline_s``), ``deadline_hit`` /
    ``fallback_level`` / ``schedule_ms`` / ``schedule_age_epochs`` record
    the anytime wrapper's decision (see
    :mod:`repro.service.deadline`), and ``shed_volume`` is the arrival
    volume backpressure refused since the previous report (it is part of
    the controller's conservation ledger, never silently dropped).
    """

    epoch: int
    offered_volume: float
    served_volume: float
    completion_time: float
    n_configs: int
    makespan: float
    backlog_after: float
    stranded_volume: float = 0.0
    released_composite: float = 0.0
    dead_o2m: "tuple[int, ...]" = ()
    dead_m2o: "tuple[int, ...]" = ()
    backups_armed: int = 0
    backup_plan_ms: float = 0.0
    reroute_swaps: int = 0
    recovery_ms: float = 0.0
    reparked_mb: float = 0.0
    deadline_hit: bool = False
    fallback_level: int = 0
    schedule_ms: float = 0.0
    schedule_age_epochs: int = 0
    shed_volume: float = 0.0

    @property
    def kept_up(self) -> bool:
        """Whether the epoch drained everything that was queued.

        The residual-backlog cutoff scales with the offered volume — the
        same ``VOLUME_TOL * max(1, total)`` convention as
        :meth:`EpochController.check_conservation` — because float dust
        after serving a large epoch grows with the volumes involved: an
        absolute cutoff reports ``kept_up == False`` on a fully-drained
        1e9 Mb epoch purely from rounding.
        """
        return self.backlog_after <= VOLUME_TOL * max(1.0, self.offered_volume)


@dataclass
class EpochController:
    """Runs the schedule/execute loop over successive epochs.

    Parameters
    ----------
    params:
        Switch parameters.
    scheduler:
        The h-Switch scheduling algorithm.
    use_composite_paths:
        Schedule as a cp-Switch (Algorithm 4 wrapping ``scheduler``)
        instead of a plain h-Switch.
    epoch_duration:
        Wall-clock budget (ms) per epoch, finite and positive.  ``None``
        lets every epoch run its schedule to completion (no backlog can
        survive an epoch); a budget truncates execution and carries
        leftovers over — the sustained-load regime.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` injected into every
        epoch's execution (stream = epoch index).  Composite ports observed
        dead are excluded from all subsequent scheduling rounds.
    fast_reroute:
        Precompute a :class:`~repro.faults.reroute.BackupSet` for every
        epoch's cp-Switch schedule and arm the simulator's mid-epoch
        hot-swap: a composite-port outage recovers at the current phase
        boundary instead of degrading to an EPS-only drain for the rest of
        the epoch.  Requires ``use_composite_paths``; fault-free epochs are
        bit-identical with or without it.
    journal:
        Optional :class:`~repro.runner.journal.RunJournal` receiving one
        ``epoch`` record (the :class:`EpochReport` fields plus any
        scheduler watchdog diagnostics) per epoch, atomically — a killed
        multi-epoch run keeps every completed epoch's report on disk.
    deadline_s:
        Wall-clock budget (seconds) for *computing* each epoch's schedule.
        Arms the :class:`~repro.service.deadline.AnytimeScheduler` fallback
        ladder: on exhaustion the epoch still gets a valid schedule (a
        truncated prefix, a re-interpreted previous schedule, TDM, or an
        EPS-only drain — in that order of preference).  Requires
        ``use_composite_paths``.  ``None`` (the default) schedules
        unbounded and is bit-identical to not wrapping at all.
    deadline_clock:
        Clock read by the deadline budget; injectable (e.g. a
        :class:`~repro.service.deadline.TickClock`) for deterministic
        tests.  Defaults to :func:`time.perf_counter` — duration
        measurement must never read the steppable wall clock.
    max_backlog:
        Backpressure threshold (Mb).  When consecutive deadline misses
        reach :data:`BACKPRESSURE_AFTER_MISSES`, :meth:`offer` admits at most
        enough arrival volume to keep the VOQ backlog at this bound;
        the overflow is shed or parked per ``overflow_policy``.  ``None``
        disables backpressure (all arrivals are always admitted).
    overflow_policy:
        What to do with arrival volume refused by backpressure:
        ``"shed"`` drops it into the ``shed_volume`` ledger (reported per
        epoch and accounted by :meth:`check_conservation`); ``"park"``
        holds it outside the VOQs and re-offers it when pressure clears.
    """

    params: SwitchParams
    scheduler: HybridScheduler
    use_composite_paths: bool = False
    epoch_duration: "float | None" = None
    fault_plan: "FaultPlan | None" = None
    journal: "RunJournal | None" = None
    fast_reroute: bool = False
    deadline_s: "float | None" = None
    deadline_clock: Callable = field(default=time.perf_counter, repr=False)
    max_backlog: "float | None" = None
    overflow_policy: str = "shed"
    _voqs: VirtualOutputQueues = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.epoch_duration is not None and not math.isfinite(self.epoch_duration):
            raise ValueError(
                "epoch_duration must be finite (None runs every epoch to "
                f"completion), got {self.epoch_duration}"
            )
        if self.epoch_duration is not None and self.epoch_duration <= 0:
            raise ValueError(f"epoch_duration must be positive, got {self.epoch_duration}")
        if self.fast_reroute and not self.use_composite_paths:
            raise ValueError(
                "fast_reroute repairs composite-path outages; it requires "
                "use_composite_paths=True"
            )
        if check_deadline(self.deadline_s) is not None and not self.use_composite_paths:
            raise ValueError(
                "deadline_s arms the anytime cp-Switch fallback ladder; it "
                "requires use_composite_paths=True"
            )
        if self.max_backlog is not None:
            bound = float(self.max_backlog)
            if math.isnan(bound) or bound <= 0:
                raise ValueError(
                    f"max_backlog must be a positive volume (Mb), got {self.max_backlog}"
                )
        if self.overflow_policy not in ("shed", "park"):
            raise ValueError(
                f"overflow_policy must be 'shed' or 'park', got {self.overflow_policy!r}"
            )
        self._voqs = VirtualOutputQueues(self.params.n_ports)
        self._cp_scheduler = (
            CpSwitchScheduler(self.scheduler) if self.use_composite_paths else None
        )
        self._anytime = (
            AnytimeScheduler(
                self._cp_scheduler,
                deadline_s=self.deadline_s,
                clock=self.deadline_clock,
            )
            if self.deadline_s is not None
            else None
        )
        self._planner = (
            BackupPlanner(self._cp_scheduler) if self.fast_reroute else None
        )
        self._dead_o2m: "set[int]" = set()
        self._dead_m2o: "set[int]" = set()
        # Conservation ledger for backpressure: everything ever offered is
        # either enqueued, shed, or parked — check_conservation() audits it.
        self._offered_total = 0.0
        self._admitted_total = 0.0
        self._shed_total = 0.0
        self._shed_epoch = 0.0
        self._parked = np.zeros((self.params.n_ports, self.params.n_ports))
        self._consecutive_misses = 0

    @property
    def voqs(self) -> VirtualOutputQueues:
        return self._voqs

    @property
    def dead_composite_ports(self) -> "tuple[tuple[int, ...], tuple[int, ...]]":
        """Composite ports detected dead so far, as (o2m, m2o) tuples."""
        return tuple(sorted(self._dead_o2m)), tuple(sorted(self._dead_m2o))

    # ------------------------------------------------------------------ #

    def offer(self, arrivals: np.ndarray) -> float:
        """Enqueue an arrival demand matrix; returns the *admitted* volume.

        Without backpressure (``max_backlog=None``, the default) every
        offered byte is admitted and the return value equals the offered
        volume.  With backpressure armed and engaged (consecutive deadline
        misses ≥ :data:`BACKPRESSURE_AFTER_MISSES`), the pending volume —
        arrivals plus anything previously parked — is scaled down
        proportionally so the VOQ backlog stays at ``max_backlog``; the
        overflow is shed (``shed_volume`` ledger) or parked for a later
        offer, per ``overflow_policy``.  Shed and parked volume both stay
        on the books: :meth:`check_conservation` fails if any byte goes
        missing.
        """
        arrivals = check_demand_matrix(arrivals)
        if arrivals.shape[0] != self.params.n_ports:
            raise ValueError(
                f"arrivals are {arrivals.shape[0]}x{arrivals.shape[1]} but the "
                f"switch has {self.params.n_ports} ports"
            )
        offered = float(arrivals.sum())
        self._offered_total += offered

        # Previously parked overflow re-enters the admission decision
        # alongside fresh arrivals (oldest demand is not starved: parking
        # is matrix-shaped, so re-offers merge rather than queue behind).
        pending = arrivals + self._parked
        self._parked = np.zeros_like(self._parked)

        engaged = (
            self.max_backlog is not None
            and self._consecutive_misses >= BACKPRESSURE_AFTER_MISSES
        )
        total = float(pending.sum())
        if engaged and total > VOLUME_TOL:
            headroom = max(0.0, float(self.max_backlog) - self._voqs.backlog)
            if headroom < total:
                scale = headroom / total
                admitted_matrix = pending * scale
                overflow = pending - admitted_matrix
                if self.overflow_policy == "shed":
                    shed = float(overflow.sum())
                    self._shed_total += shed
                    self._shed_epoch += shed
                else:
                    self._parked = overflow
                pending = admitted_matrix
        admitted = float(pending.sum())
        self._admitted_total += admitted
        rows, cols = np.nonzero(pending)
        for i, j in zip(rows.tolist(), cols.tolist()):
            self._voqs.enqueue(i, j, float(pending[i, j]))
        return admitted

    @property
    def parked_volume(self) -> float:
        """Arrival volume held back by ``overflow_policy='park'`` (Mb)."""
        return float(self._parked.sum())

    @property
    def shed_volume_total(self) -> float:
        """Cumulative arrival volume shed by backpressure (Mb)."""
        return self._shed_total

    def check_conservation(self) -> None:
        """Audit the VOQs *and* the admission ledger.

        Every byte ever offered must be enqueued, shed, or parked —
        backpressure moves volume between those buckets but never loses it.
        """
        self._voqs.check_conservation()
        accounted = self._admitted_total + self._shed_total + float(self._parked.sum())
        tolerance = VOLUME_TOL * max(1.0, self._offered_total)
        if abs(self._offered_total - accounted) > tolerance:
            raise AssertionError(
                f"admission ledger broken: offered {self._offered_total:.6f} Mb "
                f"but admitted {self._admitted_total:.6f} + shed "
                f"{self._shed_total:.6f} + parked {float(self._parked.sum()):.6f} "
                f"= {accounted:.6f} Mb"
            )

    def run_epoch(self, epoch: int = 0) -> "tuple[EpochReport, SimulationResult]":
        """Snapshot the VOQs, schedule, execute (bounded by the epoch).

        Under a fault plan, execution runs against a fresh fault
        realization; afterwards the controller harvests newly dead
        composite ports (they are masked out of the next round's demand
        reduction) while stranded backlog stays queued for retry.
        """
        demand = self._voqs.occupancy.copy()
        offered = float(demand.sum())
        with obs.profiled("controller.epoch", epoch=epoch) as epoch_span:
            result = self._execute(demand, epoch)
            epoch_span.set(offered_mb=offered, configs=result.n_configs)
        residual = result.residual if result.residual is not None else np.zeros_like(demand)
        served = np.maximum(demand - residual, 0.0)
        self._voqs.serve_matrix(served)
        self._voqs.check_conservation()
        if result.fault_summary is not None:
            # Fault detection at the epoch boundary: any composite port
            # that failed during execution is excluded from future rounds.
            self._dead_o2m.update(result.fault_summary.dead_o2m_ports)
            self._dead_m2o.update(result.fault_summary.dead_m2o_ports)
        backups = getattr(self, "_last_backups", None)
        outcome = result.reroute
        anytime = (
            self._anytime.last_outcome if self._anytime is not None else None
        )
        if anytime is not None:
            if anytime.deadline_hit:
                self._consecutive_misses += 1
            else:
                self._consecutive_misses = 0
        shed_epoch = self._shed_epoch
        self._shed_epoch = 0.0
        report = EpochReport(
            epoch=epoch,
            offered_volume=offered,
            served_volume=float(served.sum()),
            completion_time=result.completion_time,
            n_configs=result.n_configs,
            makespan=result.makespan,
            backlog_after=self._voqs.backlog,
            stranded_volume=float(residual.sum()),
            released_composite=result.released_composite,
            dead_o2m=tuple(sorted(self._dead_o2m)),
            dead_m2o=tuple(sorted(self._dead_m2o)),
            backups_armed=backups.n_armed if backups is not None else 0,
            backup_plan_ms=backups.plan_seconds * 1e3 if backups is not None else 0.0,
            reroute_swaps=outcome.n_swaps if outcome is not None else 0,
            recovery_ms=outcome.recovery_ms if outcome is not None else 0.0,
            reparked_mb=outcome.reparked_mb if outcome is not None else 0.0,
            deadline_hit=anytime.deadline_hit if anytime is not None else False,
            fallback_level=anytime.fallback_level if anytime is not None else 0,
            schedule_ms=anytime.schedule_ms if anytime is not None else 0.0,
            schedule_age_epochs=(
                anytime.schedule_age_epochs if anytime is not None else 0
            ),
            shed_volume=shed_epoch,
        )
        if self.journal is not None:
            diagnostics = [
                diag.to_dict()
                for diag in getattr(self.scheduler, "last_diagnostics", [])
            ]
            self.journal.append(
                {"kind": "epoch", "report": asdict(report), "diagnostics": diagnostics}
            )
        if obs.active():
            # Per-epoch schedule-quality audit (deterministic for a seeded
            # arrival process): what the closed loop decided and carried.
            obs.get_tracer().event(
                "controller.epoch",
                epoch=epoch,
                offered_mb=offered,
                served_mb=report.served_volume,
                backlog_mb=report.backlog_after,
                stranded_mb=report.stranded_volume,
                configs=report.n_configs,
                dead_ports=len(report.dead_o2m) + len(report.dead_m2o),
                reroute_swaps=report.reroute_swaps,
                deadline_hit=report.deadline_hit,
                fallback_level=report.fallback_level,
                shed_mb=report.shed_volume,
            )
            metrics = obs.get_metrics()
            if metrics.enabled:
                metrics.counter(
                    "controller_epochs_total", "control epochs executed"
                ).inc()
                metrics.counter(
                    "controller_stranded_mb_total",
                    "volume (Mb) scheduled but not delivered, carried over",
                ).inc(report.stranded_volume)
                metrics.gauge(
                    "controller_backlog_mb", "VOQ backlog after the latest epoch"
                ).set(report.backlog_after)
                if report.shed_volume:
                    metrics.counter(
                        "controller_shed_mb_total",
                        "arrival volume (Mb) refused by backpressure",
                    ).inc(report.shed_volume)
        return report, result

    def run(self, arrivals: ArrivalProcess, n_epochs: int) -> "list[EpochReport]":
        """Drive ``n_epochs`` epochs of offer → schedule → execute."""
        if n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
        reports = []
        for epoch in range(n_epochs):
            self.offer(arrivals(epoch))
            report, _result = self.run_epoch(epoch)
            reports.append(report)
        return reports

    # ------------------------------------------------------------------ #

    def _execute(self, demand: np.ndarray, epoch: int = 0) -> SimulationResult:
        self._last_backups = None
        injector = None
        if self.fault_plan is not None:
            injector = self.fault_plan.injector(self.params.n_ports, stream=epoch)
            # Ports that died in earlier epochs stay dead — pre-seed the
            # fresh realization so no second outage draw is made for them.
            injector.mark_dead("o2m", self._dead_o2m)
            injector.mark_dead("m2o", self._dead_m2o)
        if self._cp_scheduler is not None:
            # The anytime wrapper (when armed) degrades down the fallback
            # ladder instead of blowing the epoch's scheduling budget; the
            # BackupPlanner below reads the raw cp-scheduler's filter
            # config and derives repairs from whichever schedule came back.
            cp_front = self._anytime if self._anytime is not None else self._cp_scheduler
            cp_schedule = cp_front.schedule(
                demand,
                self.params,
                blocked_o2m=self._dead_o2m or None,
                blocked_m2o=self._dead_m2o or None,
            )
            backups = None
            if self._planner is not None:
                backups = self._planner.plan(
                    demand,
                    cp_schedule,
                    self.params,
                    blocked_o2m=self._dead_o2m,
                    blocked_m2o=self._dead_m2o,
                )
            self._last_backups = backups
            return simulate_cp(
                demand,
                cp_schedule,
                self.params,
                horizon=self.epoch_duration,
                faults=injector,
                backups=backups,
            )
        schedule = self.scheduler.schedule(demand, self.params)
        return simulate_hybrid(
            demand, schedule, self.params, horizon=self.epoch_duration, faults=injector
        )
