"""Fast-reroute: precomputed backup schedules for mid-run outage recovery.

The cp-Switch's composite paths are physical OCS ports (§2.1).  The seed
behaviour when one dies mid-schedule is graceful *degradation*: the parked
filtered demand of the dead path is released back to the regular EPS/OCS
paths and drains slowly for the rest of the epoch.  IP fast-reroute (LFA)
inverts the ordering — the repair is computed *before* the failure, so the
data plane can swap the instant the failure is detected instead of waiting
for the next control-plane round.

This module brings that pattern to cp-Switch scheduling:

* :class:`BackupPlanner` precomputes, for a primary
  :class:`~repro.core.scheduler.CpSchedule`, one :class:`BackupSchedule`
  per *granted* composite port (the failure classes that can actually
  strand parked demand) plus a universal fallback, bundled in a
  :class:`BackupSet`;
* :class:`RerouteRuntime` is driven by the simulator
  (:mod:`repro.sim.cp_sim`): when a granted port is discovered dead it
  selects the matching backup, re-parks the orphaned filtered demand onto
  composite paths that surviving grants of the schedule still serve, and
  strips the dead grants from the pending tail — recovery happens at the
  current phase boundary, not at the next epoch.

Planning is deliberately **incremental** (cf. *Costly Circuits, Submodular
Schedules*: cheap repair beats recomputation).  A full re-schedule per
backup would re-run the inner h-Switch scheduler once per granted port; it
measured at several *hundred* percent of the primary ``h_schedule`` cost at
radix 128 — the orphaned entries are individually small, so the repair
schedule degenerates into one circuit per entry, exactly the regime
composite paths exist to avoid.  The incremental backup instead re-runs
only Algorithm 1's demand reduction with the dead port blocked (so the
*other* direction's row/column qualification is judged against the full
demand, not the orphan delta) and reuses the primary schedule's surviving
grants to serve the re-parked demand: measured well under 10 % of
``h_schedule``.

No entropy is consumed at plan or swap time, and a run in which no outage
fires never invokes the runtime's repair path — fault-free executions with
a :class:`BackupSet` armed are bit-identical to runs without one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.reduction import reduce_with_config
from repro.utils.validation import VOLUME_TOL, check_demand_matrix

#: The :class:`BackupSchedule` key of the universal fallback.
FALLBACK_KEY: str = "fallback"


def backup_key(kind: str, port: int) -> str:
    """Stable string key for a composite-port failure class."""
    if kind not in ("o2m", "m2o"):
        raise ValueError(f"kind must be 'o2m' or 'm2o', got {kind!r}")
    return f"{kind}:{int(port)}"


@dataclass(frozen=True)
class BackupSchedule:
    """One precomputed repair, valid under one failure class.

    Attributes
    ----------
    key:
        ``"o2m:<port>"`` / ``"m2o:<port>"`` for a composite-port outage,
        or :data:`FALLBACK_KEY` for the park-nothing universal fallback.
    filtered:
        n×n matrix (Mb) of demand that *may* ride composite paths under
        this failure class — Algorithm 1's ``Df`` re-derived with the dead
        port blocked, masked (for incremental backups) to entries a
        surviving grant of the primary schedule can serve *and* that the
        primary reduction itself parked.  At swap time the engine parks
        ``min(filtered, regular residual)``, further capped by the
        surviving grants' remaining service capacity.
    blocked_o2m, blocked_m2o:
        The composite ports this backup assumes unusable (baseline dead
        ports plus the failure class itself).
    """

    key: str
    filtered: np.ndarray
    blocked_o2m: "frozenset[int]" = frozenset()
    blocked_m2o: "frozenset[int]" = frozenset()

    def __post_init__(self) -> None:
        filtered = np.asarray(self.filtered, dtype=np.float64)
        filtered.setflags(write=False)
        object.__setattr__(self, "filtered", filtered)
        object.__setattr__(self, "blocked_o2m", frozenset(self.blocked_o2m))
        object.__setattr__(self, "blocked_m2o", frozenset(self.blocked_m2o))

    @property
    def parkable_volume(self) -> float:
        """Upper bound (Mb) on the demand this backup can re-park."""
        return float(self.filtered.sum())


@dataclass(frozen=True)
class BackupSet:
    """All precomputed backups for one primary schedule.

    ``per_port`` maps each granted composite path's ``(kind, port)`` to its
    backup; ``fallback`` covers everything else (unplanned ports, multiple
    simultaneous deaths).  ``base_blocked_*`` are the ports already known
    dead when the primary was scheduled — they are not failure *events* for
    this run and never trigger a swap.
    """

    per_port: "dict[tuple[str, int], BackupSchedule]"
    fallback: BackupSchedule
    base_blocked_o2m: "frozenset[int]" = frozenset()
    base_blocked_m2o: "frozenset[int]" = frozenset()
    plan_seconds: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_port", dict(self.per_port))
        object.__setattr__(self, "base_blocked_o2m", frozenset(self.base_blocked_o2m))
        object.__setattr__(self, "base_blocked_m2o", frozenset(self.base_blocked_m2o))

    @property
    def n_armed(self) -> int:
        """Per-failure-class backups precomputed (fallback excluded)."""
        return len(self.per_port)

    def select(
        self,
        dead_o2m: "set[int] | frozenset[int]",
        dead_m2o: "set[int] | frozenset[int]",
        current_key: "str | None" = None,
    ) -> "BackupSchedule | None":
        """The backup matching the current dead-port state.

        Exactly one *new* death (relative to the baseline) with an armed
        backup selects that backup; anything else — several simultaneous
        deaths, or a death the planner never saw granted — selects the
        fallback.  Returns ``None`` when the matching backup is already
        active (``current_key``): there is nothing further to swap to.
        """
        new_dead = [("o2m", p) for p in sorted(set(dead_o2m) - self.base_blocked_o2m)]
        new_dead += [("m2o", p) for p in sorted(set(dead_m2o) - self.base_blocked_m2o)]
        if len(new_dead) == 1 and new_dead[0] in self.per_port:
            backup = self.per_port[new_dead[0]]
        else:
            backup = self.fallback
        if backup.key == current_key:
            return None
        return backup


@dataclass(frozen=True)
class SwapEvent:
    """One executed fast-reroute swap.

    ``detected_ms`` is the phase boundary at which the outage surfaced
    (grants are checked right after the reconfiguration gap);
    ``resumed_ms`` is when service of the re-parked demand resumed — the
    start of the first established hold phase granting a composite path
    that covers it, or the final-drain start, whichever comes first
    (``nan`` if the horizon truncated the run before either).
    ``released_mb`` is what the outage stranded off the dead path;
    ``carried_mb`` is what the backup re-parked onto surviving paths.
    """

    key: str
    detected_ms: float
    resumed_ms: float
    released_mb: float
    carried_mb: float

    @property
    def recovery_ms(self) -> float:
        """Detection-to-resumption latency (ms); 0 for instant recovery."""
        return self.resumed_ms - self.detected_ms


@dataclass(frozen=True)
class RerouteOutcome:
    """Fast-reroute bookkeeping attached to a simulation result."""

    swaps: "tuple[SwapEvent, ...]" = ()
    backups_armed: int = 0

    @property
    def n_swaps(self) -> int:
        return len(self.swaps)

    @property
    def reparked_mb(self) -> float:
        """Total volume (Mb) re-parked onto surviving composite paths."""
        return float(sum(s.carried_mb for s in self.swaps))

    @property
    def recovery_ms(self) -> float:
        """Worst-case swap recovery latency (ms); 0.0 with no swaps."""
        if not self.swaps:
            return 0.0
        return max(s.recovery_ms for s in self.swaps)

    def to_dict(self) -> dict:
        """JSON-ready form for journals and traces."""
        return {
            "n_swaps": self.n_swaps,
            "backups_armed": self.backups_armed,
            "reparked_mb": self.reparked_mb,
            "recovery_ms": self.recovery_ms,
            "swaps": [
                {
                    "key": s.key,
                    "detected_ms": s.detected_ms,
                    "resumed_ms": s.resumed_ms,
                    "released_mb": s.released_mb,
                    "carried_mb": s.carried_mb,
                }
                for s in self.swaps
            ],
        }


def _granted_ports(entries) -> "list[tuple[str, int]]":
    """The ``(kind, port)`` composite grants of a base cp-Switch schedule,
    in first-grant order (deduplicated)."""
    granted: list[tuple[str, int]] = []
    seen: set[tuple[str, int]] = set()
    for entry in entries:
        for kind, port in (("o2m", entry.o2m_port), ("m2o", entry.m2o_port)):
            if port is not None and (kind, port) not in seen:
                seen.add((kind, port))
                granted.append((kind, int(port)))
    return granted


@dataclass
class BackupPlanner:
    """Precompute a :class:`BackupSet` for a primary cp-Switch schedule.

    Parameters
    ----------
    scheduler:
        The :class:`~repro.core.scheduler.CpSwitchScheduler` that produced
        the primary (its :class:`~repro.core.config.FilterConfig` drives
        the backup reductions).
    """

    scheduler: "object"

    def plan(
        self,
        demand: np.ndarray,
        primary,
        params,
        *,
        blocked_o2m=(),
        blocked_m2o=(),
    ) -> BackupSet:
        """Backups for every composite port ``primary`` actually grants.

        ``blocked_o2m`` / ``blocked_m2o`` are the ports already excluded
        when the primary was scheduled (the epoch controller's dead-port
        carry-over); each backup blocks them *plus* its own failure class.
        Only base (single path per direction) cp-Switch schedules are
        supported — the k-path extension's lanes change what a surviving
        grant may serve.
        """
        demand = check_demand_matrix(demand)
        base_o2m = frozenset(int(p) for p in blocked_o2m)
        base_m2o = frozenset(int(p) for p in blocked_m2o)
        granted = _granted_ports(primary.entries)
        started = time.perf_counter()
        with obs.profiled(
            "reroute.plan", n=demand.shape[0], granted=len(granted)
        ) as span:
            per_port: dict[tuple[str, int], BackupSchedule] = {}
            for kind, port in granted:
                per_port[(kind, port)] = self._plan_port(
                    demand, primary, params, kind, port, base_o2m, base_m2o
                )
            fallback = BackupSchedule(
                key=FALLBACK_KEY,
                filtered=np.zeros_like(demand),
                blocked_o2m=base_o2m,
                blocked_m2o=base_m2o,
            )
            span.set(armed=len(per_port))
        elapsed = time.perf_counter() - started
        if obs.active():
            obs.get_metrics().counter(
                "reroute_backups_planned_total",
                "per-failure-class backup schedules precomputed",
            ).inc(len(per_port))
        return BackupSet(
            per_port=per_port,
            fallback=fallback,
            base_blocked_o2m=base_o2m,
            base_blocked_m2o=base_m2o,
            plan_seconds=elapsed,
        )

    def _plan_port(
        self,
        demand: np.ndarray,
        primary,
        params,
        kind: str,
        port: int,
        base_o2m: "frozenset[int]",
        base_m2o: "frozenset[int]",
    ) -> BackupSchedule:
        blocked_o2m = base_o2m | ({port} if kind == "o2m" else frozenset())
        blocked_m2o = base_m2o | ({port} if kind == "m2o" else frozenset())
        # Incremental repair: re-run only the Algorithm 1 reduction with
        # the failure class blocked.  The full demand matrix is passed so
        # row/column qualification keeps its original context — re-reducing
        # just the orphaned delta would find no qualifying fan-out at all.
        reduction = reduce_with_config(
            demand,
            params,
            getattr(self.scheduler, "filter_config", None),
            blocked_o2m=blocked_o2m or None,
            blocked_m2o=blocked_m2o or None,
        )
        # Only entries some *surviving* grant of the primary can serve may
        # be parked: the engine's composite service covers the whole
        # row/column of a granted port, so an entry is servable iff its row
        # has a surviving o2m grant or its column a surviving m2o grant.
        # And only entries the *primary* reduction also parked: the
        # primary's regular tail was scheduled with everything else on the
        # packet/circuit paths, so parking a newly-filtered entry would
        # idle the circuits that expect it and trade Co-rate service for a
        # Ce*-rate composite hop.
        n = demand.shape[0]
        primary_parked = primary.reduction.filtered > VOLUME_TOL
        row_granted = np.zeros(n, dtype=bool)
        col_granted = np.zeros(n, dtype=bool)
        for g_kind, g_port in _granted_ports(primary.entries):
            if (g_kind, g_port) == (kind, port):
                continue
            if g_kind == "o2m":
                row_granted[g_port] = True
            else:
                col_granted[g_port] = True
        parkable = np.where(
            (row_granted[:, None] | col_granted[None, :]) & primary_parked,
            reduction.filtered,
            0.0,
        )
        return BackupSchedule(
            key=backup_key(kind, port),
            filtered=parkable,
            blocked_o2m=blocked_o2m,
            blocked_m2o=blocked_m2o,
        )


@dataclass
class _OpenSwap:
    """A swap whose re-parked demand has not been served yet."""

    key: str
    detected_ms: float
    released_mb: float
    carried_mb: float
    covering: "set[tuple[str, int]]" = field(default_factory=set)


class RerouteRuntime:
    """Per-run swap executor, driven by :func:`repro.sim.cp_sim._run`.

    The simulator calls :meth:`on_outage` when a granted composite path is
    discovered dead, :meth:`note_hold` at the start of every established
    hold phase (to timestamp recovery), and :meth:`note_drain` when the
    final merge-and-drain starts.  None of these touch the engine unless a
    swap actually fires, keeping fault-free runs bit-identical.
    """

    def __init__(self, backups: BackupSet, engine, injector) -> None:
        self.backups = backups
        self._engine = engine
        self._injector = injector
        self._active_key: "str | None" = None
        self._released_seen = injector.summary.released_composite
        self._dead_keys: "set[tuple[str, int]]" = set()
        self._open: "list[_OpenSwap]" = []
        self._events: "list[SwapEvent]" = []
        self._swapped = False

    # ------------------------------------------------------------------ #

    @property
    def swapped(self) -> bool:
        """Whether any swap has fired in this run."""
        return self._swapped

    def strip(self, composites_for):
        """Wrap a composites accessor to drop grants of dead ports.

        Applied to the pending tail after a swap so a later configuration
        re-granting the dead port cannot release the re-parked repair
        demand all over again.  Looks the dead set up live, so one wrapper
        survives any number of swaps.
        """

        def stripped(entry):
            return [
                s
                for s in composites_for(entry)
                if (s.kind, s.port) not in self._dead_keys
            ]

        stripped.__wrapped_by_reroute__ = True  # idempotence marker
        return stripped

    def on_outage(self, pending, index, alive_composites, composites_for):
        """Swap to the matching backup after an outage was discovered.

        Called right after ``_surviving_composites`` dropped (and released)
        the dead grants of the configuration at ``pending[index]``.
        Returns the composites accessor for the pending tail, stripped of
        dead grants.
        """
        injector, engine = self._injector, self._engine
        self._dead_keys = {("o2m", p) for p in injector.dead_o2m} | {
            ("m2o", p) for p in injector.dead_m2o
        }
        backup = self.backups.select(
            injector.dead_o2m, injector.dead_m2o, self._active_key
        )
        if backup is None:
            return composites_for
        self._swapped = True
        self._active_key = backup.key
        detected = engine.clock
        released = injector.summary.released_composite - self._released_seen
        self._released_seen = injector.summary.released_composite

        # 1. Coverage from the *remaining* schedule: a grant that only ever
        #    occurred in an already-executed configuration cannot serve
        #    anything again, so parking demand against it would strand the
        #    demand until the final drain.
        remaining = {
            (s.kind, s.port) for e in pending[index + 1 :] for s in composites_for(e)
        }
        remaining |= {(s.kind, s.port) for s in alive_composites}
        remaining -= self._dead_keys
        n = engine.n
        row_covered = np.zeros(n, dtype=bool)
        col_covered = np.zeros(n, dtype=bool)
        for g_kind, g_port in remaining:
            if g_kind == "o2m":
                row_covered[g_port] = True
            else:
                col_covered[g_port] = True
        covered = row_covered[:, None] | col_covered[None, :]

        # 2. Consolidate.  Covered parked demand stays exactly where the
        #    primary put it (its grants still serve it); only the composite
        #    residual no surviving grant will ever cover again is
        #    *abandoned* to the EPS — otherwise that volume sits parked and
        #    unservable until the horizon.  The dead row/column itself was
        #    already released by the engine, so the orphans are on the
        #    regular paths and step 3 re-parks only them (covered parked
        #    cells have no regular residual to take).
        abandoned = engine.merge_composite_into_regular(mask=~covered)

        # 3. Re-park the orphans the backup can still serve, capped by the
        #    surviving grants' remaining service capacity.
        parkable = np.where(covered, backup.filtered, 0.0)
        take = np.minimum(parkable, engine.regular)
        take = self._cap_to_capacity(
            take, pending, index, alive_composites, composites_for
        )
        carried = engine.repark_composite(take)

        # 4. Strip the dead grants from the pending tail.
        if not getattr(composites_for, "__wrapped_by_reroute__", False):
            composites_for = self.strip(composites_for)

        # 5. Recovery bookkeeping: which surviving grants cover the
        #    re-parked demand, for the resumed_ms timestamp.
        parked_mask = take > VOLUME_TOL
        covering: set[tuple[str, int]] = set()
        if parked_mask.any():
            parked_rows = parked_mask.any(axis=1)
            parked_cols = parked_mask.any(axis=0)
            for g_kind, g_port in remaining:
                hit = parked_rows[g_port] if g_kind == "o2m" else parked_cols[g_port]
                if hit:
                    covering.add((g_kind, g_port))
        swap = _OpenSwap(
            key=backup.key,
            detected_ms=detected,
            released_mb=released,
            carried_mb=carried,
            covering=covering,
        )
        if carried <= 0.0:
            # Nothing re-parked: recovery is instantaneous — the orphaned
            # demand is already on the regular paths being served.
            self._close(swap, detected)
        else:
            self._open.append(swap)
        if obs.active():
            obs.get_tracer().event(
                "sim.reroute_swap",
                key=backup.key,
                detected_ms=detected,
                released_mb=released,
                carried_mb=carried,
                abandoned_mb=abandoned,
            )
            metrics = obs.get_metrics()
            metrics.counter(
                "reroute_swaps_total", "fast-reroute swaps executed"
            ).labels(key=backup.key).inc()
            metrics.counter(
                "reroute_reparked_mb_total",
                "volume (Mb) re-parked onto surviving composite paths",
            ).inc(carried)
        return composites_for

    def _cap_to_capacity(self, take, pending, index, alive_composites, composites_for):
        """Cap the re-parked volume by what surviving grants can still serve.

        Demand parked on a composite path is only served while a covering
        grant holds, at most at the OCS line rate — everything beyond
        ``remaining hold time x ocs_rate`` would just sit parked while the
        EPS could have been draining it.  Rows are capped proportionally
        against their remaining one-to-many hold budget; whatever a row
        cannot absorb falls through to the column's many-to-one budget, and
        the rest stays on the regular paths.  With ample capacity (the
        covering-workload case) this is the identity.
        """
        total = float(take.sum())
        if total <= VOLUME_TOL:
            return take
        engine = self._engine
        n = engine.n
        rate = engine.params.ocs_rate
        row_ms = np.zeros(n)
        col_ms = np.zeros(n)
        for entry in pending[index + 1 :]:
            for grant in composites_for(entry):
                if (grant.kind, grant.port) in self._dead_keys:
                    continue
                if grant.kind == "o2m":
                    row_ms[grant.port] += entry.duration
                else:
                    col_ms[grant.port] += entry.duration
        # The imminent hold of the current configuration serves too.
        for grant in alive_composites:
            if grant.kind == "o2m":
                row_ms[grant.port] += pending[index].duration
            else:
                col_ms[grant.port] += pending[index].duration
        # Per-entry the CPSched rate is min(Ce*, Co/active_count): a cell
        # can never drain faster than Ce* over its covering hold time, and
        # a whole grant never faster than Co.
        budget = engine.params.effective_eps_budget
        take = np.minimum(take, (row_ms[:, None] + col_ms[None, :]) * budget)
        row_cap = row_ms * rate
        col_cap = col_ms * rate

        row_sum = take.sum(axis=1)
        row_scale = np.ones(n)
        over = row_sum > VOLUME_TOL
        row_scale[over] = np.minimum(1.0, row_cap[over] / row_sum[over])
        by_row = take * row_scale[:, None]
        spill = take - by_row
        col_sum = spill.sum(axis=0)
        col_scale = np.ones(n)
        over = col_sum > VOLUME_TOL
        col_scale[over] = np.minimum(1.0, col_cap[over] / col_sum[over])
        return by_row + spill * col_scale[None, :]

    def note_hold(self, alive_composites) -> None:
        """Timestamp recovery at the start of an established hold phase."""
        if not self._open or not alive_composites:
            return
        keys = {(s.kind, s.port) for s in alive_composites}
        clock = self._engine.clock
        still_open = []
        for swap in self._open:
            if swap.covering & keys:
                self._close(swap, clock)
            else:
                still_open.append(swap)
        self._open = still_open

    def note_drain(self) -> None:
        """The final merge-and-drain serves everything still parked."""
        clock = self._engine.clock
        for swap in self._open:
            self._close(swap, clock)
        self._open = []

    def _close(self, swap: _OpenSwap, resumed_ms: float) -> None:
        self._events.append(
            SwapEvent(
                key=swap.key,
                detected_ms=swap.detected_ms,
                resumed_ms=resumed_ms,
                released_mb=swap.released_mb,
                carried_mb=swap.carried_mb,
            )
        )

    def outcome(self) -> RerouteOutcome:
        """Freeze the bookkeeping (horizon-truncated swaps get ``nan``)."""
        events = list(self._events)
        for swap in self._open:
            events.append(
                SwapEvent(
                    key=swap.key,
                    detected_ms=swap.detected_ms,
                    resumed_ms=float("nan"),
                    released_mb=swap.released_mb,
                    carried_mb=swap.carried_mb,
                )
            )
        events.sort(key=lambda e: e.detected_ms)
        return RerouteOutcome(
            swaps=tuple(events), backups_armed=self.backups.n_armed
        )
