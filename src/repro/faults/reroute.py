"""Fast-reroute: per-failure-class repairs for mid-run outage recovery.

The cp-Switch's composite paths are physical OCS ports (§2.1).  The seed
behaviour when one dies mid-schedule is graceful *degradation*: the parked
filtered demand of the dead path is released back to the regular EPS/OCS
paths and drains slowly for the rest of the epoch.  IP fast-reroute (LFA)
inverts the ordering — the repair is planned *before* the failure, so the
data plane can swap the instant the failure is detected instead of waiting
for the next control-plane round.

This module brings that pattern to cp-Switch scheduling:

* :class:`BackupPlanner` arms, for a primary
  :class:`~repro.core.scheduler.CpSchedule`, one failure class per
  *granted* composite port (the ports whose death can actually strand
  parked demand) plus a park-nothing universal fallback, bundled in a
  :class:`BackupSet`;
* :class:`RerouteRuntime` is driven by the simulator
  (:mod:`repro.sim.cp_sim`): when a granted port is discovered dead it
  selects the matching repair, re-parks the orphaned filtered demand onto
  composite paths that surviving grants of the schedule still serve, and
  strips the dead grants from the pending tail — recovery happens at the
  current phase boundary, not at the next epoch.

Repair is deliberately cheap (cf. *Costly Circuits, Submodular
Schedules*: cheap repair beats recomputation).  A full re-schedule per
failure class would re-run the inner h-Switch scheduler once per granted
port; it measured at several *hundred* percent of the primary
``h_schedule`` cost at radix 128 — the orphaned entries are individually
small, so the repair schedule degenerates into one circuit per entry,
exactly the regime composite paths exist to avoid.  The repair for a dead
port is instead Algorithm 1's demand reduction with that port blocked, run
on the full demand (so the other direction's row/column qualification keeps
its context), restricted to entries the primary itself parked and a
surviving grant of the primary schedule still covers.

That re-reduction needs no recomputation: it is the primary's ``Df`` with
one line masked.  Algorithm 1 files every small entry of a qualifying row
or column into ``Df`` — its greedy balance only picks which of the two
paths carries an entry, not whether it is filtered.  Blocking a
one-to-many port ``p`` un-qualifies row ``p`` and nothing else, so the
re-reduction keeps an entry of row ``p`` only where its column qualifies
and agrees with the primary everywhere else; a many-to-one port's column
is symmetric.  :meth:`BackupPlanner.plan` therefore computes the row/column
qualification once (:func:`~repro.core.reduction.qualifying_lines`), and
:meth:`BackupSet.repair` masks the primary's ``Df`` with it when a swap
fires.

No entropy is consumed at plan or swap time, and a run in which no outage
fires never invokes the runtime's repair path — fault-free executions with
a :class:`BackupSet` armed are bit-identical to runs without one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.config import FilterConfig
from repro.core.reduction import qualifying_lines
# Not called here; perfbench's traced run patches this module attribute.
from repro.core.reduction import reduce_with_config  # noqa: F401
from repro.utils.validation import VOLUME_TOL, check_demand_matrix

#: The swap key of the universal park-nothing fallback.
FALLBACK_KEY: str = "fallback"


def backup_key(kind: str, port: int) -> str:
    """Stable string key for a composite-port failure class."""
    if kind not in ("o2m", "m2o"):
        raise ValueError(f"kind must be 'o2m' or 'm2o', got {kind!r}")
    return f"{kind}:{int(port)}"


@dataclass(frozen=True)
class BackupSet:
    """The armed failure classes of one primary schedule.

    Attributes
    ----------
    armed:
        The primary's granted composite ports ``(kind, port)``, in
        first-grant order: one new death on any of them selects that
        port's repair.  Anything else — several simultaneous deaths, or a
        port the primary never grants — selects the fallback.
    filtered:
        The primary reduction's ``Df`` (Mb), which every repair masks.
    row_qualifies, col_qualifies:
        Algorithm 1's row/column qualification under the base-blocked
        ports (:func:`~repro.core.reduction.qualifying_lines`).
    base_blocked_o2m, base_blocked_m2o:
        The ports already known dead when the primary was scheduled — they
        are not failure *events* for this run and never trigger a swap.
    """

    armed: "tuple[tuple[str, int], ...]"
    filtered: np.ndarray
    row_qualifies: np.ndarray
    col_qualifies: np.ndarray
    base_blocked_o2m: "frozenset[int]" = frozenset()
    base_blocked_m2o: "frozenset[int]" = frozenset()
    plan_seconds: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "armed", tuple(self.armed))
        object.__setattr__(self, "base_blocked_o2m", frozenset(self.base_blocked_o2m))
        object.__setattr__(self, "base_blocked_m2o", frozenset(self.base_blocked_m2o))

    @property
    def n_armed(self) -> int:
        """Failure classes armed (the fallback excluded)."""
        return len(self.armed)

    def select(
        self,
        dead_o2m: "set[int] | frozenset[int]",
        dead_m2o: "set[int] | frozenset[int]",
        current_key: "str | None" = None,
    ) -> "str | None":
        """The key of the repair matching the current dead-port state.

        Exactly one *new* death (relative to the baseline) on an armed
        port selects that port's repair; anything else selects
        :data:`FALLBACK_KEY`.  Returns ``None`` when the matching repair is
        already active (``current_key``): there is nothing further to swap
        to.
        """
        new_dead = [("o2m", p) for p in sorted(set(dead_o2m) - self.base_blocked_o2m)]
        new_dead += [("m2o", p) for p in sorted(set(dead_m2o) - self.base_blocked_m2o)]
        if len(new_dead) == 1 and new_dead[0] in self.armed:
            key = backup_key(*new_dead[0])
        else:
            key = FALLBACK_KEY
        return None if key == current_key else key

    def repair(self, key: str, covered: np.ndarray) -> np.ndarray:
        """The demand (Mb) repair ``key`` may re-park onto ``covered`` entries.

        Algorithm 1 re-run with the key's port blocked, on the entries the
        primary parked: the primary's ``Df`` with the dead port's row
        (one-to-many) or column (many-to-one) kept only where the other
        line qualifies (see the module docstring).  ``covered`` is the
        n×n mask of entries a surviving grant still serves.  The fallback
        parks nothing.
        """
        if key == FALLBACK_KEY:
            return np.zeros_like(self.filtered)
        kind, port = key.split(":")
        keep = covered.copy()
        if kind == "o2m":
            keep[int(port), :] &= self.col_qualifies
        else:
            keep[:, int(port)] &= self.row_qualifies
        return np.where(keep, self.filtered, 0.0)


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
    ``carried_mb`` is what the repair re-parked onto surviving paths.
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


@dataclass
class BackupPlanner:
    """Arm a :class:`BackupSet` for a primary cp-Switch schedule.

    Parameters
    ----------
    scheduler:
        The :class:`~repro.core.scheduler.CpSwitchScheduler` that produced
        the primary (its :class:`~repro.core.config.FilterConfig` resolves
        the qualification thresholds).
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
        """Arm a failure class for every composite port ``primary`` grants.

        ``blocked_o2m`` / ``blocked_m2o`` are the ports already excluded
        when the primary was scheduled (the epoch controller's dead-port
        carry-over); the qualification is computed with them blocked, as
        the primary's own reduction was.  A schedule with k paths per
        direction arms the same way: each grant serves its port's whole
        filtered line, whichever path carries it.
        """
        demand = check_demand_matrix(demand)
        base_o2m = frozenset(int(p) for p in blocked_o2m)
        base_m2o = frozenset(int(p) for p in blocked_m2o)
        armed = primary.granted_ports
        started = time.perf_counter()
        with obs.profiled(
            "reroute.plan", n=demand.shape[0], granted=len(armed)
        ) as span:
            config = getattr(self.scheduler, "filter_config", None) or FilterConfig()
            _, row_qualifies, col_qualifies = qualifying_lines(
                demand,
                config.resolve_fanout_threshold(params),
                config.resolve_volume_threshold(params),
                blocked_o2m=base_o2m or None,
                blocked_m2o=base_m2o or None,
            )
            span.set(armed=len(armed))
        elapsed = time.perf_counter() - started
        if obs.active():
            obs.get_metrics().counter(
                "reroute_backups_planned_total",
                "per-failure-class backups armed",
            ).inc(len(armed))
        return BackupSet(
            armed=armed,
            filtered=primary.reduction.filtered,
            row_qualifies=row_qualifies,
            col_qualifies=col_qualifies,
            base_blocked_o2m=base_o2m,
            base_blocked_m2o=base_m2o,
            plan_seconds=elapsed,
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

    The simulator reads every configuration's grants through :meth:`strip`,
    calls :meth:`on_outage` when a granted composite path is discovered
    dead, :meth:`note_hold` at the start of every established hold phase
    (to timestamp recovery), and :meth:`note_drain` when the final
    merge-and-drain starts.  None of these touch the engine unless a swap
    actually fires, keeping fault-free runs bit-identical.
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

    # ------------------------------------------------------------------ #

    def strip(self, composites_for):
        """Wrap a composites accessor to drop grants of dead ports.

        After a swap, a later configuration re-granting the dead port must
        not release the re-parked repair demand all over again.  The
        wrapper looks the dead set up live, and that set stays empty until
        the first swap, so one wrapper applied before the run returns every
        grant until then and survives any number of swaps.
        """

        def stripped(entry):
            return [
                s
                for s in composites_for(entry)
                if (s.kind, s.port) not in self._dead_keys
            ]

        return stripped

    def on_outage(self, pending, index, alive_composites, composites_for) -> None:
        """Swap to the matching repair after an outage was discovered.

        Called right after ``_surviving_composites`` dropped (and released)
        the dead grants of the configuration at ``pending[index]``;
        ``composites_for`` is the :meth:`strip`-wrapped accessor.
        """
        injector, engine = self._injector, self._engine
        self._dead_keys = {("o2m", p) for p in injector.dead_o2m} | {
            ("m2o", p) for p in injector.dead_m2o
        }
        key = self.backups.select(
            injector.dead_o2m, injector.dead_m2o, self._active_key
        )
        if key is None:
            return
        self._active_key = key
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

        # 3. Re-park the orphans the repair can still serve, capped by the
        #    surviving grants' remaining service capacity.
        take = np.minimum(self.backups.repair(key, covered), engine.regular)
        take = self._cap_to_capacity(
            take, pending, index, alive_composites, composites_for
        )
        carried = engine.repark_composite(take)

        # 4. Recovery bookkeeping: which surviving grants cover the
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
            key=key,
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
                key=key,
                detected_ms=detected,
                released_mb=released,
                carried_mb=carried,
                abandoned_mb=abandoned,
            )
            metrics = obs.get_metrics()
            metrics.counter(
                "reroute_swaps_total", "fast-reroute swaps executed"
            ).labels(key=key).inc()
            metrics.counter(
                "reroute_reparked_mb_total",
                "volume (Mb) re-parked onto surviving composite paths",
            ).inc(carried)

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
