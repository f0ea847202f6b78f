"""The fluid event-driven execution engine.

Time advances from one *rate-change event* to the next.  Within a phase
(fixed OCS configuration, or a reconfiguration gap, or the final EPS-only
drain) the set of service rates is constant until some entry drains, so the
engine repeatedly:

1. computes every mechanism's current rates —
   * regular OCS circuits serve their matched entry at ``Co``;
   * each active composite path serves its remaining filtered entries at
     the CPSched rate ``min(Ce*, Co / active_count)`` per endpoint,
     reserving that rate on the EPS links it traverses (§2.3,
     "EPS Reservation");
   * the EPS serves all other residual regular demand with max-min fair
     rates under the remaining per-port capacities;
2. advances to the earliest of (entry drains, phase ends);
3. books served volume per mechanism and records finish times.

Every event drains at least one entry or ends the phase, so the engine
performs O(non-zero entries + phases) rate computations per simulation.

Hot-path layout: all state lives in flat 1-D arrays over the *support* —
the entries that can ever carry volume (``demand > VOLUME_TOL``, refreshed
whenever volume moves between the two matrices).  The engine's residuals
are one flat vector (regular residuals, then composite ones), gathered
from the ``regular`` / ``composite`` matrices when the support is rebuilt
and carried from phase to phase; the matrices are written back only when
something reads them or volume moves between them (a put and a take over
distinct keys are inverse, so the values are the same bits).  The seed
implementation instead rebuilt full n×n rate matrices on every event (see
:mod:`repro.sim.reference` for that frozen baseline).  The support's flat
indices are stored row-major sorted, which makes each row a contiguous
slice (one-to-many composite paths) and keeps the EPS flow ordering
identical to a full-matrix ``np.nonzero`` — the flat engine's event
sequence, drains and finish times are bit-identical to the reference
engine's.

Per-event work: an event touches only the *served* residuals — live
circuits, EPS flows with a positive rate and live composite entries, kept
with their rates between events.  It divides them by their rates for the
next drain, advances them and checks them for drains; nothing else
changes while time advances, so nothing else is touched.  After a drain
only what depends on the drained residual is recomputed:

* a circuit drain removes that circuit; every other rate and the last
  waterfill stay as they are (circuits reserve no EPS capacity, and a
  drained circuit entry is no EPS flow);
* an EPS drain removes that flow and solves the waterfill again under the
  same capacities (on the flow graph's quotient, once the phase drains by
  rate class; see below);
* a composite drain recomputes the phase's composite rates and EPS
  reservations, in grant order as before, and the waterfill if the
  capacities moved;
* a dust snap recomputes everything, as a phase start does.

Each rule recomputes a quantity exactly when its inputs change, from the
same inputs by the same operations, so the rates, totals and drains are
the ones a full recomputation gives, bit for bit.  One full-support pass
remains: the first advance after the support is rebuilt snaps the
sub-tolerance dust that :meth:`FluidEngine.assign_composite`,
``merge_composite_into_regular``, ``release_composite`` or
``repark_composite`` can leave; from then on every support residual is
either zero or above ``VOLUME_TOL``, and only served ones change.

Rate classes: a phase can hand its rest to :meth:`FluidEngine._drain_by_class`,
which serves every live residual by *rate class*: a set of residuals that
share one rate.  The live circuits at ``Co`` are one class.  The others
are either composite or EPS classes:

* *Composite classes*, once a phase has no EPS flow left and no degraded
  port (``eps_port_scale is None``), and no dust is pending: nothing is
  left to share the EPS, and CPSched gives every live entry of a path the
  same share.  The live composite entries are grouped by the set of
  grants that serve them (an entry on an o2m and an m2o grant is its own
  class, at the two shares summed in grant order).  A composite drain
  changes only its grants' live counts, so the shares
  ``min(Ce*, Co / count)``, the class rates and the composite total
  ``sum(share * count)`` follow from scalars in grant order, with no pass
  over the grants' entries.
* *EPS classes*, from the first EPS drain of a phase with no degraded
  port and no composite entry served: every EPS port then has capacity
  ``Ce``, and the EPS flows are grouped by the classes of their
  :class:`~repro.sim.rates.HubLeafQuotient` (a hub–hub flow, the
  one-flow ports at one hub, or the isolated pairs).  An EPS drain solves
  the few-node quotient again with Python scalars, which gives every flow
  the bits :func:`~repro.sim.rates.max_min_fair_rates` gives it, and the
  EPS total is still the sum of the per-flow rate vector of the live
  flows, in flow order.  The loop enters at an EPS drain, the event at
  which the general loop would solve again, not at a phase start: a
  configuration phase's two or three events cannot repay a quotient and
  a sort.  A quotient with more than
  :data:`~repro.sim.rates.QUOTIENT_MAX_HUBS` hub ports is refused, and
  the phase stays on the general loop without trying again.

The classes are sorted by residual once, as runs of one block that each
event advances with one vector operation.  A class's members all fall by
the same ``rate * dt``, and subtraction and division by a positive rate
are monotone under rounding, so the order holds: the next drain time is
the least head / rate, and a class's drained members are a prefix, found
with one ``searchsorted``.  Each residual goes through the same
operations as in the general loop, in the same order, so the results are
the same bits.  A dust residual met on the way goes back to the general
loop, which snaps it.  Phases with degraded ports, or with EPS flows and
composite entries both served, stay on the general loop:
there a composite drain moves the EPS capacities and re-solves the
waterfill under unequal capacities.

Fixed per-phase work matters as much as per-event work: an h-Switch run
at radix 256 has only about two events per phase.  A phase takes its
circuits as a matching (entry ``i`` the output of input ``i``'s circuit,
-1 for none), which every schedule entry carries from construction.  Its
inputs in ascending order give the same row-major keys ``row*n + col``
as a scan of the permutation matrix would, and checking it — shape
``(n,)``, values in ``[-1, n)``, no output used twice — is O(n), so a
configuration costs O(n) plus the entries it serves.

The EPS waterfill is solved again only when its inputs change.  The engine
keeps the last solve with its exact inputs (the flow positions and the
per-port capacities left after composite reservations) and reuses the
rates while they match.  A circuit drain changes neither input, nor does a
reconfiguration gap after a configuration whose circuits all drained; equal
inputs give equal rates, so the reuse is exact.  Flow positions change
meaning only when the support is rebuilt, which drops the memo.

Demand placement: an entry's residual lives in exactly one of two matrices —
``regular`` (served by circuits + EPS) or ``composite`` (served only by
composite paths while the schedule runs).  ``merge_composite_into_regular``
moves unfinished composite residual back to the EPS for the final drain,
matching the paper's model where filtered traffic not completed by the
composite paths is ordinary packet traffic.  Entries at or below
``VOLUME_TOL`` are dust: they are never served and never counted as
demanded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.sim.metrics import RateSegment, SimulationResult
from repro.sim.rates import HubLeafQuotient, hub_leaf_quotient, max_min_fair_rates
from repro.switch.params import SwitchParams
from repro.utils.validation import VOLUME_TOL, check_demand_matrix, check_matching

#: Durations shorter than this (ms) are treated as elapsed.
TIME_TOL: float = 1e-12

_EMPTY_POS = np.empty(0, dtype=np.int64)
_EMPTY_RATES = np.empty(0)


@dataclass(frozen=True)
class CompositeService:
    """An active composite path inside one phase.

    Attributes
    ----------
    kind:
        ``"o2m"`` (one-to-many: ``port`` is the sender) or ``"m2o"``
        (many-to-one: ``port`` is the receiver).
    port:
        The granted port index; the path serves its whole filtered row
        (``"o2m"``) or column (``"m2o"``), as Algorithm 4 does.
    """

    kind: str
    port: int

    def __post_init__(self) -> None:
        if self.kind not in ("o2m", "m2o"):
            raise ValueError(f"kind must be 'o2m' or 'm2o', got {self.kind!r}")
        if self.port < 0:
            raise ValueError(f"port must be non-negative, got {self.port}")


class FluidEngine:
    """Stateful fluid executor for one demand matrix on one switch."""

    def __init__(self, demand: np.ndarray, params: SwitchParams) -> None:
        demand = check_demand_matrix(demand)
        if demand.shape[0] != params.n_ports:
            raise ValueError(
                f"demand is {demand.shape[0]}x{demand.shape[1]} but "
                f"params.n_ports={params.n_ports}"
            )
        self.params = params
        self.n = params.n_ports
        self._regular = demand.copy()
        self._composite = np.zeros_like(demand)
        self.demanded = demand > VOLUME_TOL
        self.finish_times = np.full(demand.shape, np.nan)
        self.clock = 0.0
        self.segments: list[RateSegment] = []
        self.served_ocs_direct = 0.0
        self.served_composite = 0.0
        self.served_eps = 0.0
        self.total_demand = float(demand.sum())
        self.released_composite = 0.0
        self._dust_snaps = 0
        self._rebuild_support()

    # ------------------------------------------------------------------ #
    # residual matrices
    # ------------------------------------------------------------------ #

    @property
    def regular(self) -> np.ndarray:
        """Residual demand on the regular paths (n×n, Mb), read-only."""
        return self._matrix(self._regular)

    @property
    def composite(self) -> np.ndarray:
        """Residual filtered demand parked on composite paths (n×n, Mb),
        read-only."""
        return self._matrix(self._composite)

    def _matrix(self, matrix: np.ndarray) -> np.ndarray:
        self._write_back()
        view = matrix.view()
        view.flags.writeable = False
        return view

    def _write_back(self) -> None:
        """Scatter the flat residual into the matrices, if they lag it.

        Between phases the flat residual is the engine's state; the
        matrices are written only when something reads them or volume
        moves between them.
        """
        if self._matrices_stale:
            np.put(self._regular, self._flat, self._residual[: self._nnz])
            np.put(self._composite, self._flat, self._residual[self._nnz :])
            self._matrices_stale = False

    # ------------------------------------------------------------------ #
    # support bookkeeping
    # ------------------------------------------------------------------ #

    def _rebuild_support(self) -> None:
        """Re-derive the flat index bookkeeping from the current matrices.

        Called whenever volume moves between matrices outside a phase
        (construction, ``assign_composite``, ``merge_composite_into_regular``,
        ``release_composite``, ``repark_composite``) so the flat arrays
        always cover every entry that can still carry volume.  The caller
        has written the flat residual back before moving volume.
        """
        support = (self._regular > VOLUME_TOL) | (self._composite > VOLUME_TOL)
        rows, cols = np.nonzero(support)
        n = self.n
        self._rows = rows
        self._cols = cols
        self._nnz = rows.size
        # Row-major nonzero order makes the flat keys strictly increasing,
        # each row a contiguous slice, and the EPS flow order identical to
        # a full-matrix np.nonzero scan.
        self._flat = rows * np.int64(n) + cols
        self._row_start = np.searchsorted(rows, np.arange(n + 1))
        self._col_order = np.argsort(cols, kind="stable")
        self._col_start = np.searchsorted(cols[self._col_order], np.arange(n + 1))
        self._flat_demanded = self.demanded[rows, cols]
        # The residuals: regular at support position p, composite at
        # nnz + p, so one index array addresses every served residual.
        # Gathered from the matrices here, then carried from phase to phase.
        self._residual = np.concatenate(
            (self._regular.take(self._flat), self._composite.take(self._flat))
        )
        self._matrices_stale = False
        self._comp_rate = np.zeros(self._nnz)
        self._in_cap = np.empty(n)
        self._out_cap = np.empty(n)
        # The last waterfill as (flows, in_cap, out_cap, served flows, their
        # rates, total rate); flows are support positions, so a rebuild
        # invalidates it.
        self._waterfill = None
        # Moving volume between the matrices can leave sub-tolerance dust
        # anywhere in the support; the next advance snaps it.
        self._dust_pending = True

    def _positions_of(self, keys: np.ndarray) -> np.ndarray:
        """Flat support positions of the row-major keys that are in it."""
        if keys.size == 0 or self._nnz == 0:
            return _EMPTY_POS
        pos = np.searchsorted(self._flat, keys)
        pos = np.minimum(pos, self._nnz - 1)
        return pos[self._flat[pos] == keys]

    # ------------------------------------------------------------------ #
    # demand placement
    # ------------------------------------------------------------------ #

    def assign_composite(self, filtered: np.ndarray) -> None:
        """Move the filtered demand ``Df`` onto the composite residual.

        Must be called before any phase runs; mirrors Algorithm 1's split
        ``DI[:n, :n] = D − Df``.
        """
        filtered = np.asarray(filtered, dtype=np.float64)
        self._write_back()
        if filtered.shape != self._regular.shape:
            raise ValueError(f"filtered shape {filtered.shape} != demand shape")
        if np.any(filtered > self._regular + 1e-9):
            raise ValueError("filtered demand exceeds remaining regular demand")
        if self.clock > 0:
            raise RuntimeError("assign_composite must run before the first phase")
        self._regular = np.maximum(self._regular - filtered, 0.0)
        self._composite = self._composite + filtered
        self._rebuild_support()

    def merge_composite_into_regular(
        self, mask: "np.ndarray | None" = None
    ) -> float:
        """Return unfinished composite residual to the EPS (final drain).

        With ``mask`` (n×n bool) only the masked entries move — the
        fast-reroute swap un-parks exactly the composite residual no
        surviving grant of the remaining schedule covers, so the EPS can
        drain it instead of it sitting parked until the horizon.  Returns
        the volume (Mb) moved.
        """
        self._write_back()
        if mask is None:
            moved = float(self._composite.sum())
            self._regular += self._composite
            self._composite[:] = 0.0
        else:
            if mask.shape != self._composite.shape:
                raise ValueError(f"mask shape {mask.shape} != demand shape")
            take = np.where(mask, self._composite, 0.0)
            moved = float(take.sum())
            if moved <= 0.0:
                return 0.0
            self._regular += take
            np.maximum(self._composite - take, 0.0, out=self._composite)
        self._rebuild_support()
        return moved

    def release_composite(self, kind: str, port: int) -> float:
        """Fail a composite path over: park its demand on the regular paths.

        When the one-to-many path of sender ``port`` (``kind="o2m"``) or
        the many-to-one path of receiver ``port`` (``kind="m2o"``) suffers
        a hardware outage, the filtered demand waiting on it can never be
        served by that path again.  This moves the affected composite
        residual back onto ``regular``, where circuits and the EPS serve it
        like any other demand — the graceful cp-Switch → h-Switch
        degradation: completion time rises, volume is never lost.

        Must be called between phases (like :meth:`assign_composite`);
        returns the released volume (Mb).
        """
        if kind not in ("o2m", "m2o"):
            raise ValueError(f"kind must be 'o2m' or 'm2o', got {kind!r}")
        if not 0 <= port < self.n:
            raise ValueError(f"port must be in [0, {self.n}), got {port}")
        self._write_back()
        composite = self._composite
        residual = composite[port, :] if kind == "o2m" else composite[:, port]
        mask = residual > 0.0
        released = float(residual[mask].sum())
        if released <= 0.0:
            return 0.0
        regular = self._regular[port, :] if kind == "o2m" else self._regular[:, port]
        regular[mask] += residual[mask]
        residual[mask] = 0.0
        self.released_composite += released
        self._rebuild_support()
        if obs.active():
            obs.get_tracer().event(
                "engine.composite_release", kind=kind, port=port, released_mb=released
            )
            metrics = obs.get_metrics()
            metrics.counter(
                "engine_composite_releases_total",
                "composite paths failed over to the regular paths",
            ).labels(kind=kind).inc()
            metrics.counter(
                "engine_composite_released_mb_total",
                "volume (Mb) re-routed off dead composite paths",
            ).inc(released)
        return released

    def repark_composite(self, filtered: np.ndarray) -> float:
        """Mid-run repair: move regular residual back onto composite paths.

        The fast-reroute swap (:mod:`repro.faults.reroute`): after a dead
        path's demand was released (or everything was merged), the backup's
        parkable demand returns to the composite residual so surviving
        composite grants serve it at the CPSched rates instead of leaving
        it to the EPS.  Unlike :meth:`assign_composite` this is legal at
        any phase boundary; at most ``min(filtered, regular)`` moves (an
        entry partially served since planning parks only what is left).
        Returns the volume (Mb) actually re-parked.
        """
        filtered = np.asarray(filtered, dtype=np.float64)
        self._write_back()
        if filtered.shape != self._regular.shape:
            raise ValueError(f"filtered shape {filtered.shape} != demand shape")
        if np.any(filtered < 0.0):
            raise ValueError("filtered demand must be non-negative")
        take = np.minimum(filtered, self._regular)
        take[take <= VOLUME_TOL] = 0.0
        parked = float(take.sum())
        if parked <= 0.0:
            return 0.0
        self._regular = np.maximum(self._regular - take, 0.0)
        self._composite = self._composite + take
        self._rebuild_support()
        if obs.active():
            obs.get_tracer().event("engine.composite_repark", reparked_mb=parked)
            obs.get_metrics().counter(
                "engine_composite_reparked_mb_total",
                "volume (Mb) re-parked onto composite paths by fast-reroute",
            ).inc(parked)
        return parked

    # ------------------------------------------------------------------ #
    # phase execution
    # ------------------------------------------------------------------ #

    def run_phase(
        self,
        duration: "float | None",
        circuits: "np.ndarray | None" = None,
        composites: "tuple[CompositeService, ...] | list[CompositeService]" = (),
        eps_port_scale: "np.ndarray | None" = None,
    ) -> None:
        """Advance the simulation through one constant-configuration phase.

        Parameters
        ----------
        duration:
            Phase length (ms), finite and non-negative; ``None`` runs until
            all residual demand is drained (the final EPS-only drain).
        circuits:
            The regular OCS circuits active in this phase as a matching:
            an ``(n,)`` integer array whose entry ``i`` is the output port
            input ``i``'s circuit reaches, or -1 if input ``i`` has no
            circuit; ``None`` (e.g. during reconfiguration) means no
            circuits.  Another shape or dtype, a value outside ``[-1, n)``
            or an output used twice raises ``ValueError``.
        composites:
            Active composite paths.  A port outside ``[0, n)`` raises
            ``ValueError``.
        eps_port_scale:
            Optional per-port capacity factors in [0, 1] (fault injection:
            degraded EPS line rates).  Scales each port's EPS capacity in
            both directions and caps each composite path's per-entry rate
            at its EPS-leg link capacity; ``None`` (the default and the
            fault-free path) keeps every port at ``Ce``.
        """
        open_ended = duration is None
        remaining = np.inf if open_ended else float(duration)
        if not open_ended and not 0.0 <= remaining < np.inf:
            raise ValueError(
                "duration must be finite and non-negative (None drains "
                f"everything), got {duration}"
            )
        if eps_port_scale is None:
            base_cap = None
        else:
            scale = np.asarray(eps_port_scale, dtype=np.float64)
            if scale.shape != (self.n,):
                raise ValueError(
                    f"eps_port_scale has shape {scale.shape}, expected ({self.n},)"
                )
            if not ((scale >= 0.0) & (scale <= 1.0)).all():  # NaN fails too
                raise ValueError("eps_port_scale factors must be in [0, 1]")
            base_cap = self.params.eps_rate * scale

        # ---- phase-constant bookkeeping --------------------------------
        if circuits is not None:
            circuits = check_matching(circuits, self.n)
            # Ascending inputs give the row-major keys row*n + col, sorted
            # like the support.
            inputs = np.flatnonzero(circuits >= 0)
            circuit_pos = self._positions_of(inputs * self.n + circuits[inputs])
        else:
            circuit_pos = _EMPTY_POS
        services = []
        for service in composites:
            port = service.port
            if not 0 <= port < self.n:
                raise ValueError(f"composite port must be in [0, {self.n}), got {port}")
            if service.kind == "o2m":
                lo, hi = self._row_start[port], self._row_start[port + 1]
                positions = np.arange(lo, hi, dtype=np.int64)
                partners = self._cols[lo:hi]
            else:
                lo, hi = self._col_start[port], self._col_start[port + 1]
                positions = self._col_order[lo:hi]
                partners = self._rows[positions]
            services.append((service.kind == "o2m", positions, partners))

        # Phase-level observability: one span per run_phase call (never
        # per-event — the event loop is the hot path).
        obs_on = obs.active()
        if obs_on:
            tracer = obs.get_tracer()
            span = (
                tracer.begin(
                    "engine.phase",
                    duration=duration,
                    circuits=int(circuit_pos.size),
                    composites=len(services),
                    clock_ms=self.clock,
                )
                if tracer.enabled
                else None
            )
            segments_before = len(self.segments)
            dust_before = self._dust_snaps

        # ---- the flat residuals over the support -----------------------
        nnz = self._nnz
        residual = self._residual
        reg = residual[:nnz]
        comp = residual[nnz:]
        self._matrices_stale = True  # the phase moves them; see _write_back
        ocs_rate = self.params.ocs_rate
        circuit_rates = np.full(circuit_pos.size, ocs_rate)

        # The served residuals as indices into ``residual`` with their
        # rates: live circuits, then EPS flows with a positive rate, then
        # composite entries.  Each event advances and checks only these,
        # and a drain recomputes only what it changed (module docstring).
        # On full-rate ports the rest of the phase drains by rate class
        # once no EPS flow is left (and no dust is pending), or from an EPS
        # drain once no composite entry is served.
        stale = refresh = True
        by_quotient = base_cap is None
        while remaining > TIME_TOL:
            if stale:
                stale = False
                live = circuit_pos[reg[circuit_pos] > VOLUME_TOL]
                eps_flow = reg > VOLUME_TOL
                eps_flow[live] = False
                flows = eps_flow.nonzero()[0]
                if base_cap is None and not flows.size and not self._dust_pending:
                    remaining, dust = self._drain_by_class(
                        remaining, open_ended, live, services
                    )
                    if not dust:
                        break
                    # A dust residual: this loop snaps it.
                    live = circuit_pos[reg[circuit_pos] > VOLUME_TOL]
                circuit_total = ocs_rate * live.size
                comp_pos, comp_rates, composite_total = self._composite_rates(
                    services, comp, base_cap
                )
                eps_pos, eps_rates, eps_total = self._eps_rates(flows)
                refresh = True
            if refresh:
                refresh = False
                n_live = live.size
                n_reg = n_live + eps_pos.size
                served = np.concatenate((live, eps_pos, comp_pos))
                rates = np.concatenate((circuit_rates[:n_live], eps_rates, comp_rates))

            # -- time until the earliest served residual drains --
            if served.size:
                before = residual[served]
                drain_time = before / rates
                dt_event = float(drain_time.min())
            else:
                dt_event = np.inf
            if dt_event == np.inf and open_ended:
                break  # nothing left to serve

            dt = min(dt_event, remaining)
            if dt <= TIME_TOL:
                # A served entry's residual is dust: its drain time fell
                # below the time tolerance.  Snap it to zero and keep the
                # event loop going so every other entry continues to be
                # served.  (The seed engine idled out the whole remaining
                # phase here, silently skipping service for everyone.)  At
                # least the entry attaining dt_event is zeroed, so the loop
                # progresses; the skipped volume, below rate * TIME_TOL per
                # entry, is deliberately credited to no mechanism.
                self._dust_snaps += 1
                snapped = served[drain_time <= TIME_TOL]
                residual[snapped] = 0.0
                self._record_finishes(snapped, self.clock)
                stale = True
                continue

            # -- advance time by dt at the current rates --
            if served.size:
                after = before - rates * dt
                drained = (after <= VOLUME_TOL).nonzero()[0]
                # Snap float dust to exact zero so drained entries stay
                # drained.
                after[drained] = 0.0
                residual[served] = after
            else:
                drained = _EMPTY_POS
            if self._dust_pending:
                residual[residual <= VOLUME_TOL] = 0.0
                self._dust_pending = False
            if drained.size:
                self._record_finishes(served[drained], self.clock + dt)

            # dt never exceeds residual/rate for any served entry, so
            # rate*dt is the exact served volume per mechanism (up to the
            # snap tolerance).
            self.served_ocs_direct += circuit_total * dt
            self.served_composite += composite_total * dt
            self.served_eps += eps_total * dt
            self.segments.append(
                RateSegment(
                    start=self.clock,
                    end=self.clock + dt,
                    ocs_direct_rate=circuit_total,
                    composite_rate=composite_total,
                    eps_rate=eps_total,
                )
            )
            self.clock += dt
            remaining -= dt

            # -- recompute only what the drains changed --
            if drained.size:
                refresh = True
                split = drained.searchsorted(n_live)
                eps_drained = split < drained.size and drained[split] < n_reg
                composite_drained = drained[-1] >= n_reg
                if eps_drained:
                    flows = flows[reg[flows] > VOLUME_TOL]
                if base_cap is None and not flows.size:
                    stale = True  # the rest of the phase drains by class
                    continue
                if drained[0] < n_live:
                    live = live[reg[live] > VOLUME_TOL]
                    circuit_total = ocs_rate * live.size
                if composite_drained:
                    comp_pos, comp_rates, composite_total = self._composite_rates(
                        services, comp, base_cap
                    )
                if eps_drained and by_quotient and not comp_pos.size:
                    # Every port has capacity Ce: the rest of the phase
                    # drains by class, unless the quotient is too large.
                    quotient = hub_leaf_quotient(
                        self._rows[flows], self._cols[flows], self.params.eps_rate
                    )
                    if quotient is not None:
                        remaining, dust = self._drain_by_class(
                            remaining, open_ended, live, (), flows, quotient
                        )
                        if not dust:
                            break
                        stale = True  # a dust residual: this loop snaps it
                        continue
                    by_quotient = False  # not tried again in this phase
                if eps_drained or composite_drained:
                    eps_pos, eps_rates, eps_total = self._eps_rates(flows)

        if obs_on:
            events = len(self.segments) - segments_before
            dust = self._dust_snaps - dust_before
            if span is not None:
                tracer.end(span, events=events, dust_snaps=dust, clock_ms=self.clock)
            metrics = obs.get_metrics()
            if metrics.enabled:
                metrics.counter(
                    "engine_phases_total", "run_phase() calls executed"
                ).inc()
                metrics.counter(
                    "engine_events_total", "rate-change events across all phases"
                ).inc(events)
                if dust:
                    metrics.counter(
                        "engine_dust_snaps_total",
                        "sub-tolerance residuals snapped to zero",
                    ).inc(dust)

    def _drain_by_class(
        self,
        remaining: float,
        open_ended: bool,
        live: np.ndarray,
        services: list,
        flows: np.ndarray = _EMPTY_POS,
        quotient: "HubLeafQuotient | None" = None,
    ) -> "tuple[float, bool]":
        """Serve the rest of a phase by rate class.

        The classes are the live circuits plus either the live composite
        entries, grouped by the set of grants serving them, or, given the
        ``quotient`` of the EPS ``flows``, those flows grouped by its
        classes.  The classes and why they give the general loop's bits
        are in the module docstring.  Until the loop ends, ``residual``
        holds the zeros of drained members but not the values of live
        ones: a live member's stale value is still above ``VOLUME_TOL``,
        which is all :meth:`_record_finishes` asks of it.

        Returns the phase time left and whether the loop stopped at a dust
        residual (a drain time within ``TIME_TOL``), which the general
        loop snaps.
        """
        nnz = self._nnz
        residual = self._residual
        params = self.params
        ocs_rate = params.ocs_rate
        eps_budget = params.effective_eps_budget

        # ``ids`` numbers each served residual's class: 0 for the circuits,
        # then from 1 the sets of grants or the quotient's classes;
        # ``grants_of`` lists the grants serving each (none but for sets).
        grants_of: "list[tuple[int, ...]]" = [()]
        counts: "list[int]" = []
        if quotient is None:
            comp = residual[nnz:]
            grant_live = [
                positions[comp[positions] > VOLUME_TOL] for _, positions, _ in services
            ]
            counts = [positions.size for positions in grant_live]
            member = np.zeros(nnz, dtype=np.int64)
            for grant, positions in enumerate(grant_live):
                if positions.size:
                    previous, inverse = np.unique(member[positions], return_inverse=True)
                    member[positions] = inverse + len(grants_of)
                    grants_of += [grants_of[set_id] + (grant,) for set_id in previous.tolist()]
            entries = member.nonzero()[0]
            members, member_ids = entries + nnz, member[entries]
        else:
            flow_class = quotient.flow_class
            members, member_ids = flows, flow_class + 1
            grants_of *= len(quotient.sizes) + 1

        # The classes as runs of one block, sorted by class and then by
        # residual: ``served`` holds the residual indices, ``values`` their
        # values and ``member_rates`` each member's class rate.  Class c's
        # live members span [heads[c], ends[c]); it has a rate, an id and
        # its serving grants (() for the circuits and EPS classes).  Every
        # rate but the circuits' is set in the loop.
        served = np.concatenate((live, members))
        ids = np.concatenate((np.zeros(live.size, dtype=np.int64), member_ids))
        order = np.lexsort((residual[served], ids))
        served, ids = served[order], ids[order]
        values = residual[served]
        member_rates = np.full(served.size, ocs_rate)
        heads: "list[int]" = []
        ends: "list[int]" = []
        if served.size:
            cuts = ((ids[1:] != ids[:-1]).nonzero()[0] + 1).tolist()
            heads, ends = [0, *cuts], [*cuts, served.size]
        keys = ids[heads].tolist()
        classes = range(len(keys))
        rates = [ocs_rate] * len(keys)
        grants = [grants_of[key] for key in keys]
        shares = [0.0] * len(counts)
        n_circuits = live.size
        circuit_total = ocs_rate * n_circuits
        composite_total = eps_total = 0.0
        # The rules after a drain: a composite class's grants take new
        # shares, an EPS class's quotient solves again.
        moved = set(range(len(counts)))  # grants whose share is due
        solve = quotient is not None  # the EPS rates are due
        if solve:
            # Each EPS member's place in ``flows``, and which flows are live.
            flow_of = order - live.size
            flow_live = np.ones(flows.size, dtype=bool)

        dust = False
        while remaining > TIME_TOL:
            if moved:
                for grant in moved:
                    count = counts[grant]
                    shares[grant] = min(eps_budget, ocs_rate / count) if count else 0.0
                for c in classes:
                    if not moved.isdisjoint(grants[c]):
                        rate = 0.0
                        for grant in grants[c]:
                            rate += shares[grant]
                        rates[c] = rate
                        member_rates[heads[c] : ends[c]] = rate
                composite_total = 0.0
                for share, count in zip(shares, counts):
                    if count:
                        composite_total += share * count
                moved.clear()
            if solve:
                solve = False
                class_rates = quotient.rates()
                for c in classes:
                    if keys[c]:
                        rates[c] = class_rates[keys[c] - 1]
                        member_rates[heads[c] : ends[c]] = rates[c]
                # The general loop's total: the sum of the per-flow rate
                # vector of the live flows, in flow order.
                eps_total = float(np.array(class_rates)[flow_class[flow_live]].sum())

            # -- time until the earliest class head drains --
            dt_event = np.inf
            for c in classes:
                head = heads[c]
                # A zero rate serves nothing (an EPS class on a port whose
                # share is within the filling tolerance of zero).
                if head < ends[c] and rates[c]:
                    drain_time = values[head] / rates[c]
                    if drain_time < dt_event:
                        dt_event = drain_time
            dt_event = float(dt_event)
            if dt_event == np.inf and open_ended:
                break  # nothing left to serve
            dt = min(dt_event, remaining)
            if dt <= TIME_TOL:
                dust = True
                break

            # -- advance every member (drained ones are never read again);
            # each class's drained members are a prefix --
            values -= member_rates * dt
            drained = []
            for c in classes:
                head = heads[c]
                if head < ends[c] and values[head] <= VOLUME_TOL:
                    stop = head + int(values[head : ends[c]].searchsorted(VOLUME_TOL, side="right"))
                    gone = served[head:stop]
                    residual[gone] = 0.0
                    heads[c] = stop
                    drained.append(gone)
                    count = stop - head
                    if grants[c]:
                        for grant in grants[c]:
                            counts[grant] -= count
                        moved.update(grants[c])
                    elif keys[c]:
                        quotient.drain(keys[c] - 1, count)
                        flow_live[flow_of[head:stop]] = False
                        solve = True
                    else:
                        n_circuits -= count
            if drained:
                self._record_finishes(np.concatenate(drained), self.clock + dt)

            self.served_ocs_direct += circuit_total * dt
            self.served_composite += composite_total * dt
            self.served_eps += eps_total * dt
            self.segments.append(
                RateSegment(
                    start=self.clock,
                    end=self.clock + dt,
                    ocs_direct_rate=circuit_total,
                    composite_rate=composite_total,
                    eps_rate=eps_total,
                )
            )
            self.clock += dt
            remaining -= dt
            circuit_total = ocs_rate * n_circuits

        for c in classes:
            residual[served[heads[c] : ends[c]]] = values[heads[c] : ends[c]]
        return remaining, dust

    def _composite_rates(
        self,
        services: list,
        comp: np.ndarray,
        base_cap: "np.ndarray | None",
    ) -> "tuple[np.ndarray, np.ndarray, float]":
        """CPSched rates of the live composite entries, and the EPS capacity
        their reservations leave (written to ``_in_cap`` / ``_out_cap``).

        Returns the served composite entries as indices into the phase
        residual, their rates and the total composite rate.  Grants are
        applied in order, so an entry on both an o2m and an m2o path gets
        the same rate sum as every earlier engine computed.
        """
        in_cap = self._in_cap
        out_cap = self._out_cap
        if base_cap is None:
            in_cap.fill(self.params.eps_rate)
            out_cap.fill(self.params.eps_rate)
        else:
            in_cap[:] = base_cap
            out_cap[:] = base_cap
        if not services:
            return _EMPTY_POS, _EMPTY_RATES, 0.0
        params = self.params
        ocs_rate = params.ocs_rate
        eps_budget = params.effective_eps_budget
        comp_rate = self._comp_rate
        comp_rate.fill(0.0)
        composite_total = 0.0
        for is_o2m, positions, partners in services:
            if positions.size == 0:
                continue
            active = comp[positions] > VOLUME_TOL
            count = int(np.count_nonzero(active))
            if count == 0:
                continue
            rate = min(eps_budget, ocs_rate / count)
            if base_cap is None:
                comp_rate[positions[active]] += rate
                if is_o2m:
                    out_cap[partners[active]] -= rate  # destination EPS links
                else:
                    in_cap[partners[active]] -= rate  # source EPS links
                composite_total += rate * count
            else:
                # Each filtered entry's EPS leg is capped by its own
                # (possibly degraded) link rate.
                live_partners = partners[active]
                per_entry = np.minimum(rate, base_cap[live_partners])
                comp_rate[positions[active]] += per_entry
                if is_o2m:
                    out_cap[live_partners] -= per_entry
                else:
                    in_cap[live_partners] -= per_entry
                composite_total += float(per_entry.sum())
        np.clip(in_cap, 0.0, None, out=in_cap)
        np.clip(out_cap, 0.0, None, out=out_cap)
        served = (comp_rate > 0).nonzero()[0]
        return served + self._nnz, comp_rate[served], composite_total

    def _eps_rates(self, flows: np.ndarray) -> "tuple[np.ndarray, np.ndarray, float]":
        """Max-min fair EPS rates of ``flows`` under the current capacities.

        Returns the flows with a positive rate, their rates and the total.
        Same flows and capacities give the same rates: a circuit drain, or
        a gap after a drained configuration, reuses the last solve.
        """
        if flows.size == 0:
            return _EMPTY_POS, _EMPTY_RATES, 0.0
        in_cap = self._in_cap
        out_cap = self._out_cap
        memo = self._waterfill
        if (
            memo is None
            or not np.array_equal(flows, memo[0])
            or not np.array_equal(in_cap, memo[1])
            or not np.array_equal(out_cap, memo[2])
        ):
            rates = max_min_fair_rates(
                self._rows[flows], self._cols[flows], in_cap, out_cap
            )
            positive = rates > 0
            memo = self._waterfill = (
                flows,
                in_cap.copy(),
                out_cap.copy(),
                flows[positive],
                rates[positive],
                float(rates.sum()),
            )
        return memo[3], memo[4], memo[5]

    def _record_finishes(self, zeroed: np.ndarray, time: float) -> None:
        """Finish, at ``time``, the demanded entries that ``zeroed`` emptied.

        ``zeroed`` holds residual indices just set to zero.  Each was served,
        so its entry held more than ``VOLUME_TOL`` before; the entry is done
        once its regular and composite residuals together are dust.  A
        residual empties once per support rebuild, so this loop runs O(nnz)
        times per rebuild in all.
        """
        nnz = self._nnz
        residual = self._residual
        demanded = self._flat_demanded
        finish = self.finish_times.reshape(-1)
        for index in zeroed.tolist():
            position = index - nnz if index >= nnz else index
            if (
                demanded[position]
                and residual[position] + residual[position + nnz] <= VOLUME_TOL
            ):
                finish[self._flat[position]] = time

    # ------------------------------------------------------------------ #
    # result
    # ------------------------------------------------------------------ #

    def residual_total(self) -> float:
        """Total undelivered volume (Mb)."""
        self._write_back()
        return float(self._regular.sum() + self._composite.sum())

    def result(
        self,
        n_configs: int,
        makespan: float,
        *,
        allow_residual: bool = False,
        fault_summary=None,
        reroute=None,
    ) -> SimulationResult:
        """Freeze the engine state into a :class:`SimulationResult`.

        With ``allow_residual`` (horizon-bounded executions) the leftover
        demand is reported instead of rejected; pending entries keep their
        ``nan`` finish times and the completion time becomes ``nan``.
        ``fault_summary`` attaches the injected-fault record of a faulted
        run; ``reroute`` attaches the fast-reroute swap record.
        """
        leftover = self.residual_total()
        if leftover > VOLUME_TOL * max(1, self.n) ** 2 and not allow_residual:
            raise RuntimeError(
                f"simulation ended with {leftover} Mb undelivered; "
                "run a final drain phase first"
            )
        finished = self.finish_times[self.demanded]
        if finished.size == 0:
            completion = 0.0
        elif np.isnan(finished).any():
            completion = float("nan")  # something is still pending
        else:
            completion = float(finished.max())
        result = SimulationResult(
            finish_times=self.finish_times,
            completion_time=completion,
            n_configs=n_configs,
            makespan=makespan,
            segments=self.segments,
            served_ocs_direct=self.served_ocs_direct,
            served_composite=self.served_composite,
            served_eps=self.served_eps,
            total_demand=self.total_demand,
            residual=(self._regular + self._composite) if allow_residual else None,
            released_composite=self.released_composite,
            fault_summary=fault_summary,
            reroute=reroute,
        )
        result.check_conservation(tol=1e-6)
        return result
