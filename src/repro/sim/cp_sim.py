"""Online execution of cp-Switch schedules (base and k-path variants).

Differences from the h-Switch execution:

* the filtered demand ``Df`` is parked on the composite residual before the
  schedule starts (Algorithm 1's split) and is served **only** by composite
  paths while the schedule runs;
* each configuration may additionally grant one-to-many / many-to-one
  composite paths, served at the CPSched rates with ``Ce*`` reserved on the
  EPS links they traverse;
* after the schedule, unfinished filtered demand returns to the EPS for the
  final drain (it is ordinary packet traffic at that point).

As with :func:`repro.sim.hybrid_sim.simulate_hybrid`, a ``horizon`` bounds
execution: phases truncate at the horizon and the leftover — including
composite residual the schedule never got to — is reported, not drained.

``faults`` injects hardware imperfections (see :mod:`repro.faults`).  On
top of the h-Switch channels (reconfiguration failures/stragglers, circuit
setup failures, EPS degradation), a granted composite path's port can
suffer a *permanent outage*: the grant is dropped and the filtered demand
parked on the dead path is immediately released back to the regular
EPS/OCS paths — the cp-Switch degrades gracefully toward h-Switch
behaviour, completion time rises, and volume is never lost.

``backups`` arms fast-reroute (:mod:`repro.faults.reroute`): when an
outage is discovered mid-run, the matching precomputed backup is swapped
in at the current phase boundary — orphaned filtered demand is re-parked
onto composite paths that surviving grants still serve, and the dead
grants are stripped from the pending tail — instead of degrading to an
EPS-only drain for the rest of the run.  With no outage (or no injector)
the armed backups are never consulted and execution is bit-identical to a
run without them.
"""

from __future__ import annotations

import numpy as np

from repro.core.multipath import MultiPathCpSchedule
from repro.core.scheduler import CpSchedule
from repro.faults.injector import as_injector
from repro.faults.reroute import RerouteOutcome, RerouteRuntime
from repro.sim.engine import CompositeService, FluidEngine
from repro.sim.metrics import SimulationResult
from repro.switch.params import SwitchParams


def simulate_cp(
    demand: np.ndarray,
    cp_schedule: CpSchedule,
    params: SwitchParams,
    horizon: "float | None" = None,
    faults=None,
    backups=None,
) -> SimulationResult:
    """Execute a base (single path per direction) cp-Switch schedule.

    Parameters
    ----------
    demand:
        The original n×n demand ``D`` the schedule was computed for (Mb).
    cp_schedule:
        Output of :class:`repro.core.scheduler.CpSwitchScheduler`.
    params:
        Switch parameters (δ, rates, ``Ce*``).
    horizon:
        Optional execution budget (ms); see
        :func:`repro.sim.hybrid_sim.simulate_hybrid`.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` or pre-built
        :class:`~repro.faults.injector.FaultInjector`; ``None`` executes
        the fault-free model bit-identically to earlier releases.
    backups:
        Optional :class:`~repro.faults.reroute.BackupSet` precomputed for
        ``cp_schedule`` — arms fast-reroute for mid-run composite-port
        outages.
    """
    def composites_for(entry) -> "list[CompositeService]":
        services: list[CompositeService] = []
        if entry.o2m_port is not None:
            services.append(CompositeService(kind="o2m", port=entry.o2m_port))
        if entry.m2o_port is not None:
            services.append(CompositeService(kind="m2o", port=entry.m2o_port))
        return services

    return _run(
        demand,
        cp_schedule.entries,
        cp_schedule.reduction.filtered,
        composites_for,
        lambda entry: entry.regular,
        params,
        horizon,
        n_configs=cp_schedule.n_configs,
        makespan=cp_schedule.makespan,
        faults=faults,
        backups=backups,
    )


def simulate_multipath(
    demand: np.ndarray,
    mp_schedule: MultiPathCpSchedule,
    params: SwitchParams,
    horizon: "float | None" = None,
    faults=None,
    backups=None,
) -> SimulationResult:
    """Execute a k-path cp-Switch schedule (§4 extension).

    Each granted path serves only the filtered entries the reduction
    assigned to it (its *lane*), unlike the base scheduler which serves the
    whole filtered row/column — with k paths the lanes are what prevents two
    paths from double-serving one entry.  A composite-port outage
    (``faults``) kills one (direction, port) lane set; its parked demand
    falls back to the regular paths.

    ``backups`` arms fast-reroute as in :func:`simulate_cp`.  Note that
    :class:`~repro.faults.reroute.BackupPlanner` only plans for base
    schedules; a caller arming a k-path run must account for lanes itself —
    re-parked demand outside every surviving lane waits for the final
    drain (volume is still conserved).
    """
    reduction = mp_schedule.reduction

    def composites_for(entry) -> "list[CompositeService]":
        services: list[CompositeService] = []
        for path, sender in entry.o2m_grants.items():
            lane = reduction.o2m_path[sender, :] == path
            services.append(CompositeService(kind="o2m", port=sender, lane_mask=lane))
        for path, receiver in entry.m2o_grants.items():
            lane = reduction.m2o_path[:, receiver] == path
            services.append(CompositeService(kind="m2o", port=receiver, lane_mask=lane))
        return services

    return _run(
        demand,
        mp_schedule.entries,
        reduction.filtered,
        composites_for,
        lambda entry: entry.regular,
        params,
        horizon,
        n_configs=mp_schedule.n_configs,
        makespan=mp_schedule.makespan,
        faults=faults,
        backups=backups,
    )


def _surviving_composites(engine, injector, services):
    """Drop grants on dead composite ports, failing their demand over.

    The outage is discovered at grant time (the controller cannot see a
    port die until it tries to use it); the parked composite residual of a
    dead path is released to the regular matrices *before* the phase runs,
    so the EPS — and any circuit matching those entries — serves it from
    this configuration onward.
    """
    alive = []
    for service in services:
        if injector.composite_port_up(service.kind, service.port):
            alive.append(service)
        else:
            released = engine.release_composite(
                service.kind, service.port, service.lane_mask
            )
            injector.note_released(released)
    return alive


def _run(
    demand: np.ndarray,
    entries,
    filtered: np.ndarray,
    composites_for,
    circuits_for,
    params: SwitchParams,
    horizon: "float | None",
    *,
    n_configs: int,
    makespan: float,
    faults=None,
    backups=None,
) -> SimulationResult:
    if horizon is not None and horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    engine = FluidEngine(np.asarray(demand, dtype=np.float64), params)
    engine.assign_composite(filtered)
    injector = as_injector(faults, engine.n)
    eps_scale = injector.eps_port_scale if injector is not None else None
    # Fast-reroute needs an injector to detect outages with; armed backups
    # without one can never fire (outages only exist inside an injector).
    reroute = (
        RerouteRuntime(backups, engine, injector)
        if backups is not None and injector is not None
        else None
    )

    def budget(duration: float) -> float:
        if horizon is None:
            return duration
        return min(duration, max(0.0, horizon - engine.clock))

    truncated = False
    for index, entry in enumerate(entries):
        if horizon is not None and engine.clock >= horizon:
            truncated = True
            break
        if injector is not None:
            delta, established = injector.reconfigure(params.reconfig_delay)
        else:
            delta, established = params.reconfig_delay, True
        engine.run_phase(budget(delta), eps_port_scale=eps_scale)
        if horizon is not None and engine.clock >= horizon:
            truncated = True
            break
        if established:
            circuits = circuits_for(entry)
            composites = composites_for(entry)
            if injector is not None:
                circuits = injector.surviving_circuits(circuits)
                granted = len(composites)
                composites = _surviving_composites(engine, injector, composites)
                if reroute is not None and len(composites) < granted:
                    # An outage surfaced on this configuration's grants:
                    # swap to the matching precomputed backup at this phase
                    # boundary.  The current configuration keeps running
                    # with its surviving grants.
                    composites_for = reroute.on_outage(
                        entries, index, composites, composites_for
                    )
            if reroute is not None:
                reroute.note_hold(composites)
        else:
            # The whole configuration failed to establish: neither its
            # circuits nor its composite grants exist; parked filtered
            # demand simply waits for a later grant.
            circuits, composites = None, ()
        engine.run_phase(
            budget(entry.duration),
            circuits=circuits,
            composites=composites,
            eps_port_scale=eps_scale,
        )
    if horizon is not None and engine.clock >= horizon:
        truncated = True

    summary = injector.summary if injector is not None else None
    if reroute is not None:
        outcome = None  # filled after the drain decision below
    elif backups is not None:
        outcome = RerouteOutcome(backups_armed=backups.n_armed)
    else:
        outcome = None
    if horizon is None:
        if reroute is not None:
            reroute.note_drain()
            outcome = reroute.outcome()
        engine.merge_composite_into_regular()
        engine.run_phase(None, eps_port_scale=eps_scale)
        return engine.result(
            n_configs=n_configs,
            makespan=makespan,
            fault_summary=summary,
            reroute=outcome,
        )
    if not truncated:
        # The schedule finished before the horizon: composite leftovers
        # become ordinary packet traffic for the remaining budget.
        if reroute is not None:
            reroute.note_drain()
        engine.merge_composite_into_regular()
        engine.run_phase(horizon - engine.clock, eps_port_scale=eps_scale)
    if reroute is not None:
        outcome = reroute.outcome()
    return engine.result(
        n_configs=n_configs,
        makespan=makespan,
        allow_residual=True,
        fault_summary=summary,
        reroute=outcome,
    )
