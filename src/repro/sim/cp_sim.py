"""Online execution of cp-Switch schedules (k composite paths per direction).

Differences from the h-Switch execution:

* the filtered demand ``Df`` is parked on the composite residual before the
  schedule starts (Algorithm 1's split) and is served **only** by composite
  paths while the schedule runs;
* each configuration may additionally grant one-to-many / many-to-one
  composite paths, served at the CPSched rates with ``Ce*`` reserved on the
  EPS links they traverse; a grant serves its port's whole filtered row or
  column, one grant per port and direction (Algorithm 4);
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
outage is discovered mid-run, the matching repair is swapped in at the
current phase boundary — orphaned filtered demand is re-parked onto
composite paths that surviving grants still serve, and the dead grants
are stripped from the pending tail — instead of degrading to an EPS-only
drain for the rest of the run.  With no outage (or no injector) the armed
backups are never consulted and execution is bit-identical to a run
without them.
"""

from __future__ import annotations

import numpy as np

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
    """Execute a cp-Switch schedule, every composite grant of each entry.

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
        Optional :class:`~repro.faults.reroute.BackupSet` armed for
        ``cp_schedule`` — fast-reroute for mid-run composite-port
        outages.
    """
    def composites_for(entry) -> "list[CompositeService]":
        return [CompositeService(kind="o2m", port=port) for port in entry.o2m_ports] + [
            CompositeService(kind="m2o", port=port) for port in entry.m2o_ports
        ]

    return _run(
        demand,
        cp_schedule.entries,
        cp_schedule.reduction.filtered,
        composites_for,
        params,
        horizon,
        n_configs=cp_schedule.n_configs,
        makespan=cp_schedule.makespan,
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
            released = engine.release_composite(service.kind, service.port)
            injector.note_released(released)
    return alive


def _run(
    demand: np.ndarray,
    entries,
    filtered: "np.ndarray | None",
    composites_for,
    params: SwitchParams,
    horizon: "float | None",
    *,
    n_configs: int,
    makespan: float,
    faults=None,
    backups=None,
) -> SimulationResult:
    """The phase loop shared by h- and cp-Switch execution.

    Every entry carries its circuits as ``entry.matching``.
    ``filtered=None`` (h-Switch) parks nothing on composite paths, so the
    final drain has no composite residual to merge back.
    """
    if horizon is not None and not 0.0 <= horizon < np.inf:
        raise ValueError(
            "horizon must be finite and non-negative (None runs to "
            f"completion), got {horizon}"
        )
    engine = FluidEngine(np.asarray(demand, dtype=np.float64), params)
    if filtered is not None:
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
    if reroute is not None:
        composites_for = reroute.strip(composites_for)

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
            circuits = entry.matching
            composites = composites_for(entry)
            if injector is not None:
                circuits = injector.surviving_circuits(circuits)
                granted = len(composites)
                composites = _surviving_composites(engine, injector, composites)
                if reroute is not None and len(composites) < granted:
                    # An outage surfaced on this configuration's grants:
                    # swap to the matching repair at this phase boundary.
                    # The current configuration keeps running with its
                    # surviving grants.
                    reroute.on_outage(entries, index, composites, composites_for)
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
        if filtered is not None:
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
        if filtered is not None:
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
