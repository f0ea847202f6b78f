"""Online execution of an h-Switch schedule (§3: "online execution").

Phases, in scheduler order: for every configuration, a reconfiguration gap
of δ (OCS dark, EPS serving), then the configuration held for its duration
(circuits at ``Co``, EPS serving everything else).  After the last
configuration the OCS goes dark and the EPS drains whatever remains.

A ``horizon`` bounds execution to a fixed wall-clock budget instead —
phases are truncated at the horizon and the leftover demand is reported as
residual (used by the closed-loop epoch controller to study sustained
load).

``faults`` injects hardware imperfections (see :mod:`repro.faults`): a
failed reconfiguration burns δ and then holds the configuration dark (EPS
keeps serving, circuits serve zero rate), a straggling one stretches δ,
individual circuits can fail to establish, and degraded EPS ports serve at
a fraction of ``Ce`` — all without ever losing volume.
"""

from __future__ import annotations

import numpy as np

from repro.hybrid.schedule import Schedule
from repro.sim.cp_sim import _run
from repro.sim.metrics import SimulationResult
from repro.switch.params import SwitchParams


def simulate_hybrid(
    demand: np.ndarray,
    schedule: Schedule,
    params: SwitchParams,
    horizon: "float | None" = None,
    faults=None,
) -> SimulationResult:
    """Execute ``schedule`` on ``demand``; return completion metrics.

    Parameters
    ----------
    demand:
        n×n demand matrix (Mb).
    schedule:
        OCS schedule whose permutations are n×n (i.e. an h-Switch schedule
        for this demand, not a reduced cp-Switch one).
    params:
        Switch parameters; ``params.reconfig_delay`` should match
        ``schedule.reconfig_delay``.
    horizon:
        Optional execution budget (ms), finite and non-negative.  ``None``
        runs to completion; otherwise execution stops at the horizon and
        the result carries the residual demand.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` (realized with
        stream 0) or pre-built :class:`~repro.faults.injector.FaultInjector`
        describing hardware faults to inject.  ``None`` — the default —
        executes the fault-free model bit-identically to earlier releases.
    """
    demand = np.asarray(demand, dtype=np.float64)
    if len(schedule) and schedule[0].size != demand.shape[0]:
        raise ValueError(
            f"schedule permutations are {schedule[0].size}x{schedule[0].size} but "
            f"demand is {demand.shape[0]}x{demand.shape[0]}; "
            "use simulate_cp for reduced cp-Switch schedules"
        )
    # An h-Switch run is a cp-Switch run with nothing filtered and no grants.
    return _run(
        demand,
        schedule.entries,
        None,
        lambda entry: (),
        params,
        horizon,
        n_configs=schedule.n_configs,
        makespan=schedule.makespan,
        faults=faults,
    )
