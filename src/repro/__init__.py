"""repro — reproduction of "Composite-Path Switching" (CoNEXT 2016).

A composite-path switch (cp-Switch) extends the hybrid circuit/packet
switch (h-Switch) with composite OCS→EPS and EPS→OCS paths so that skewed
one-to-many / many-to-one datacenter coflows can ride a single optical
circuit instead of paying one reconfiguration per destination.

Public API tour
---------------
>>> import numpy as np
>>> from repro import (
...     CpSwitchScheduler, SolsticeScheduler, fast_ocs_params,
...     simulate_cp, simulate_hybrid,
... )
>>> params = fast_ocs_params(32)
>>> demand = np.zeros((32, 32)); demand[0, 1:25] = 1.2   # one-to-many coflow
>>> h = SolsticeScheduler()
>>> cp = CpSwitchScheduler(h)
>>> res_h = simulate_hybrid(demand, h.schedule(demand, params), params)
>>> res_cp = simulate_cp(demand, cp.schedule(demand, params), params)
>>> bool(res_cp.completion_time < res_h.completion_time)
True

Layers
------
* :mod:`repro.core` — the paper's Algorithms 1–4, for k composite paths;
* :mod:`repro.hybrid` — Solstice and Eclipse h-Switch schedulers (built
  from scratch per their papers);
* :mod:`repro.sim` — fluid online execution of either switch;
* :mod:`repro.faults` — seedable fault injection with graceful cp-Switch →
  h-Switch degradation;
* :mod:`repro.workloads` — the paper's §3.2–§3.5 demand models;
* :mod:`repro.analysis` — seeded comparison experiments and reporting;
* :mod:`repro.matching`, :mod:`repro.switch`, :mod:`repro.utils` —
  substrates.
"""

from repro.analysis import EpochController, ExperimentConfig, run_comparison
from repro.core import (
    CpSchedule,
    CpSwitchScheduler,
    FilterConfig,
    ReducedDemand,
    cp_switch_demand_reduction,
    cpsched,
    divide_by_type,
)
from repro.faults import (
    BackupPlanner,
    BackupSet,
    FaultInjector,
    FaultPlan,
    FaultSummary,
    RerouteOutcome,
    SwapEvent,
)
from repro.hybrid import (
    EclipseScheduler,
    Schedule,
    ScheduleEntry,
    SolsticeScheduler,
    TdmScheduler,
    make_scheduler,
)
from repro.sim import SimulationResult, simulate_cp, simulate_hybrid
from repro.switch import OcsClass, SwitchParams, fast_ocs_params, slow_ocs_params
from repro.workloads import (
    CombinedWorkload,
    SkewedWorkload,
    TypicalBackgroundWorkload,
    VaryingSkewWorkload,
)
from repro.workloads.coflows import Coflow, CoflowSet, CoflowType

__version__ = "1.0.0"

__all__ = [
    "BackupPlanner",
    "BackupSet",
    "Coflow",
    "CoflowSet",
    "CoflowType",
    "CombinedWorkload",
    "CpSchedule",
    "CpSwitchScheduler",
    "EclipseScheduler",
    "EpochController",
    "ExperimentConfig",
    "FaultInjector",
    "FaultPlan",
    "FaultSummary",
    "FilterConfig",
    "OcsClass",
    "ReducedDemand",
    "RerouteOutcome",
    "Schedule",
    "ScheduleEntry",
    "SimulationResult",
    "SkewedWorkload",
    "SolsticeScheduler",
    "SwapEvent",
    "SwitchParams",
    "TdmScheduler",
    "TypicalBackgroundWorkload",
    "VaryingSkewWorkload",
    "__version__",
    "cp_switch_demand_reduction",
    "cpsched",
    "divide_by_type",
    "fast_ocs_params",
    "make_scheduler",
    "run_comparison",
    "simulate_cp",
    "simulate_hybrid",
    "slow_ocs_params",
]
