"""The paper's primary contribution: composite-path switch scheduling.

* :mod:`repro.core.config` — filtering-threshold configuration (Rt, Bt and
  the α/β tuning heuristic of §4).
* :mod:`repro.core.reduction` — Algorithm 1, ``cp-SwitchDemandReduction``.
* :mod:`repro.core.cpsched` — Algorithm 2, ``CPSched``.
* :mod:`repro.core.divide` — Algorithm 3, ``DivideByType``.
* :mod:`repro.core.scheduler` — Algorithm 4, ``CPSwitchSched``.

Algorithms 1, 3 and 4 take ``k`` composite paths per direction (the §4
extension; ``n_paths``, default 1 as in the paper).
"""

from repro.core.config import FilterConfig
from repro.core.cpsched import cpsched
from repro.core.divide import divide_by_type
from repro.core.reduction import ReducedDemand, cp_switch_demand_reduction
from repro.core.scheduler import CompositeScheduleEntry, CpSchedule, CpSwitchScheduler

__all__ = [
    "CompositeScheduleEntry",
    "CpSchedule",
    "CpSwitchScheduler",
    "FilterConfig",
    "ReducedDemand",
    "cp_switch_demand_reduction",
    "cpsched",
    "divide_by_type",
]
