"""Switch model: port/link parameters and virtual output queues."""

from repro.switch.params import (
    FAST_OCS_DELTA_MS,
    SLOW_OCS_DELTA_MS,
    OcsClass,
    SwitchParams,
    fast_ocs_params,
    slow_ocs_params,
)
from repro.switch.voq import VirtualOutputQueues

__all__ = [
    "FAST_OCS_DELTA_MS",
    "SLOW_OCS_DELTA_MS",
    "OcsClass",
    "SwitchParams",
    "VirtualOutputQueues",
    "fast_ocs_params",
    "slow_ocs_params",
]
