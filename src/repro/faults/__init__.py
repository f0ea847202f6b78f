"""Fault injection and graceful cp-Switch → h-Switch degradation.

The paper's evaluation assumes a perfect fabric.  This package supplies
the machinery to break it on purpose — seedable :class:`FaultPlan`
realizations covering OCS reconfiguration failures and stragglers, circuit
setup failures, composite-path port outages, and EPS rate degradation —
and the simulators in :mod:`repro.sim` consume it so that a faulted
schedule still conserves volume: failed circuits serve zero rate, demand
parked on a dead composite path falls back to the regular EPS/OCS paths,
and :meth:`repro.sim.metrics.SimulationResult.check_conservation` holds
under every fault mix.

:mod:`repro.faults.reroute` adds the fast-reroute layer on top: per
epoch, :class:`BackupPlanner` arms one failure class per granted composite
port (a :class:`BackupSet`).  When an outage is discovered mid-run the
simulator swaps in that port's repair — the primary reduction's filtered
demand with the dead port's line masked, derived at swap time — and so
recovers parked demand at the current phase boundary instead of degrading
to an EPS-only drain.
"""

from repro.faults.injector import FaultInjector, as_injector
from repro.faults.plan import FaultPlan, FaultSummary
from repro.faults.reroute import (
    BackupPlanner,
    BackupSet,
    RerouteOutcome,
    SwapEvent,
)

__all__ = [
    "BackupPlanner",
    "BackupSet",
    "FaultInjector",
    "FaultPlan",
    "FaultSummary",
    "RerouteOutcome",
    "SwapEvent",
    "as_injector",
]
