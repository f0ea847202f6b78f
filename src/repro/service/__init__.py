"""Service-grade scheduling: deadlines, graceful degradation, the loop.

The batch pipeline assumes the scheduler finishes before its results are
needed.  A long-running scheduling service (ROADMAP item 1) needs the
opposite guarantee: an epoch always has *some* valid schedule by its
wall-clock deadline.  :mod:`repro.service.deadline` provides the budget
and the anytime wrapper that make that guarantee explicit;
:mod:`repro.service.loop` wraps the epoch controller into the continuous
asyncio loop a deployment would operate (ingestion, monotonic epoch
clock, warm-worker stage sharding, drain-on-stop), and
:mod:`repro.service.stages` holds the pool-addressable advisory arms.
"""

from repro.service.deadline import (
    FALLBACK_EPS_ONLY,
    FALLBACK_FULL,
    FALLBACK_TDM,
    FALLBACK_TRUNCATED,
    FALLBACK_WARM_REUSE,
    AnytimeOutcome,
    AnytimeScheduler,
    DeadlineBudget,
    TickClock,
)
from repro.service.loop import (
    EpochOutcome,
    SchedulingService,
    ServiceConfig,
    ServiceReport,
)
from repro.service.stages import DEFAULT_ARMS

__all__ = [
    "AnytimeOutcome",
    "AnytimeScheduler",
    "DeadlineBudget",
    "DEFAULT_ARMS",
    "EpochOutcome",
    "SchedulingService",
    "ServiceConfig",
    "ServiceReport",
    "TickClock",
    "FALLBACK_FULL",
    "FALLBACK_TRUNCATED",
    "FALLBACK_WARM_REUSE",
    "FALLBACK_TDM",
    "FALLBACK_EPS_ONLY",
]
