"""Pool-addressable per-epoch stages for the scheduling service.

Every epoch, the service runs the *primary* schedule inline (the epoch's
deadline budget and bit-identity contract live in the parent process) and
fans advisory scheduler arms out to a warm
:class:`~repro.runner.pool.WorkerPool`: :func:`scheduler_arm` scores an
independent scheduler on the epoch's demand snapshot (what would
Eclipse/TDM/... have delivered?).  Fast-reroute backups for the primary
are planned inline by the controller (``EpochController(fast_reroute=True)``).

Stage functions are addressed by ``"module:function"`` path (the same
convention as trial specs), take picklable keyword arguments, and return
small JSON-like dicts — the pool ships them over pipes, so nothing big
crosses back.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.base import make_scheduler
from repro.sim import simulate_cp, simulate_hybrid
from repro.switch.params import SwitchParams

#: Default auxiliary arms the service shards each epoch.
DEFAULT_ARMS = ("eclipse", "tdm")


def scheduler_arm(
    *,
    name: str,
    demand: np.ndarray,
    params: SwitchParams,
    use_composite_paths: bool = True,
    horizon: "float | None" = None,
) -> dict:
    """Score one independent scheduler arm on an epoch's demand snapshot."""
    start = time.perf_counter()
    with obs.profiled("service.stage", stage="arm", arm=name):
        scheduler = make_scheduler(name)
        if use_composite_paths:
            schedule = CpSwitchScheduler(scheduler).schedule(demand, params)
            result = simulate_cp(demand, schedule, params, horizon=horizon)
        else:
            schedule = scheduler.schedule(demand, params)
            result = simulate_hybrid(demand, schedule, params, horizon=horizon)
    residual = (
        float(result.residual.sum()) if result.residual is not None else 0.0
    )
    return {
        "arm": name,
        "completion_time": result.completion_time,
        "n_configs": result.n_configs,
        "makespan": result.makespan,
        "residual_mb": residual,
        "stage_ms": (time.perf_counter() - start) * 1e3,
    }
