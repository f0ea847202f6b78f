"""Pool-addressable per-epoch heavy stages for the scheduling service.

Every epoch, the service runs the *primary* schedule inline (the epoch's
deadline budget and bit-identity contract live in the parent process) and
fans the auxiliary heavy stages out to a warm
:class:`~repro.runner.pool.WorkerPool`:

* :func:`scheduler_arm` — score an independent scheduler on the epoch's
  demand snapshot (what would Eclipse/TDM/... have delivered?);
* :func:`backup_arm` — precompute a fast-reroute backup set for the
  snapshot (how much outage cover could this epoch have armed, and at
  what planning cost?).

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
from repro.faults.reroute import BackupPlanner
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


def backup_arm(
    *,
    demand: np.ndarray,
    params: SwitchParams,
    name: str = "solstice",
    blocked_o2m: "tuple[int, ...]" = (),
    blocked_m2o: "tuple[int, ...]" = (),
) -> dict:
    """Precompute fast-reroute backups for an epoch's demand snapshot."""
    start = time.perf_counter()
    with obs.profiled("service.stage", stage="backup", arm=name):
        cp = CpSwitchScheduler(make_scheduler(name))
        schedule = cp.schedule(
            demand,
            params,
            blocked_o2m=set(blocked_o2m) or None,
            blocked_m2o=set(blocked_m2o) or None,
        )
        backups = BackupPlanner(cp).plan(
            demand,
            schedule,
            params,
            blocked_o2m=set(blocked_o2m),
            blocked_m2o=set(blocked_m2o),
        )
    return {
        "arm": f"backup:{name}",
        "n_armed": backups.n_armed,
        "plan_ms": backups.plan_seconds * 1e3,
        "stage_ms": (time.perf_counter() - start) * 1e3,
    }
