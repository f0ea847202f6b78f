"""The layers the traced run times, and the per-layer metrics it derives.

Layers are named after the module that owns them.  Each is patched where
its caller looks the name up: the module attribute for a function the
caller imported with ``from x import f``, the class attribute for a
method.  Pool workers are not patched; the pool is timed from the parent
(``runner.pool.map``).

Every per-layer metric is an average per measured operation — per trial on
the sweeps, per epoch on the serve workloads — unless its name says
otherwise (``workloads.generate_ms`` is per generated matrix,
``runner.pool.worker_deaths`` a count over the run).
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict

import repro.sim
from repro.analysis.controller import EpochController
from repro.core.scheduler import CpSwitchScheduler
from repro.faults.reroute import BackupPlanner
from repro.hybrid.eclipse import EclipseScheduler
from repro.hybrid.solstice import SolsticeScheduler
from repro.runner.pool import WorkerPool
from repro.sim.engine import FluidEngine
from repro.workloads.skewed import SkewedWorkload

from spans import END, START, LayerTotals, SpanRecorder, op_index

#: Layers whose return value has a count worth keeping on the span
#: (configurations emitted, stage tasks run).
_EXTRA = {"hybrid.solstice": len, "hybrid.eclipse": len, "runner.pool.map": len}

#: (metric, layer, aggregate) averaged per operation.
_PER_OP = (
    ("sim.simulate_hybrid.busy_ms", "sim.simulate_hybrid", "busy_ms"),
    ("sim.simulate_cp.busy_ms", "sim.simulate_cp", "busy_ms"),
    ("sim.run_phase.calls", "sim.run_phase", "calls"),
    ("sim.run_phase.self_ms", "sim.run_phase", "self_ms"),
    ("sim.waterfill.calls", "sim.waterfill", "calls"),
    ("sim.waterfill.busy_ms", "sim.waterfill", "busy_ms"),
    ("hybrid.solstice.calls", "hybrid.solstice", "calls"),
    ("hybrid.solstice.busy_ms", "hybrid.solstice", "busy_ms"),
    ("hybrid.solstice.configs", "hybrid.solstice", "extra"),
    ("hybrid.eclipse.calls", "hybrid.eclipse", "calls"),
    ("hybrid.eclipse.busy_ms", "hybrid.eclipse", "busy_ms"),
    ("hybrid.eclipse.configs", "hybrid.eclipse", "extra"),
    ("matching.assign.calls", "matching.assign", "calls"),
    ("matching.assign.busy_ms", "matching.assign", "busy_ms"),
    ("core.schedule.busy_ms", "core.schedule", "busy_ms"),
    ("core.schedule.self_ms", "core.schedule", "self_ms"),
    ("core.reduce.calls", "core.reduce", "calls"),
    ("core.reduce.busy_ms", "core.reduce", "busy_ms"),
    ("core.cpsched.calls", "core.cpsched", "calls"),
    ("core.cpsched.busy_ms", "core.cpsched", "busy_ms"),
    ("faults.plan.calls", "faults.plan", "calls"),
    ("faults.plan.busy_ms", "faults.plan", "busy_ms"),
    ("controller.offer.busy_ms", "controller.offer", "busy_ms"),
    ("controller.run_epoch.busy_ms", "controller.run_epoch", "busy_ms"),
    ("runner.pool.map_ms", "runner.pool.map", "busy_ms"),
    ("runner.pool.tasks", "runner.pool.map", "extra"),
)

#: Every per-layer metric the traced run prints, with its unit.
UNITS = {
    **{
        name: "ms" if aggregate.endswith("_ms") else "count"
        for name, _layer, aggregate in _PER_OP
    },
    "matching.assign_per_config": "ratio",
    "faults.backups_armed": "count",
    "faults.reroute_swaps": "count",
    "controller.backlog_mb_p50": "Mb",
    "runner.pool.retries": "count",
    "runner.pool.worker_deaths": "count",
    "service.stage_wait_ms": "ms",
    "service.loop_ms": "ms",
    "workloads.generate_ms": "ms",
    "bench.trace_overhead_pct": "%",
}


def _call_sites() -> "dict[str, list[tuple[object, str]]]":
    module = importlib.import_module
    controller = module("repro.analysis.controller")
    scheduler = module("repro.core.scheduler")
    return {
        "sim.simulate_hybrid": [
            (repro.sim, "simulate_hybrid"),
            (controller, "simulate_hybrid"),
        ],
        "sim.simulate_cp": [(repro.sim, "simulate_cp"), (controller, "simulate_cp")],
        "sim.run_phase": [(FluidEngine, "run_phase")],
        "sim.waterfill": [(module("repro.sim.engine"), "max_min_fair_rates")],
        "hybrid.solstice": [(SolsticeScheduler, "schedule")],
        "hybrid.eclipse": [(EclipseScheduler, "schedule")],
        "matching.assign": [
            (module("repro.hybrid.eclipse.scheduler"), "max_weight_matching")
        ],
        "core.schedule": [(CpSwitchScheduler, "schedule")],
        "core.reduce": [
            (scheduler, "reduce_with_config"),
            (module("repro.faults.reroute"), "reduce_with_config"),
        ],
        "core.cpsched": [(scheduler, "cpsched")],
        "faults.plan": [(BackupPlanner, "plan")],
        "controller.offer": [(EpochController, "offer")],
        "controller.run_epoch": [(EpochController, "run_epoch")],
        "runner.pool.map": [(WorkerPool, "map")],
        "workloads.generate": [(SkewedWorkload, "generate")],
    }


def install(recorder: SpanRecorder) -> None:
    """Patch every layer into ``recorder``."""
    for layer, sites in _call_sites().items():
        for owner, attr in sites:
            recorder.patch(owner, attr, layer, _EXTRA.get(layer))


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _service_split(recorder: SpanRecorder, windows) -> "tuple[float, float]":
    """Mean stage wait and loop time per epoch, in ms.

    Stage wait is the end of ``WorkerPool.map`` minus the end of
    ``run_epoch`` (floored at 0): how long the epoch waited for its
    advisory stages.  Loop time is what the cycle spends outside offer,
    ``run_epoch`` and that wait.
    """
    per_op: "dict[int, dict[str, tuple]]" = defaultdict(dict)
    for layer in ("controller.offer", "controller.run_epoch", "runner.pool.map"):
        for span in recorder.of(layer):
            index = op_index(windows, span[START])
            if index >= 0:
                per_op[index][layer] = span
    waits, loops = [], []
    for index, (start, end) in enumerate(windows):
        spans = per_op.get(index, {})
        offer = spans.get("controller.offer")
        run = spans.get("controller.run_epoch")
        if offer is None or run is None:
            continue
        pool = spans.get("runner.pool.map")
        wait = max(0.0, pool[END] - run[END]) if pool is not None else 0.0
        waits.append(wait)
        loops.append(
            (end - start)
            - (offer[END] - offer[START])
            - (run[END] - run[START])
            - wait
        )
    return _mean(waits) * 1e3, _mean(loops) * 1e3


def metrics(recorder: SpanRecorder, outcome, overhead_pct: float) -> "dict[str, float]":
    """Every metric of :data:`UNITS` from a traced run's spans and outcome."""
    windows = outcome.windows
    n_ops = max(1, len(windows))
    totals: "dict[str, LayerTotals]" = defaultdict(
        LayerTotals, recorder.totals(windows)
    )
    values: "dict[str, float]" = {}
    for name, layer, aggregate in _PER_OP:
        entry = totals[layer]
        total = {
            "calls": entry.calls,
            "busy_ms": entry.busy_s * 1e3,
            "self_ms": entry.self_s * 1e3,
            "extra": entry.extra,
        }[aggregate]
        values[name] = total / n_ops
    configs = totals["hybrid.eclipse"].extra
    values["matching.assign_per_config"] = (
        totals["matching.assign"].calls / configs if configs else 0.0
    )
    epochs = outcome.epochs
    values["faults.backups_armed"] = _mean(e.report.backups_armed for e in epochs)
    values["faults.reroute_swaps"] = _mean(e.report.reroute_swaps for e in epochs)
    values["controller.backlog_mb_p50"] = (
        statistics.median(e.report.backlog_after for e in epochs) if epochs else 0.0
    )
    values["runner.pool.retries"] = _mean(e.stage_retries for e in epochs)
    values["runner.pool.worker_deaths"] = float(outcome.worker_deaths)
    values["service.stage_wait_ms"], values["service.loop_ms"] = _service_split(
        recorder, windows
    )
    generate = recorder.totals().get("workloads.generate")
    values["workloads.generate_ms"] = (
        generate.busy_s * 1e3 / generate.calls if generate else 0.0
    )
    values["bench.trace_overhead_pct"] = overhead_pct
    return values


def table(recorder: SpanRecorder, windows) -> str:
    """Calls, busy and self time per operation for every layer seen."""
    n_ops = max(1, len(windows))
    rows = [f"{'layer':<22}{'calls/op':>12}{'busy ms/op':>14}{'self ms/op':>14}"]
    for layer, entry in sorted(recorder.totals(windows).items()):
        rows.append(
            f"{layer:<22}{entry.calls / n_ops:>12.2f}"
            f"{entry.busy_s * 1e3 / n_ops:>14.3f}{entry.self_s * 1e3 / n_ops:>14.3f}"
        )
    return "\n".join(rows)
