"""Schedule-quality baselines: ``repro obs baseline record`` / ``obs check``.

A refactor can change *what the scheduler decides* (slice counts,
composite-path grants, OCS-served fractions) without an assertion
tripping, and that moves the paper's throughput/completion-time numbers.
This module records those decisions on seeded demands in one baseline
file (``BENCH_obs.json``) and gates a later measurement against it:

* ``repro obs baseline record`` runs, per (radix, scheduler) point, the
  live Figure 5/6 pipeline (schedule + simulate on the h-Switch and the
  cp-Switch, over seeded :class:`~repro.workloads.skewed.SkewedWorkload`
  demands), the fast-reroute backup planner and the tick-budget deadline
  ladder once, inside one :class:`~repro.obs.MetricsRegistry`.  The
  point's fingerprint is the results' OCS/composite fractions and
  configuration counts plus every quality counter of that registry
  (:func:`repro.obs.diff.quality_metrics`).
* ``repro obs check --baseline BENCH_obs.json`` re-measures (or takes a
  ``--current`` file, the test-injection point) and exits nonzero on *any*
  quality drift, judged by :func:`repro.obs.diff.quality_drift` — the rule
  ``obs diff`` uses — or when the two files were measured under different
  envelopes (seed, OCS class, trials) and so cannot be compared.

Nothing here is timed: ``perfbench/run.py`` times the same stages per
layer, change against parent.  The fingerprint is machine-independent, so
any recorded file can gate any machine.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np

from repro import obs
from repro.analysis.figures import DEFAULT_SEED, params_for
from repro.core.scheduler import CpSwitchScheduler
from repro.faults.reroute import BackupPlanner
from repro.hybrid.base import make_scheduler
from repro.obs.diff import quality_drift, quality_metrics
from repro.service.deadline import AnytimeScheduler, TickClock
from repro.sim import simulate_cp, simulate_hybrid
from repro.utils.fileio import atomic_write_json
from repro.utils.rng import spawn_rngs
from repro.workloads.skewed import SkewedWorkload

#: Version of the BENCH_obs.json envelope.  Format 1 also carried stage
#: timings and its own quality field names.
BASELINE_FORMAT: int = 2

#: Tick budget for the deadline-ladder fingerprint.  On a unit-step
#: :class:`~repro.service.deadline.TickClock` exhaustion is a function of
#: checkpoint *count* (reduce, stuffing, then one per slice/step), so the
#: resulting miss count and fallback histogram are machine-independent —
#: exact-comparable like slice counts.  4.5 ticks truncates after the
#: first slice (L1) at most recorded points while still letting the
#: tightest schedules finish clean (L0), so the fingerprint is sensitive
#: in both directions.
DEADLINE_TICK_BUDGET: float = 4.5

#: Envelope fields that must match for two files to be comparable: they
#: fix the demands (seed, OCS class, trial count).
_ENVELOPE: "tuple[str, ...]" = ("seed", "ocs", "trials_per_point")


def measure_point(
    n_ports: int,
    scheduler: str = "solstice",
    ocs: str = "fast",
    n_trials: int = 2,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Fingerprint one (radix, scheduler) point's schedule decisions."""
    if n_trials < 1:
        raise ValueError(f"trials must be >= 1, got {n_trials}")
    params = params_for(ocs, n_ports)
    workload = SkewedWorkload.for_params(params)
    demands = [
        workload.generate(params.n_ports, rng).demand
        for rng in spawn_rngs(seed, n_trials)
    ]
    inner = make_scheduler(scheduler)
    cp_scheduler = CpSwitchScheduler(inner)
    planner = BackupPlanner(cp_scheduler)
    # The same demands scheduled under a tick budget: any change to
    # checkpoint placement or rung selection shifts the deadline counters.
    anytime = AnytimeScheduler(
        CpSwitchScheduler(make_scheduler(scheduler)),
        deadline_s=DEADLINE_TICK_BUDGET,
        clock=TickClock(step=1.0),
    )
    h_results, cp_results = [], []
    registry = obs.MetricsRegistry()
    with obs.observability(metrics=registry):
        for demand in demands:
            h_schedule = inner.schedule(demand, params)
            h_results.append(simulate_hybrid(demand, h_schedule, params))
            cp_schedule = cp_scheduler.schedule(demand, params)
            cp_results.append(simulate_cp(demand, cp_schedule, params))
            planner.plan(demand, cp_schedule, params)
            anytime.schedule(demand, params)
    total = sum(result.total_demand for result in h_results)
    denom = total if total > 0 else 1.0
    quality = {
        "h_ocs_fraction": sum(r.served_ocs_direct for r in h_results) / denom,
        "cp_ocs_fraction": sum(r.served_ocs_direct for r in cp_results) / denom,
        "composite_fraction": sum(r.served_composite for r in cp_results) / denom,
        "h_configs": sum(r.n_configs for r in h_results),
        "cp_configs": sum(r.n_configs for r in cp_results),
        **quality_metrics(registry.snapshot()),
    }
    return {"radix": n_ports, "scheduler": scheduler, "ocs": ocs, "quality": quality}


def record_baseline(
    radices: "tuple[int, ...]" = (32, 64, 128),
    schedulers: "tuple[str, ...]" = ("solstice", "eclipse"),
    ocs: str = "fast",
    n_trials: int = 2,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Measure every point and assemble the ``BENCH_obs.json`` payload."""
    points = [
        measure_point(
            n_ports=n, scheduler=scheduler, ocs=ocs, n_trials=n_trials, seed=seed
        )
        for scheduler in schedulers
        for n in radices
    ]
    return {
        "benchmark": "obs-baseline",
        "format": BASELINE_FORMAT,
        "seed": seed,
        "ocs": ocs,
        "trials_per_point": n_trials,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "points": points,
    }


def load_baseline(path: "str | Path") -> dict:
    """Load and envelope-check a ``BENCH_obs.json`` file."""
    path = Path(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    version = payload.get("format")
    if version != BASELINE_FORMAT:
        raise ValueError(
            f"unsupported baseline format v{version} in {path} "
            f"(expected v{BASELINE_FORMAT}); record the baseline again"
        )
    count = payload.get("trials_per_point")
    if not isinstance(count, int) or count < 1:
        # Zero trials decide nothing: an empty fingerprint no later
        # measurement can drift from.
        raise ValueError(
            f"trials_per_point must be a positive integer in {path}, got "
            f"{count!r}; record the baseline again"
        )
    return payload


def write_baseline(payload: dict, path: "str | Path") -> Path:
    """Atomically persist a baseline payload."""
    return atomic_write_json(payload, path)


def measure_like(baseline: dict) -> dict:
    """Re-measure with the exact configuration a baseline was recorded at."""
    points = baseline.get("points", [])
    radices = tuple(sorted({point["radix"] for point in points}))
    schedulers = tuple(
        dict.fromkeys(point["scheduler"] for point in points)
    )  # insertion order, deduped
    return record_baseline(
        radices=radices or (32,),
        schedulers=schedulers or ("solstice",),
        ocs=baseline.get("ocs", "fast"),
        n_trials=baseline.get("trials_per_point", 2),
        seed=baseline.get("seed", DEFAULT_SEED),
    )


def check_baseline(baseline: dict, current: dict) -> "list[str]":
    """Compare ``current`` against ``baseline``; return violation messages.

    An empty list means the gate passes.  Violations are of two kinds:

    * *not comparable* — the two files differ in an envelope field
      (:data:`_ENVELOPE`), so they scheduled different demands; nothing
      else is compared;
    * *quality drift* — :func:`repro.obs.diff.quality_drift` reports a
      point's metric, or a point is missing from ``current``.
    """
    mismatched = [
        f"not comparable — {field} {baseline.get(field)!r} in the baseline, "
        f"{current.get(field)!r} in the current measurement"
        for field in _ENVELOPE
        if baseline.get(field) != current.get(field)
    ]
    if mismatched:
        return mismatched
    current_points = {
        (point["radix"], point["scheduler"]): point
        for point in current.get("points", [])
    }
    violations: "list[str]" = []
    for point in baseline.get("points", []):
        label = f"{point['scheduler']} radix={point['radix']}"
        now = current_points.get((point["radix"], point["scheduler"]))
        if now is None:
            violations.append(f"{label}: point missing from current measurement")
            continue
        violations.extend(
            f"{label}: quality drift — {entry['metric']} "
            f"{entry['a']!r} → {entry['b']!r}"
            for entry in quality_drift(point["quality"], now["quality"])
        )
    return violations
