"""Perf + schedule-quality baselines: ``repro obs baseline record`` / ``obs check``.

Hybrid-switch schedulers fail silently in two distinct ways: a refactor
can make a phase *slower* without changing any result, or it can change
*what the scheduler decides* (slice counts, composite-path grants,
OCS-served fractions) without an assertion tripping — and the second kind
moves the paper's throughput/completion-time numbers.  This module is the
repo's one in-tree recorder and gate for both families, kept in one
baseline file (``BENCH_obs.json``):

* ``repro obs baseline record`` times the live Figure 5/6 pipeline per
  stage (:data:`STAGES`: schedule + simulate on the h-Switch and the
  cp-Switch, over seeded :class:`~repro.workloads.skewed.SkewedWorkload`
  demands) under a metrics-enabled observability context, and derives the
  schedule-quality fingerprint from the simulation results plus the audit
  counters, the fast-reroute backup count and the deadline-ladder
  outcomes.
* ``repro obs check --baseline BENCH_obs.json`` re-measures (or takes a
  ``--current`` file, the test-injection point) and exits nonzero on a
  timing regression beyond ``--tolerance``, on *any* quality drift, or
  when the two files were measured under different envelopes (seed, OCS
  class, trials, repeats) and so cannot be compared.

Timing comparisons only engage for stages above ``min_seconds`` (noise on
micro-stages is not a regression) and are run machine-locally: CI records
a fresh baseline in-job before checking, so the gate measures the commit,
not the hardware.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.analysis.figures import DEFAULT_SEED, params_for
from repro.core.scheduler import CpSwitchScheduler
from repro.faults.reroute import BackupPlanner
from repro.hybrid.base import make_scheduler
from repro.service.deadline import AnytimeScheduler, TickClock
from repro.sim import simulate_cp, simulate_hybrid
from repro.switch.params import SwitchParams
from repro.utils.fileio import atomic_write_json
from repro.utils.rng import spawn_rngs
from repro.workloads.skewed import SkewedWorkload

#: Version of the BENCH_obs.json envelope.
BASELINE_FORMAT: int = 1

#: The stages every point is timed over, in pipeline order.
STAGES: "tuple[str, ...]" = ("h_schedule", "h_simulate", "cp_schedule", "cp_simulate")

#: Default relative timing-regression tolerance (25% — generous enough for
#: shared CI runners, tight enough to catch a de-vectorized hot path).
DEFAULT_TOLERANCE: float = 0.25

#: Stages cheaper than this (seconds) are exempt from timing comparison.
DEFAULT_MIN_SECONDS: float = 0.01

#: Relative tolerance for float-valued quality numbers (summation-order
#: dust only; a real schedule change moves these by far more).
QUALITY_RTOL: float = 1e-9

#: Quality fields compared exactly (integer schedule decisions).
_EXACT_QUALITY: "tuple[str, ...]" = (
    "h_configs",
    "cp_configs",
    "slices",
    "watchdog_trips",
    "backup_count",
    "deadline_misses",
    "deadline_fallbacks",
)

#: Tick budget for the deadline-ladder fingerprint.  On a unit-step
#: :class:`~repro.service.deadline.TickClock` exhaustion is a function of
#: checkpoint *count* (reduce, stuffing, then one per slice/step), so the
#: resulting miss count and fallback histogram are machine-independent —
#: exact-comparable like slice counts.  4.5 ticks truncates after the
#: first slice (L1) at most recorded points while still letting the
#: tightest schedules finish clean (L0), so the fingerprint is sensitive
#: in both directions.
DEADLINE_TICK_BUDGET: float = 4.5

#: Envelope fields that must match for two files to be comparable: the
#: demands (seed, OCS class, trial count) and the min-of-repeats estimator.
_ENVELOPE: "tuple[str, ...]" = ("seed", "ocs", "trials_per_point", "repeats")

#: Quality fields compared with :data:`QUALITY_RTOL`.
_FLOAT_QUALITY: "tuple[str, ...]" = (
    "h_ocs_fraction",
    "cp_ocs_fraction",
    "composite_fraction",
)


def _counter_total(snapshot: dict, name: str) -> float:
    """Sum a counter over all its label children in a metrics snapshot."""
    payload = snapshot.get(name)
    if not payload:
        return 0.0
    return sum(float(entry.get("value", 0.0)) for entry in payload.get("values", []))


def _run_pipeline(demands, params: SwitchParams, scheduler: str):
    """Schedule + simulate every demand once; return (stage seconds, results).

    Results are ``(h_result, cp_result)`` pairs in trial order.
    """
    times = dict.fromkeys(STAGES, 0.0)
    results = []
    inner = make_scheduler(scheduler)
    cp_scheduler = CpSwitchScheduler(inner)
    for demand in demands:
        start = time.perf_counter()
        h_sched = inner.schedule(demand, params)
        t1 = time.perf_counter()
        h_result = simulate_hybrid(demand, h_sched, params)
        t2 = time.perf_counter()
        cp_sched = cp_scheduler.schedule(demand, params)
        t3 = time.perf_counter()
        cp_result = simulate_cp(demand, cp_sched, params)
        t4 = time.perf_counter()
        times["h_schedule"] += t1 - start
        times["h_simulate"] += t2 - t1
        times["cp_schedule"] += t3 - t2
        times["cp_simulate"] += t4 - t3
        results.append((h_result, cp_result))
    return times, results


def measure_point(
    n_ports: int,
    scheduler: str = "solstice",
    ocs: str = "fast",
    n_trials: int = 2,
    seed: int = DEFAULT_SEED,
    repeats: int = 2,
) -> dict:
    """Measure one (radix, scheduler) point: stage timings + quality.

    Timing is the per-stage minimum across ``repeats`` (the least noisy
    estimator); quality comes from the *first* repeat's results and audit
    counters — repeats are bit-identical by construction, so any repeat
    would do.
    """
    if n_trials < 1:
        raise ValueError(f"trials must be >= 1, got {n_trials}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    params = params_for(ocs, n_ports)
    workload = SkewedWorkload.for_params(params)
    demands = [
        workload.generate(params.n_ports, rng).demand
        for rng in spawn_rngs(seed, n_trials)
    ]

    timing = dict.fromkeys(STAGES, np.inf)
    quality: "dict | None" = None
    for repeat in range(repeats):
        registry = obs.MetricsRegistry()
        with obs.observability(metrics=registry):
            times, results = _run_pipeline(demands, params, scheduler)
        for stage in STAGES:
            timing[stage] = min(timing[stage], times[stage])
        if repeat == 0:
            quality = _quality_fingerprint(results, registry.snapshot(), scheduler)
    timing["total"] = sum(timing[stage] for stage in STAGES)
    assert quality is not None

    # Fast-reroute backup precompute: timed against the same demands so
    # ``obs check`` gates its overhead relative to ``h_schedule`` (the
    # ISSUE bound is < 10% at radix 128).  Schedules are built once,
    # outside the timed region — only ``BackupPlanner.plan`` is measured.
    cp_scheduler = CpSwitchScheduler(make_scheduler(scheduler))
    planner = BackupPlanner(cp_scheduler)
    cp_schedules = [cp_scheduler.schedule(demand, params) for demand in demands]
    backup_s = np.inf
    backup_count = 0
    for _ in range(repeats):
        start = time.perf_counter()
        backup_count = sum(
            planner.plan(demand, cp_schedule, params).n_armed
            for demand, cp_schedule in zip(demands, cp_schedules)
        )
        backup_s = min(backup_s, time.perf_counter() - start)
    timing["backup_plan"] = backup_s
    quality["backup_count"] = int(backup_count)

    # Deadline-ladder fingerprint: the same demands scheduled under a tick
    # budget.  Any change to checkpoint placement or rung selection shifts
    # these counts, so ``obs check`` gates the fallback ladder the same way
    # it gates slice counts.  Runs outside the observability context above
    # so the anytime counters never leak into the pipeline's audit quality.
    anytime = AnytimeScheduler(
        CpSwitchScheduler(make_scheduler(scheduler)),
        deadline_s=DEADLINE_TICK_BUDGET,
        clock=TickClock(step=1.0),
    )
    deadline_misses = 0
    deadline_fallbacks: "dict[str, int]" = {}
    for demand in demands:
        anytime.schedule(demand, params)
        outcome = anytime.last_outcome
        deadline_misses += int(outcome.deadline_hit)
        level = str(outcome.fallback_level)
        deadline_fallbacks[level] = deadline_fallbacks.get(level, 0) + 1
    quality["deadline_misses"] = deadline_misses
    quality["deadline_fallbacks"] = deadline_fallbacks
    return {
        "radix": n_ports,
        "scheduler": scheduler,
        "ocs": ocs,
        "timing_s": {key: round(value, 6) for key, value in timing.items()},
        "quality": quality,
    }


def _quality_fingerprint(results, snapshot: dict, scheduler: str) -> dict:
    """Schedule-quality numbers of one point (deterministic for a seed)."""
    h_results = [pair[0] for pair in results]
    cp_results = [pair[1] for pair in results]
    total = sum(result.total_demand for result in h_results)
    denom = total if total > 0 else 1.0
    slices = _counter_total(
        snapshot,
        "solstice_slices_total" if scheduler == "solstice" else "eclipse_steps_total",
    )
    return {
        "h_ocs_fraction": sum(r.served_ocs_direct for r in h_results) / denom,
        "cp_ocs_fraction": sum(r.served_ocs_direct for r in cp_results) / denom,
        "composite_fraction": sum(r.served_composite for r in cp_results) / denom,
        "h_configs": int(sum(r.n_configs for r in h_results)),
        "cp_configs": int(sum(r.n_configs for r in cp_results)),
        "slices": int(slices),
        "watchdog_trips": int(
            _counter_total(snapshot, "scheduler_watchdog_trips_total")
        ),
    }


def record_baseline(
    radices: "tuple[int, ...]" = (32, 64, 128),
    schedulers: "tuple[str, ...]" = ("solstice", "eclipse"),
    ocs: str = "fast",
    n_trials: int = 2,
    seed: int = DEFAULT_SEED,
    repeats: int = 2,
) -> dict:
    """Measure every point and assemble the ``BENCH_obs.json`` payload."""
    points = [
        measure_point(
            n_ports=n,
            scheduler=scheduler,
            ocs=ocs,
            n_trials=n_trials,
            seed=seed,
            repeats=repeats,
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
        "repeats": repeats,
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
            f"(expected v{BASELINE_FORMAT})"
        )
    for field in ("trials_per_point", "repeats"):
        count = payload.get(field)
        if not isinstance(count, int) or count < 1:
            # Zero trials time nothing: every stage 0.0 s, a gate that
            # always passes.
            raise ValueError(
                f"{field} must be a positive integer in {path}, got {count!r}; "
                "record the baseline again"
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
        repeats=baseline.get("repeats", 2),
    )


def check_baseline(
    baseline: dict,
    current: dict,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> "list[str]":
    """Compare ``current`` against ``baseline``; return violation messages.

    An empty list means the gate passes.  Violations are of three kinds:

    * *not comparable* — the two files differ in an envelope field
      (:data:`_ENVELOPE`), so they timed different demands or a different
      number of repeats; nothing else is compared;
    * *timing* — a tracked stage above ``min_seconds`` in the baseline got
      more than ``tolerance`` (relative) slower;
    * *quality drift* — any integer schedule decision changed, or a float
      fraction moved beyond summation-order dust (:data:`QUALITY_RTOL`).
    """
    if not tolerance >= 0:  # NaN-safe
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
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
        key = (point["radix"], point["scheduler"])
        label = f"{point['scheduler']} radix={point['radix']}"
        now = current_points.get(key)
        if now is None:
            violations.append(f"{label}: point missing from current measurement")
            continue
        for stage, base_s in point.get("timing_s", {}).items():
            if base_s < min_seconds:
                continue
            now_s = now.get("timing_s", {}).get(stage)
            if now_s is None:
                violations.append(f"{label}: stage {stage} missing from current")
                continue
            if now_s > base_s * (1.0 + tolerance):
                violations.append(
                    f"{label}: {stage} regressed {base_s:.4f}s → {now_s:.4f}s "
                    f"(+{(now_s / base_s - 1.0) * 100.0:.1f}%, "
                    f"tolerance {tolerance * 100.0:.0f}%)"
                )
        base_q = point.get("quality", {})
        now_q = now.get("quality", {})
        for field in _EXACT_QUALITY:
            if field in base_q and base_q[field] != now_q.get(field):
                violations.append(
                    f"{label}: quality drift — {field} "
                    f"{base_q[field]} → {now_q.get(field)}"
                )
        for field in _FLOAT_QUALITY:
            if field not in base_q:
                continue
            base_v = float(base_q[field])
            now_v = float(now_q.get(field, float("nan")))
            tol = QUALITY_RTOL * max(1.0, abs(base_v))
            if not abs(base_v - now_v) <= tol:  # NaN-safe: NaN fails
                violations.append(
                    f"{label}: quality drift — {field} {base_v!r} → {now_v!r}"
                )
    return violations
