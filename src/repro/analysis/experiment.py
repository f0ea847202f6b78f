"""The h-Switch vs cp-Switch comparison experiment (§3's procedure).

For each random demand matrix:

1. schedule it for the **h-Switch** with the chosen sub-scheduler
   (Solstice or Eclipse) and execute online in the fluid simulator;
2. schedule the *same* demand for the **cp-Switch** — the same
   sub-scheduler wrapped by Algorithm 4 — and execute online;
3. record for both: completion time of the total demand, coflow completion
   of the one-to-many and many-to-one subsets ("we measure the metrics of
   the same demand for the h-Switch" — the masks make the subsets
   identical on both switches), fraction of demand served by the OCS
   within the scheduling window, OCS configuration count, and scheduler
   wall time (for Tables 1–2).

Trial counts: the paper averages 100 random demands per point; the default
here is smaller so the full benchmark suite stays laptop-friendly, and is
overridable via the ``REPRO_SEEDS`` environment variable or the
``n_trials`` argument.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.analysis.aggregate import Aggregate, aggregate
from repro.core.config import FilterConfig
from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.base import HybridScheduler, make_scheduler
from repro.sim import simulate_cp, simulate_hybrid
from repro.sim.metrics import SimulationResult
from repro.switch.params import SwitchParams, ocs_params
from repro.utils.rng import spawn_rngs
from repro.workloads.base import DemandSpec, Workload

#: Default number of random demand matrices per experiment point.
DEFAULT_TRIALS: int = 5


def default_trials(default: int = DEFAULT_TRIALS) -> int:
    """Trial count: the ``REPRO_SEEDS`` env var (an integer >= 1), or
    ``default`` when it is unset."""
    raw = os.environ.get("REPRO_SEEDS")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SEEDS must be an integer >= 1, got {raw!r} "
            "(unset it or export e.g. REPRO_SEEDS=5)"
        ) from None
    if value < 1:
        raise ValueError(f"REPRO_SEEDS must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class TrialMetrics:
    """Metrics of one schedule execution on one demand matrix."""

    completion_total: float
    completion_o2m: float
    completion_m2o: float
    ocs_fraction: float
    n_configs: int
    sched_seconds: float
    makespan: float
    composite_volume: float = 0.0


@dataclass(frozen=True)
class ComparisonAggregate:
    """Aggregated h-Switch vs cp-Switch metrics for one experiment point."""

    n_ports: int
    h_completion_total: Aggregate
    cp_completion_total: Aggregate
    h_completion_o2m: Aggregate
    cp_completion_o2m: Aggregate
    h_completion_m2o: Aggregate
    cp_completion_m2o: Aggregate
    h_ocs_fraction: Aggregate
    cp_ocs_fraction: Aggregate
    h_configs: Aggregate
    cp_configs: Aggregate
    h_sched_seconds: Aggregate
    cp_sched_seconds: Aggregate
    n_trials: int

    @property
    def completion_improvement(self) -> float:
        """Relative total-completion-time reduction of cp over h (0..1)."""
        if self.h_completion_total.mean == 0:
            return 0.0
        return 1.0 - self.cp_completion_total.mean / self.h_completion_total.mean

    @property
    def utilization_gain(self) -> float:
        """cp OCS fraction divided by h OCS fraction."""
        if self.h_ocs_fraction.mean == 0:
            return float("nan")
        return self.cp_ocs_fraction.mean / self.h_ocs_fraction.mean


@dataclass
class ExperimentConfig:
    """Everything one comparison point needs.

    Parameters
    ----------
    workload:
        Demand generator.
    params:
        Switch parameters (radix, rates, δ).
    scheduler:
        h-Switch sub-scheduler instance or name ("solstice" / "eclipse").
    n_trials:
        Random demand matrices to average over (``None`` → env default).
    seed:
        Root seed; per-trial generators are spawned from it.
    window:
        Window (ms) for the OCS-fraction metric; ``None`` uses the Eclipse
        pairing for this OCS class (1 ms fast / 100 ms slow).
    filter_config:
        cp-Switch (Rt, Bt) resolution.
    """

    workload: Workload
    params: SwitchParams
    scheduler: "HybridScheduler | str" = "solstice"
    n_trials: "int | None" = None
    seed: int = 2016
    window: "float | None" = None
    filter_config: FilterConfig = field(default_factory=FilterConfig)

    def resolved_scheduler(self) -> HybridScheduler:
        if isinstance(self.scheduler, str):
            return make_scheduler(self.scheduler)
        return self.scheduler

    def resolved_window(self) -> float:
        return _resolved_window(self.window, self.params)

    def resolved_trials(self) -> int:
        if self.n_trials is None:
            return default_trials()
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        return self.n_trials


def _resolved_window(window: "float | None", params: SwitchParams) -> float:
    """The OCS-fraction window (ms); ``inf`` measures the whole run.

    Checked here, before any trial runs, so a NaN or negative window fails
    with a message that names it instead of after a full simulation.
    """
    if window is None:
        return params.ocs_class.eclipse_window
    value = float(window)
    if not value >= 0.0:
        raise ValueError(f"OCS-fraction window: time must be non-negative, got {value}")
    return value


def run_comparison(config: ExperimentConfig) -> ComparisonAggregate:
    """Run the full h vs cp comparison for one experiment point.

    The object-level twin of :func:`comparison_trial`: it takes workload,
    scheduler and filter instances instead of names, but runs each trial
    through the same body and aggregates with
    :func:`comparison_from_payloads`.
    """
    scheduler = config.resolved_scheduler()
    cp_scheduler = CpSwitchScheduler(scheduler, filter_config=config.filter_config)
    window = config.resolved_window()
    params = config.params
    payloads = [
        _trial_payload(
            config.workload.generate(params.n_ports, rng),
            scheduler,
            cp_scheduler,
            params,
            window,
            trial,
        )
        for trial, rng in enumerate(spawn_rngs(config.seed, config.resolved_trials()))
    ]
    return comparison_from_payloads(payloads)


# ---------------------------------------------------------------------- #
# single trials
# ---------------------------------------------------------------------- #


def _run_h_trial(
    spec: DemandSpec,
    scheduler: HybridScheduler,
    params: SwitchParams,
    window: float,
) -> TrialMetrics:
    start = time.perf_counter()
    schedule = scheduler.schedule(spec.demand, params)
    elapsed = time.perf_counter() - start
    result = simulate_hybrid(spec.demand, schedule, params)
    return _metrics(spec, result, elapsed, window)


def _run_cp_trial(
    spec: DemandSpec,
    cp_scheduler: CpSwitchScheduler,
    params: SwitchParams,
    window: float,
) -> TrialMetrics:
    start = time.perf_counter()
    cp_schedule = cp_scheduler.schedule(spec.demand, params)
    elapsed = time.perf_counter() - start
    result = simulate_cp(spec.demand, cp_schedule, params)
    return _metrics(
        spec,
        result,
        elapsed,
        window,
        composite_volume=cp_schedule.reduction.composite_volume,
    )


def _trial_payload(
    spec: DemandSpec,
    scheduler: HybridScheduler,
    cp_scheduler: CpSwitchScheduler,
    params: SwitchParams,
    window: float,
    trial: int,
) -> dict:
    """One h-vs-cp trial on one demand: both switches' metrics plus any
    scheduler watchdog diagnostics, as the JSON payload sweeps journal."""
    h = _run_h_trial(spec, scheduler, params, window)
    diagnostics = [d.to_dict() for d in getattr(scheduler, "last_diagnostics", [])]
    cp = _run_cp_trial(spec, cp_scheduler, params, window)
    diagnostics += [d.to_dict() for d in getattr(scheduler, "last_diagnostics", [])]
    return {
        "n_ports": params.n_ports,
        "trial": trial,
        "h": asdict(h),
        "cp": asdict(cp),
        "diagnostics": diagnostics,
    }


# ---------------------------------------------------------------------- #
# resumable-sweep building blocks (repro.runner)
# ---------------------------------------------------------------------- #


def make_workload(name: str, params: SwitchParams, skewed_ports: int = 1) -> Workload:
    """Workload factory by name — the string form journaled sweeps store."""
    from repro.workloads import (
        CombinedWorkload,
        SkewedWorkload,
        TypicalBackgroundWorkload,
        VaryingSkewWorkload,
    )

    if name == "skewed":
        return SkewedWorkload.for_params(params)
    if name == "background":
        return TypicalBackgroundWorkload.for_params(params)
    if name == "typical":
        return CombinedWorkload.typical(params)
    if name == "intensive":
        return CombinedWorkload.intensive(params)
    if name == "varying":
        return VaryingSkewWorkload.for_params(params, n_skewed_ports=skewed_ports)
    raise ValueError(f"unknown workload {name!r}")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Generator for trial ``trial`` of a sweep rooted at ``seed``.

    Identical to ``spawn_rngs(seed, n)[trial]`` for any ``n > trial``
    (SeedSequence children depend only on their index), so a trial executed
    alone — e.g. retried in a subprocess worker, or re-run from a resumed
    journal — sees exactly the demand it would have seen in a full
    sequential run.
    """
    return spawn_rngs(seed, trial + 1)[trial]


def _trial_spec(
    workload: str, params: SwitchParams, seed: int, trial: int, skewed_ports: int
) -> DemandSpec:
    generator = make_workload(workload, params, skewed_ports)
    return generator.generate(params.n_ports, trial_rng(seed, trial))


def comparison_trial(
    *,
    workload: str,
    ocs: str,
    radix: int,
    scheduler: str = "solstice",
    seed: int = 2016,
    trial: int = 0,
    skewed_ports: int = 1,
    window: "float | None" = None,
) -> dict:
    """One journaled h-vs-cp comparison trial (JSON in, JSON out).

    This is the unit the sweep runner executes in subprocess workers, and
    the unit :mod:`repro.analysis.figures` calls in-process: every argument
    is a plain JSON scalar (persisted in the journal header), and the
    returned payload is a JSON dict of both switches' metrics plus any
    scheduler watchdog diagnostics.
    """
    params = ocs_params(ocs, radix)
    window = _resolved_window(window, params)
    inner = make_scheduler(scheduler)
    return _trial_payload(
        _trial_spec(workload, params, seed, trial, skewed_ports),
        inner,
        CpSwitchScheduler(inner),
        params,
        window,
        trial,
    )


def comparison_demand(
    *,
    workload: str,
    ocs: str,
    radix: int,
    scheduler: str = "solstice",
    seed: int = 2016,
    trial: int = 0,
    skewed_ports: int = 1,
    window: "float | None" = None,
) -> np.ndarray:
    """The exact demand matrix :func:`comparison_trial` schedules.

    Used by the quarantine machinery to write a reproducible ``.npz`` next
    to a failed trial's journal record (``scheduler``/``window`` are
    accepted so the two functions share one kwargs dict).
    """
    return _trial_spec(workload, ocs_params(ocs, radix), seed, trial, skewed_ports).demand


def comparison_from_payloads(payloads: "list[dict]") -> ComparisonAggregate:
    """Rebuild a :class:`ComparisonAggregate` from journaled trial payloads.

    Payloads are sorted by trial index first, so a resumed sweep (which
    sees completed trials in journal order) aggregates bit-identically to
    an uninterrupted run.
    """
    if not payloads:
        raise ValueError("cannot aggregate an empty payload list")
    rows = sorted(payloads, key=lambda p: p["trial"])

    def agg(switch: str, attr: str) -> Aggregate:
        return aggregate([row[switch][attr] for row in rows])

    return ComparisonAggregate(
        n_ports=int(rows[0]["n_ports"]),
        h_completion_total=agg("h", "completion_total"),
        cp_completion_total=agg("cp", "completion_total"),
        h_completion_o2m=agg("h", "completion_o2m"),
        cp_completion_o2m=agg("cp", "completion_o2m"),
        h_completion_m2o=agg("h", "completion_m2o"),
        cp_completion_m2o=agg("cp", "completion_m2o"),
        h_ocs_fraction=agg("h", "ocs_fraction"),
        cp_ocs_fraction=agg("cp", "ocs_fraction"),
        h_configs=agg("h", "n_configs"),
        cp_configs=agg("cp", "n_configs"),
        h_sched_seconds=agg("h", "sched_seconds"),
        cp_sched_seconds=agg("cp", "sched_seconds"),
        n_trials=len(rows),
    )


def _metrics(
    spec: DemandSpec,
    result: SimulationResult,
    sched_seconds: float,
    window: float,
    composite_volume: float = 0.0,
) -> TrialMetrics:
    return TrialMetrics(
        completion_total=result.completion_time,
        completion_o2m=result.coflow_completion(spec.o2m_mask),
        completion_m2o=result.coflow_completion(spec.m2o_mask),
        ocs_fraction=result.ocs_fraction_within(window),
        n_configs=result.n_configs,
        sched_seconds=sched_seconds,
        makespan=result.makespan,
        composite_volume=composite_volume,
    )
