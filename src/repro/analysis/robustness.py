"""Scheduling under imperfect demand knowledge.

The paper (like Solstice and Eclipse) assumes the scheduler sees the exact
demand matrix — VOQ occupancies at the scheduling instant (§2.1).  A real
controller works from an *estimate*: measurements are noisy, collection is
stale by at least a control-loop delay, and small flows may be missed
entirely.  This module quantifies how the h-Switch and cp-Switch schedules
degrade when computed from a perturbed estimate but executed against the
true demand.

Perturbation model (:func:`perturb_demand`):

* ``noise`` — per-entry multiplicative error, uniform in [1−noise, 1+noise];
* ``staleness`` — fraction of every entry's volume that arrived after the
  snapshot (the scheduler underestimates uniformly);
* ``miss_rate`` — fraction of non-zero entries invisible to the estimator.

Execution (:func:`simulate_with_estimate`): the schedule computed from the
estimate runs against the true demand.  For the cp-Switch, the composite
paths serve whatever is *actually* queued on the filtered entries (at most
the true volume), and true demand the scheduler never saw stays on the
regular paths — matching what the hardware would do.

Hardware robustness (:func:`fault_trial`): the complementary question —
perfect knowledge, imperfect *fabric*.  A :class:`~repro.faults.plan.FaultPlan`
is injected into the execution of both switches' schedules, and the h vs cp
completion-time gap under growing fault rates is the degradation curve of
``python -m repro robustness`` (and, with ``--fast-reroute``, the
fast-reroute-vs-degrade comparison of :func:`reroute_trial`).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.analysis.experiment import comparison_demand
from repro.core.scheduler import CpSchedule, CpSwitchScheduler
from repro.faults.plan import FaultPlan
from repro.faults.reroute import BackupPlanner
from repro.hybrid.base import HybridScheduler
from repro.hybrid.schedule import Schedule
from repro.sim.cp_sim import simulate_cp
from repro.sim.hybrid_sim import simulate_hybrid
from repro.sim.metrics import SimulationResult
from repro.switch.params import SwitchParams
from repro.utils.rng import ensure_rng
from repro.utils.validation import VOLUME_TOL, check_demand_matrix, check_nonnegative


def perturb_demand(
    demand: np.ndarray,
    rng=None,
    *,
    noise: float = 0.0,
    staleness: float = 0.0,
    miss_rate: float = 0.0,
) -> np.ndarray:
    """The estimator's view of ``demand``.

    Parameters
    ----------
    demand:
        True demand matrix (Mb).
    noise:
        Relative per-entry measurement error amplitude (0 = exact).
    staleness:
        Fraction of each entry's volume the snapshot has not seen yet
        (0 = fresh, 0.3 = 30 % of the traffic arrived after the snapshot).
        Accepts the closed interval [0, 1]: ``staleness=1.0`` models a
        snapshot taken before any traffic arrived — the estimate is all
        zeros, exactly like ``miss_rate=1.0``.
    miss_rate:
        Probability that a non-zero entry is absent from the estimate,
        in [0, 1].  ``miss_rate=1.0`` misses everything (zero estimate).

    Both fractional parameters share the same closed-interval validation:
    the boundary value 1.0 is legal for each and yields the fully blind
    estimator, which downstream schedulers handle by emitting an empty
    schedule (everything rides the EPS).
    """
    demand = check_demand_matrix(demand)
    check_nonnegative("noise", noise)
    if not (0.0 <= staleness <= 1.0):
        raise ValueError(f"staleness must be in [0, 1], got {staleness}")
    if not (0.0 <= miss_rate <= 1.0):
        raise ValueError(f"miss_rate must be in [0, 1], got {miss_rate}")
    rng = ensure_rng(rng)
    estimate = demand * (1.0 - staleness)
    if noise > 0:
        factors = rng.uniform(1.0 - noise, 1.0 + noise, size=demand.shape)
        estimate = estimate * factors
    if miss_rate > 0:
        visible = rng.random(demand.shape) >= miss_rate
        estimate = estimate * visible
    np.clip(estimate, 0.0, None, out=estimate)
    return estimate


def simulate_with_estimate(
    true_demand: np.ndarray,
    schedule: "Schedule | CpSchedule",
    params: SwitchParams,
) -> SimulationResult:
    """Execute an estimate-derived schedule against the true demand.

    h-Switch schedules execute directly (circuits serve whatever is truly
    queued).  cp-Switch schedules park ``min(filtered_estimate, true)`` on
    the composite residual; everything else — including demand the
    estimator missed — stays on the regular paths.
    """
    true_demand = check_demand_matrix(true_demand)
    if isinstance(schedule, CpSchedule):
        parked = np.minimum(schedule.reduction.filtered, true_demand)
        reduction = replace(schedule.reduction, filtered=parked)
        return simulate_cp(true_demand, replace(schedule, reduction=reduction), params)
    return simulate_hybrid(true_demand, schedule, params)


def robustness_trial(
    true_demand: np.ndarray,
    scheduler: HybridScheduler,
    params: SwitchParams,
    rng=None,
    *,
    noise: float = 0.0,
    staleness: float = 0.0,
    miss_rate: float = 0.0,
) -> "tuple[SimulationResult, SimulationResult]":
    """One (h result, cp result) pair under the given estimation errors."""
    rng = ensure_rng(rng)
    estimate = perturb_demand(
        true_demand, rng, noise=noise, staleness=staleness, miss_rate=miss_rate
    )
    if estimate.max(initial=0.0) <= VOLUME_TOL:
        # A fully blind estimator schedules nothing; everything rides EPS.
        # Both switches degrade to the same empty schedule, but each gets
        # its own independent execution: callers mutate/inspect the two
        # results separately, so returning one aliased object would let a
        # change through one handle corrupt the other.
        h_schedule = Schedule(entries=(), reconfig_delay=params.reconfig_delay)
        h_result = simulate_hybrid(true_demand, h_schedule, params)
        cp_result = simulate_hybrid(true_demand, h_schedule, params)
        return h_result, cp_result
    h_schedule = scheduler.schedule(estimate, params)
    h_result = simulate_with_estimate(true_demand, h_schedule, params)
    cp_schedule = CpSwitchScheduler(scheduler).schedule(estimate, params)
    cp_result = simulate_with_estimate(true_demand, cp_schedule, params)
    return h_result, cp_result


# ---------------------------------------------------------------------- #
# resumable-sweep building blocks (repro.runner)
# ---------------------------------------------------------------------- #


def robustness_demand(*, ocs: str, radix: int, seed: int = 2016, trial: int = 0, **_ignored) -> np.ndarray:
    """The demand matrix a robustness sweep trial uses: the skewed
    workload's trial ``trial`` — Figure 5's demand.

    Also the quarantine hook: extra kwargs (``error``, ``rate``, …) are
    accepted and ignored so the same kwargs dict drives both the trial and
    its reproducer.
    """
    return comparison_demand(workload="skewed", ocs=ocs, radix=radix, seed=seed, trial=trial)


def _plan_seed(seed: int, rate_index: int, trial: int) -> int:
    """Fault-plan seed: one realization per (rate, trial) of a sweep,
    reproducible from its root seed."""
    return seed + 7919 * rate_index + trial


def error_trial(
    *, ocs: str, radix: int, seed: int = 2016, trial: int = 0, error: float = 0.0
) -> dict:
    """One journaled estimation-error trial (JSON in, JSON out).

    Applies ``error`` as noise, staleness and miss rate at once — the CLI's
    estimation-error sweep — and reports both switches' completion times.
    """
    from repro.hybrid.solstice import SolsticeScheduler
    from repro.switch.params import ocs_params

    params = ocs_params(ocs, radix)
    demand = robustness_demand(ocs=ocs, radix=radix, seed=seed, trial=trial)
    h_result, cp_result = robustness_trial(
        demand,
        SolsticeScheduler(),
        params,
        np.random.default_rng(seed + trial),
        noise=error,
        staleness=error,
        miss_rate=error,
    )
    return {
        "trial": trial,
        "error": float(error),
        "h": h_result.completion_time,
        "cp": cp_result.completion_time,
    }


def fault_rate_trial(
    *,
    ocs: str,
    radix: int,
    seed: int = 2016,
    trial: int = 0,
    rate: float = 0.0,
    rate_index: int = 0,
) -> dict:
    """One journaled hardware-fault trial (JSON in, JSON out).

    Executes both switches' schedules under a uniform fault plan at
    ``rate`` (:meth:`~repro.faults.plan.FaultPlan.uniform`: reconfiguration
    failures/stragglers, circuit setup failures, composite-port outages and
    EPS degradation all at that rate).  Every rate of a sweep sees the same
    demands, so movement along the rate axis is fault-driven.
    """
    from repro.hybrid.solstice import SolsticeScheduler
    from repro.switch.params import ocs_params

    params = ocs_params(ocs, radix)
    demand = robustness_demand(ocs=ocs, radix=radix, seed=seed, trial=trial)
    plan = FaultPlan.uniform(rate, seed=_plan_seed(seed, rate_index, trial))
    h_result, cp_result = fault_trial(demand, SolsticeScheduler(), params, plan)
    return {
        "trial": trial,
        "rate": float(rate),
        "h": h_result.completion_time,
        "cp": cp_result.completion_time,
        "released": cp_result.released_composite,
    }


def outage_plan(rate: float, seed: int = 0) -> FaultPlan:
    """A plan injecting *only* composite-port outages at ``rate``.

    The fast-reroute experiments isolate the failure class the backup
    schedules repair; mixing in reconfiguration/circuit faults would move
    both arms of the comparison identically and only add variance.
    """
    return FaultPlan(seed=seed, o2m_outage_rate=rate, m2o_outage_rate=rate)


def reroute_trial(
    true_demand: np.ndarray,
    scheduler: HybridScheduler,
    params: SwitchParams,
    plan: FaultPlan,
    horizon: "float | None" = None,
) -> "tuple[SimulationResult, SimulationResult]":
    """One (degrade-to-EPS result, fast-reroute result) pair.

    The same cp-Switch schedule executes twice under independent
    realizations of ``plan`` (same seed → same outage draws, since both
    executions grant composite ports in the same order): once with the
    seed behaviour — a dead path's parked demand is released to the
    regular paths and drains on the EPS — and once with a
    :class:`~repro.faults.reroute.BackupSet` armed.  ``horizon`` defaults
    to the schedule's makespan, the window in which stranded volume is
    visible (run-to-completion drains everything and hides the recovery
    gap).  Conservation is checked for both results.
    """
    cp_scheduler = CpSwitchScheduler(scheduler)
    cp_schedule = cp_scheduler.schedule(true_demand, params)
    if horizon is None:
        horizon = cp_schedule.makespan
    backups = BackupPlanner(cp_scheduler).plan(true_demand, cp_schedule, params)
    degrade = simulate_cp(true_demand, cp_schedule, params, horizon=horizon, faults=plan)
    reroute = simulate_cp(
        true_demand, cp_schedule, params, horizon=horizon, faults=plan, backups=backups
    )
    degrade.check_conservation()
    reroute.check_conservation()
    return degrade, reroute


def reroute_rate_trial(
    *,
    ocs: str,
    radix: int,
    seed: int = 2016,
    trial: int = 0,
    rate: float = 0.0,
    rate_index: int = 0,
) -> dict:
    """One journaled fast-reroute-vs-degrade trial (JSON in, JSON out).

    Executes the cp-Switch schedule under an outage-only plan at ``rate``
    with and without fast-reroute; the plan seed is the fault sweep's, so
    trial ``t`` at a rate sees the same outage draws in both sweeps.
    """
    from repro.hybrid.solstice import SolsticeScheduler
    from repro.switch.params import ocs_params

    params = ocs_params(ocs, radix)
    demand = robustness_demand(ocs=ocs, radix=radix, seed=seed, trial=trial)
    plan = outage_plan(rate, seed=_plan_seed(seed, rate_index, trial))
    degrade, reroute = reroute_trial(demand, SolsticeScheduler(), params, plan)
    outcome = reroute.reroute
    return {
        "trial": trial,
        "rate": float(rate),
        "degrade_stranded": degrade.stranded_volume,
        "reroute_stranded": reroute.stranded_volume,
        "swaps": outcome.n_swaps if outcome is not None else 0,
        "recovery_ms": outcome.recovery_ms if outcome is not None else 0.0,
        "reparked": outcome.reparked_mb if outcome is not None else 0.0,
    }


def deadline_trial(
    *,
    ocs: str,
    radix: int,
    seed: int = 2016,
    trial: int = 0,
    deadline_ms: float = 50.0,
    n_epochs: int = 3,
) -> dict:
    """One journaled deadline-aware controller trial (JSON in, JSON out).

    Runs the same ``n_epochs`` arrival trajectory through two epoch
    controllers — one with the anytime scheduler armed at ``deadline_ms``
    of wall-clock scheduling budget, one unbounded — and reports the miss
    rate, the fallback-level histogram, and the throughput/CCT deltas.

    Unlike the fault and error sweeps, the *numbers* here depend on real
    machine speed (that is the experiment: a wall-clock budget); the
    arrival trajectory itself is seed-deterministic, and every epoch is
    guaranteed a valid conservation-clean schedule regardless of how the
    budget lands.
    """
    from repro.analysis.controller import EpochController
    from repro.analysis.experiment import trial_rng
    from repro.hybrid.solstice import SolsticeScheduler
    from repro.switch.params import ocs_params
    from repro.workloads import SkewedWorkload

    if not deadline_ms > 0:
        raise ValueError(f"deadline_ms must be positive, got {deadline_ms}")
    if n_epochs < 1:
        raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
    params = ocs_params(ocs, radix)
    workload = SkewedWorkload.for_params(params)
    rng = trial_rng(seed, trial)
    arrivals = [workload.generate(radix, rng).demand for _ in range(n_epochs)]

    # Epoch length = the unbounded cp-Switch completion of the first epoch's
    # demand: sustained load that a deadline-free controller just keeps up
    # with, so any throughput loss in the bounded arm is the deadline's.
    probe = CpSwitchScheduler(SolsticeScheduler()).schedule(arrivals[0], params)
    epoch_duration = max(simulate_cp(arrivals[0], probe, params).completion_time, 1e-6)

    def run_controller(deadline_s: "float | None"):
        controller = EpochController(
            params=params,
            scheduler=SolsticeScheduler(),
            use_composite_paths=True,
            epoch_duration=epoch_duration,
            deadline_s=deadline_s,
        )
        reports = []
        for epoch, matrix in enumerate(arrivals):
            controller.offer(matrix)
            report, _result = controller.run_epoch(epoch)
            reports.append(report)
        controller.check_conservation()
        return reports

    bounded = run_controller(deadline_ms / 1e3)
    unbounded = run_controller(None)
    fallbacks: "dict[str, int]" = {}
    for report in bounded:
        key = str(report.fallback_level)
        fallbacks[key] = fallbacks.get(key, 0) + 1

    def total_cct(reports) -> float:
        # A horizon-truncated epoch has nan completion (entries still
        # pending) — it spent the whole epoch serving, so charge the full
        # epoch length.
        return float(
            sum(
                r.completion_time if math.isfinite(r.completion_time) else epoch_duration
                for r in reports
            )
        )

    return {
        "trial": trial,
        "deadline_ms": float(deadline_ms),
        "miss_rate": sum(r.deadline_hit for r in bounded) / len(bounded),
        "fallbacks": fallbacks,
        "served": float(sum(r.served_volume for r in bounded)),
        "served_unbounded": float(sum(r.served_volume for r in unbounded)),
        "cct": total_cct(bounded),
        "cct_unbounded": total_cct(unbounded),
        "schedule_ms": float(np.mean([r.schedule_ms for r in bounded])),
    }


def fault_trial(
    true_demand: np.ndarray,
    scheduler: HybridScheduler,
    params: SwitchParams,
    plan: FaultPlan,
) -> "tuple[SimulationResult, SimulationResult]":
    """One (h result, cp result) pair under the same hardware fault plan.

    Both switches schedule from perfect knowledge, then execute under an
    independent realization of ``plan`` (each simulator builds its own
    injector from the plan's seed — the h-Switch draws only
    reconfiguration/circuit/EPS faults, the cp-Switch additionally risks
    composite-port outages).  Conservation holds for both results under
    any fault mix.
    """
    h_schedule = scheduler.schedule(true_demand, params)
    h_result = simulate_hybrid(true_demand, h_schedule, params, faults=plan)
    cp_schedule = CpSwitchScheduler(scheduler).schedule(true_demand, params)
    cp_result = simulate_cp(true_demand, cp_schedule, params, faults=plan)
    h_result.check_conservation()
    cp_result.check_conservation()
    return h_result, cp_result
