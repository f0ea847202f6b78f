"""The live pipeline against the frozen seed reference (:mod:`repro.sim.reference`).

The reference module exists so the optimized hot path can be checked
against ground truth; these tests pin both directions of that contract:
the reference preserves the seed behaviour (including the phase-skip dust
bug), and the live pipeline is bit-identical to it on the seeded Figure
5/6 workload at radix 32/64/128 under both Solstice and Eclipse, and at
radix 256 under Solstice.

The seed pipeline is composed here, from the frozen kernels, because this
is the only place that compares against it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FilterConfig
from repro.core.cpsched import cpsched
from repro.core.scheduler import (
    CompositeScheduleEntry,
    CpSchedule,
    CpSwitchScheduler,
)
from repro.hybrid.base import make_scheduler
from repro.hybrid.schedule import Schedule
from repro.hybrid.solstice import SolsticeScheduler
from repro.matching import matching_to_permutation
from repro.sim import simulate_cp, simulate_hybrid
from repro.sim.engine import CompositeService, FluidEngine
from repro.sim.metrics import SimulationResult
from repro.sim.reference import (
    ReferenceFluidEngine,
    reference_cp_switch_demand_reduction,
    reference_solstice_schedule,
)
from repro.switch.params import SwitchParams, fast_ocs_params
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_demand_matrix, matching_from_permutation
from repro.workloads.skewed import SkewedWorkload

#: Root seed of the Figure 5/6 benchmark demands.
SEED = 2016

# ---------------------------------------------------------------------- #
# the seed ("reference") pipeline
# ---------------------------------------------------------------------- #


def reference_hybrid_schedule(
    demand: np.ndarray, params: SwitchParams, scheduler: str
) -> Schedule:
    """h-Switch schedule via the seed kernels.

    Solstice is rebuilt from the seed stuffing/matching kernels; Eclipse's
    code was not touched by the vectorization work, so the live scheduler
    *is* the reference one.
    """
    if scheduler == "solstice":
        return reference_solstice_schedule(demand, params)
    return make_scheduler(scheduler).schedule(demand, params)


def _matrix(matching: np.ndarray) -> np.ndarray:
    """A configuration's permutation matrix, the form the seed steps read."""
    return matching_to_permutation(matching, matching.shape[0])


def divide_by_type_matrix(
    permutation: np.ndarray,
) -> "tuple[np.ndarray, int | None, int | None]":
    """The seed's Algorithm 3: split a reduced-space permutation *matrix*
    into its n×n regular block, the sender in the composite column and the
    receiver in the composite row (``P[n, n]`` grants nothing)."""
    n = permutation.shape[0] - 1
    senders = np.flatnonzero(permutation[:n, n])
    receivers = np.flatnonzero(permutation[n, :n])
    regular = permutation[:n, :n].copy()
    o2m_port = int(senders[0]) if senders.size else None
    m2o_port = int(receivers[0]) if receivers.size else None
    return regular, o2m_port, m2o_port


def reference_cp_schedule(
    demand: np.ndarray, params: SwitchParams, scheduler: str
) -> CpSchedule:
    """Algorithm 4 composed from the seed kernels.

    Mirrors :meth:`repro.core.scheduler.CpSwitchScheduler.schedule` with
    the seed reduction, (for Solstice) the seed sub-scheduler and the
    seed's DivideByType on permutation matrices; the CPSched calls and
    the ``Df,prev − Df`` bookkeeping are the seed's.
    """
    config = FilterConfig()
    demand = check_demand_matrix(demand)
    reduction = reference_cp_switch_demand_reduction(
        demand,
        fanout_threshold=config.resolve_fanout_threshold(params),
        volume_threshold=config.resolve_volume_threshold(params),
    )
    reduced_schedule = reference_hybrid_schedule(reduction.reduced, params, scheduler)

    eps_budget = params.effective_eps_budget
    filtered = reduction.filtered.copy()
    entries: "list[CompositeScheduleEntry]" = []
    for item in reduced_schedule:
        previous = filtered.copy()
        regular, o2m_port, m2o_port = divide_by_type_matrix(_matrix(item.matching))
        if o2m_port is not None:
            filtered[o2m_port, :] = cpsched(
                filtered[o2m_port, :], item.duration, params.ocs_rate, eps_budget
            )
        if m2o_port is not None:
            filtered[:, m2o_port] = cpsched(
                filtered[:, m2o_port], item.duration, params.ocs_rate, eps_budget
            )
        entries.append(
            CompositeScheduleEntry(
                matching=matching_from_permutation(regular),
                duration=item.duration,
                composite_volume=float((previous - filtered).sum()),
                o2m_ports=() if o2m_port is None else (o2m_port,),
                m2o_ports=() if m2o_port is None else (m2o_port,),
            )
        )
    return CpSchedule(
        entries=tuple(entries),
        reconfig_delay=params.reconfig_delay,
        reduction=reduction,
        filtered_residual=filtered,
        reduced_schedule=reduced_schedule,
    )


def reference_simulate_hybrid(
    demand: np.ndarray, schedule: Schedule, params: SwitchParams
) -> SimulationResult:
    """Run-to-completion h-Switch execution on the seed engine."""
    engine = ReferenceFluidEngine(np.asarray(demand, dtype=np.float64), params)
    for entry in schedule:
        engine.run_phase(params.reconfig_delay)
        engine.run_phase(entry.duration, circuits=_matrix(entry.matching))
    engine.run_phase(None)
    return engine.result(n_configs=schedule.n_configs, makespan=schedule.makespan)


def reference_simulate_cp(
    demand: np.ndarray, cp_schedule: CpSchedule, params: SwitchParams
) -> SimulationResult:
    """Run-to-completion cp-Switch execution on the seed engine."""
    engine = ReferenceFluidEngine(np.asarray(demand, dtype=np.float64), params)
    engine.assign_composite(cp_schedule.reduction.filtered)
    for entry in cp_schedule.entries:
        engine.run_phase(params.reconfig_delay)
        composites = [CompositeService(kind="o2m", port=p) for p in entry.o2m_ports]
        composites += [CompositeService(kind="m2o", port=p) for p in entry.m2o_ports]
        engine.run_phase(
            entry.duration, circuits=_matrix(entry.matching), composites=composites
        )
    engine.merge_composite_into_regular()
    engine.run_phase(None)
    return engine.result(
        n_configs=cp_schedule.n_configs, makespan=cp_schedule.makespan
    )


def assert_results_equivalent(
    before: SimulationResult, after: SimulationResult, context: str = ""
) -> None:
    """Raise :class:`AssertionError` unless two simulations agree.

    Finish times and completion time must be bit-identical; served-volume
    breakdowns may differ by summation order (pairwise vs flat), so they
    get a relative ulp-scale tolerance.  Conservation was already checked
    inside each ``result()`` call.
    """
    where = f" [{context}]" if context else ""
    if not np.array_equal(before.finish_times, after.finish_times, equal_nan=True):
        raise AssertionError(f"finish_times differ{where}")
    same_completion = before.completion_time == after.completion_time or (
        np.isnan(before.completion_time) and np.isnan(after.completion_time)
    )
    if not same_completion:
        raise AssertionError(
            f"completion_time {before.completion_time!r} != "
            f"{after.completion_time!r}{where}"
        )
    if before.n_configs != after.n_configs:
        raise AssertionError(f"n_configs differ{where}")
    if before.makespan != after.makespan:
        raise AssertionError(f"makespan differs{where}")
    for attr in ("served_ocs_direct", "served_composite", "served_eps"):
        b, a = getattr(before, attr), getattr(after, attr)
        if abs(b - a) > 1e-9 * max(1.0, abs(b)):
            raise AssertionError(f"{attr} {b!r} != {a!r}{where}")


def _seeded_demands(n_ports: int, n_trials: int = 2) -> "list[np.ndarray]":
    params = fast_ocs_params(n_ports)
    workload = SkewedWorkload.for_params(params)
    return [workload.generate(n_ports, rng).demand for rng in spawn_rngs(SEED, n_trials)]


# ---------------------------------------------------------------------- #
# tests
# ---------------------------------------------------------------------- #


class TestReferencePreservesSeedBehaviour:
    """The reference engine must keep the seed's dust bug, not the fix."""

    def test_reference_engine_idles_out_phase_on_dust(self):
        params = SwitchParams(n_ports=2, ocs_rate=1e4)
        demand = np.array([[0.0, 5e-9], [20.0, 0.0]])
        circuits = np.array([[0, 1], [0, 0]], dtype=np.int8)
        engine = ReferenceFluidEngine(demand, params)
        engine.run_phase(2.5, circuits=circuits)
        # Seed behaviour: the 5e-9 Mb circuit entry drains in ~5e-13 ms,
        # below TIME_TOL, so the whole phase idles out and the 20 Mb EPS
        # entry makes no progress at all.
        assert np.isnan(engine.finish_times[1, 0])
        assert engine.residual_total() == pytest.approx(20.0, abs=1e-6)
        assert engine.clock == pytest.approx(2.5)

    def test_optimized_engine_snaps_dust_and_keeps_serving(self):
        params = SwitchParams(n_ports=2, ocs_rate=1e4)
        demand = np.array([[0.0, 5e-9], [20.0, 0.0]])
        circuits = np.array([1, -1])  # the seed engine's [[0, 1], [0, 0]]
        engine = FluidEngine(demand, params)
        engine.run_phase(2.5, circuits=circuits)
        # Fixed behaviour: the dust entry snaps to zero at the clock and
        # the other entry still drains at the EPS rate (20 Mb / 10 Mb/ms).
        assert engine.finish_times[0, 1] == 0.0
        assert engine.finish_times[1, 0] == pytest.approx(2.0)
        assert engine.residual_total() == 0.0


_POINTS = pytest.mark.parametrize(
    "n_ports,scheduler",
    [(n, scheduler) for scheduler in ("solstice", "eclipse") for n in (32, 64, 128)]
    # The radix the sweep-solstice-256 benchmark workload runs at.
    + [(256, "solstice")],
)

#: Seeded trials per radix (one at 256, where a trial takes seconds).
_TRIALS = {256: 1}


class TestBitIdenticalEquivalence:
    """Live pipeline == reference pipeline on the seeded Figure 5/6 points."""

    @_POINTS
    def test_hybrid_pipeline_bit_identical(self, n_ports, scheduler):
        params = fast_ocs_params(n_ports)
        live = make_scheduler(scheduler)
        for trial, demand in enumerate(
            _seeded_demands(n_ports, _TRIALS.get(n_ports, 2))
        ):
            ref = reference_simulate_hybrid(
                demand, reference_hybrid_schedule(demand, params, scheduler), params
            )
            opt = simulate_hybrid(demand, live.schedule(demand, params), params)
            assert_results_equivalent(
                ref, opt, f"h-switch {scheduler} radix={n_ports} trial={trial}"
            )

    @_POINTS
    def test_cp_pipeline_bit_identical(self, n_ports, scheduler):
        params = fast_ocs_params(n_ports)
        live = CpSwitchScheduler(make_scheduler(scheduler))
        for trial, demand in enumerate(
            _seeded_demands(n_ports, _TRIALS.get(n_ports, 2))
        ):
            ref = reference_simulate_cp(
                demand, reference_cp_schedule(demand, params, scheduler), params
            )
            opt = simulate_cp(demand, live.schedule(demand, params), params)
            assert_results_equivalent(
                ref, opt, f"cp-switch {scheduler} radix={n_ports} trial={trial}"
            )

    @pytest.fixture(scope="class")
    def demand(self):
        return _seeded_demands(16, n_trials=1)[0]

    @pytest.fixture(scope="class")
    def params(self):
        return fast_ocs_params(16)

    def test_cross_engine_on_same_schedule(self, demand, params):
        # Isolate the engines: identical schedule, both engines, identical
        # finish times.
        schedule = SolsticeScheduler().schedule(demand, params)
        ref = reference_simulate_hybrid(demand, schedule, params)
        opt = simulate_hybrid(demand, schedule, params)
        assert np.array_equal(ref.finish_times, opt.finish_times, equal_nan=True)
        assert ref.completion_time == opt.completion_time

    def test_equivalence_helper_rejects_differences(self, demand, params):
        schedule = SolsticeScheduler().schedule(demand, params)
        result = simulate_hybrid(demand, schedule, params)
        other = simulate_hybrid(demand * 1.5, SolsticeScheduler().schedule(demand * 1.5, params), params)
        with pytest.raises(AssertionError):
            assert_results_equivalent(result, other)
