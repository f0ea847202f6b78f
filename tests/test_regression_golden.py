"""Golden-value regression tests.

The whole pipeline is deterministic given a seed, so these lock exact
end-to-end numbers for fixed inputs.  Their job is to catch *unintended*
behaviour changes during refactors: if one fails after a deliberate
algorithm change, re-derive the constants (the test docstrings say how)
and update them together with a note in the commit.

Values derived on the reference configuration: 32-port fast-OCS switch
(Ce=10, Co=100, δ=0.02 ms), paper-default filter thresholds.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import FilterConfig
from repro.core.scheduler import CpSwitchScheduler
from repro.faults import FaultPlan
from repro.faults.reroute import BackupPlanner
from repro.hybrid.eclipse import EclipseScheduler
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim import simulate_cp, simulate_hybrid
from repro.switch.params import fast_ocs_params
from repro.workloads.combined import CombinedWorkload
from repro.workloads.skewed import SkewedWorkload


@pytest.fixture(scope="module")
def params():
    return fast_ocs_params(32)


@pytest.fixture(scope="module")
def typical_spec():
    """CombinedWorkload.typical draw with seed 12345 (radix 32, fast)."""
    params = fast_ocs_params(32)
    return CombinedWorkload.typical(params).generate(32, np.random.default_rng(12345))


class TestWorkloadDeterminism:
    def test_typical_demand_volume(self, typical_spec):
        assert typical_spec.demand.sum() == pytest.approx(1310.467477300667)

    def test_skewed_demand_volume(self):
        spec = SkewedWorkload().generate(32, np.random.default_rng(777))
        assert spec.demand.sum() == pytest.approx(61.9962819604508)


class TestSolsticePipeline:
    def test_h_switch_metrics(self, params, typical_spec):
        schedule = SolsticeScheduler().schedule(typical_spec.demand, params)
        assert schedule.n_configs == 33
        result = simulate_hybrid(typical_spec.demand, schedule, params)
        assert result.completion_time == pytest.approx(3.5251339344969823)
        assert result.served_ocs_direct == pytest.approx(1030.1858805273919)

    def test_cp_switch_metrics(self, params, typical_spec):
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(
            typical_spec.demand, params
        )
        assert cp_schedule.n_configs == 28
        assert cp_schedule.reduction.composite_volume == pytest.approx(
            62.467477300666985
        )
        result = simulate_cp(typical_spec.demand, cp_schedule, params)
        # Re-derived for the stable pass-2 slack sort in QuickStuff (tied
        # slacks in this integer-valued workload now pair in stable order).
        assert result.completion_time == pytest.approx(3.2687220276646385)
        # The schedule delivers the entire filtered demand via composites.
        assert result.served_composite == pytest.approx(62.46747730066699)

    def test_skewed_h_switch(self, params):
        spec = SkewedWorkload().generate(32, np.random.default_rng(777))
        schedule = SolsticeScheduler().schedule(spec.demand, params)
        assert schedule.n_configs == 24
        result = simulate_hybrid(spec.demand, schedule, params)
        assert result.completion_time == pytest.approx(1.0675196725876241)


class TestEclipsePipeline:
    def test_eclipse_metrics(self, params, typical_spec):
        schedule = EclipseScheduler().schedule(typical_spec.demand, params)
        assert schedule.n_configs == 3
        result = simulate_hybrid(typical_spec.demand, schedule, params)
        assert result.ocs_fraction_within(1.0) == pytest.approx(0.563520504809738)


class TestCrossRunStability:
    def test_two_identical_runs_bit_equal(self, params, typical_spec):
        def run():
            cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(
                typical_spec.demand, params
            )
            return simulate_cp(typical_spec.demand, cp_schedule, params)

        a, b = run(), run()
        assert a.completion_time == b.completion_time
        np.testing.assert_array_equal(a.finish_times, b.finish_times)


# ---------------------------------------------------------------------- #
# faulted execution paths
# ---------------------------------------------------------------------- #
#
# No reference engine runs fault plans, fast reroute or horizons, so these
# goldens are the only exact check of those paths through the fluid engine.
# Each case pins the finish-time matrix (a digest of its bytes) and the
# completion time exactly, and the served volumes and the leftover residual
# to 1e-12 relative.  Re-derive a row by printing the same fields of the
# case's result.


def _typical_demand(params):
    return (
        CombinedWorkload.typical(params)
        .generate(params.n_ports, np.random.default_rng(12345))
        .demand
    )


def _run_h(params, *, faults=None, horizon=None):
    demand = _typical_demand(params)
    schedule = SolsticeScheduler().schedule(demand, params)
    return simulate_hybrid(demand, schedule, params, horizon=horizon, faults=faults)


def _run_cp(params, *, faults=None, horizon=None, reroute=False, inner=None):
    demand = _typical_demand(params)
    scheduler = CpSwitchScheduler(inner or SolsticeScheduler())
    schedule = scheduler.schedule(demand, params)
    backups = (
        BackupPlanner(scheduler).plan(demand, schedule, params) if reroute else None
    )
    return simulate_cp(
        demand, schedule, params, horizon=horizon, faults=faults, backups=backups
    )


def _covering_reroute(horizon_fraction=None):
    """A dead m2o port whose parked demand the surviving grants re-park.

    Port 0 fans out to 1..8 and ports 9..13 fan in to columns 1..8, so
    every filtered entry lies on a granted row and a granted column; a
    40 Mb elephant keeps the regular schedule running past the swap.
    """
    n = 16
    params = fast_ocs_params(n)
    demand = np.zeros((n, n))
    demand[0, 1:9] = 1.0
    demand[9:14, 1:9] = 1.0
    demand[14, 15] = 40.0
    scheduler = CpSwitchScheduler(
        SolsticeScheduler(),
        filter_config=FilterConfig(fanout_threshold=4, volume_threshold=2.0),
    )
    schedule = scheduler.schedule(demand, params)
    backups = BackupPlanner(scheduler).plan(demand, schedule, params)
    kind, port = next(key for key in sorted(backups.armed) if key[0] == "m2o")
    injector = FaultPlan().injector(n)
    injector.mark_dead(kind, [port])
    horizon = None if horizon_fraction is None else schedule.makespan * horizon_fraction
    return simulate_cp(
        demand, schedule, params, horizon=horizon, faults=injector, backups=backups
    )


_DEGRADED = FaultPlan(seed=3, eps_degradation_rate=0.3, eps_degradation_factor=0.4)
_FAILING = FaultPlan(seed=5, reconfig_failure_rate=0.2, circuit_failure_rate=0.1)
_STRAGGLING = FaultPlan(seed=7, reconfig_straggle_rate=0.5, straggle_factor=4.0)
_OUTAGES = FaultPlan(seed=1, o2m_outage_rate=0.3, m2o_outage_rate=0.3)
_EVERYTHING = FaultPlan(
    seed=1,
    reconfig_failure_rate=0.1,
    reconfig_straggle_rate=0.2,
    circuit_failure_rate=0.05,
    o2m_outage_rate=0.2,
    m2o_outage_rate=0.2,
    eps_degradation_rate=0.2,
)

FAULTED_CASES = {
    "h_eps_degraded": lambda: _run_h(fast_ocs_params(32), faults=_DEGRADED),
    "cp_eps_degraded": lambda: _run_cp(fast_ocs_params(32), faults=_DEGRADED),
    "h_circuit_and_reconfig_failures": lambda: _run_h(
        fast_ocs_params(32), faults=_FAILING
    ),
    "cp_circuit_and_reconfig_failures": lambda: _run_cp(
        fast_ocs_params(32), faults=_FAILING
    ),
    "cp_straggling_delta": lambda: _run_cp(fast_ocs_params(32), faults=_STRAGGLING),
    "cp_outages_released": lambda: _run_cp(fast_ocs_params(32), faults=_OUTAGES),
    "cp_covering_reroute": lambda: _covering_reroute(),
    "cp_covering_reroute_horizon": lambda: _covering_reroute(horizon_fraction=1.0),
    "h_horizon": lambda: _run_h(fast_ocs_params(32), horizon=1.5),
    "cp_horizon": lambda: _run_cp(fast_ocs_params(32), horizon=1.5),
    "cp_eclipse_everything_horizon": lambda: _run_cp(
        fast_ocs_params(32), faults=_EVERYTHING, horizon=2.0, reroute=True,
        inner=EclipseScheduler(),
    ),
}

#: case -> (finish-time digest, completion time, (served OCS-direct,
#: composite, EPS, residual), released composite volume, reroute swaps).
FAULTED_GOLDENS = {
    "h_eps_degraded": (
        "c761885e31108563", 5.181464705593259,
        (1031.1333314588935, 0.0, 279.33414584177325, 0.0),
        0.0, 0,
    ),
    "cp_eps_degraded": (
        "8da3c3c7f00fbb44", 5.307952726769333,
        (1017.7363876676659, 62.467477300667014, 230.26361233233442, 0.0),
        0.0, 0,
    ),
    "h_circuit_and_reconfig_failures": (
        "6fd27f110abb5be9", 10.916762014072052,
        (651.2243611320256, 0.0, 659.243116168641, 0.0),
        0.0, 0,
    ),
    "cp_circuit_and_reconfig_failures": (
        "a4e37f0ebb7c126c", 7.982681260366897,
        (788.6749889107078, 62.46747730066699, 459.32501108929205, 0.0),
        0.0, 0,
    ),
    "cp_straggling_delta": (
        "5aeeb3e0f543abae", 3.75161916027879,
        (989.0420677140335, 62.46747730066699, 258.9579322859663, 0.0),
        0.0, 0,
    ),
    "cp_outages_released": (
        "c8245050ff280fc6", 3.321251355855858,
        (1015.4369471424989, 33.22489973814553, 261.80563042002257, 0.0),
        29.242577562521465, 0,
    ),
    "cp_covering_reroute": (
        "d71ea5a547e7b8f1", 0.9599999999999999,
        (38.699999999999996, 28.800000000000004, 20.499999999999996, 0.0),
        4.1, 1,
    ),
    "cp_covering_reroute_horizon": (
        "36308fc8ed7daf88", float("nan"),
        (38.69999999999999, 28.8, 1.0, 19.50000000000001),
        4.1, 1,
    ),
    "h_horizon": (
        "90385de535571967", float("nan"),
        (856.9541543897899, 0.0, 146.39181707080994, 307.12150584006696),
        0.0, 0,
    ),
    "cp_horizon": (
        "898d5d5fd0308047", float("nan"),
        (844.7883002178556, 62.46747730066699, 113.3909592116643, 289.82074057047964),
        0.0, 0,
    ),
    "cp_eclipse_everything_horizon": (
        "09a9b1ca54f71d76", float("nan"),
        (730.2109373711646, 33.224899738145545, 175.23076923076923, 371.80087096058764),
        29.242577562521465, 1,
    ),
}


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= 1e-12 * abs(expected)


class TestFaultedPathGoldens:
    def test_every_case_has_a_golden(self):
        assert FAULTED_CASES.keys() == FAULTED_GOLDENS.keys()

    @pytest.mark.parametrize("case", sorted(FAULTED_CASES))
    def test_case_matches_golden(self, case):
        result = FAULTED_CASES[case]()
        digest, completion, volumes, released, swaps = FAULTED_GOLDENS[case]
        assert _digest(result.finish_times) == digest
        assert result.completion_time == completion or (
            np.isnan(result.completion_time) and np.isnan(completion)
        )
        measured = (
            result.served_ocs_direct,
            result.served_composite,
            result.served_eps,
            result.residual_total,
        )
        for name, actual, expected in zip(
            ("ocs_direct", "composite", "eps", "residual"), measured, volumes
        ):
            assert _close(actual, expected), f"{name}: {actual!r} != {expected!r}"
        assert _close(result.released_composite, released)
        assert (result.reroute.n_swaps if result.reroute is not None else 0) == swaps


# ---------------------------------------------------------------------- #
# rate segments and served volumes, bit for bit
# ---------------------------------------------------------------------- #
#
# The faulted goldens compare served volumes within 1e-12, and the engine
# fuzz compares them with the seed engine, which sums rate totals in
# another order, within 1e-12 too; so nothing else pins the bits of each
# segment's rate totals or of the three served volumes.  These runs are
# EPS-drain heavy: skewed §3.2 demand (one dense row and one dense
# column), fast OCS, run to completion.  Each case pins a digest of every
# segment's (start, end, ocs_direct_rate, composite_rate, eps_rate) and of
# the three served volumes.  Re-derive a row with `_segment_digest` on the
# case's result.


def _skewed_run(scheduler, n, switch):
    params = fast_ocs_params(n)
    demand = SkewedWorkload().generate(n, np.random.default_rng(777)).demand
    if switch == "h":
        return simulate_hybrid(demand, scheduler.schedule(demand, params), params)
    schedule = CpSwitchScheduler(scheduler).schedule(demand, params)
    return simulate_cp(demand, schedule, params)


def _segment_digest(result) -> str:
    segments = np.array(
        [
            (s.start, s.end, s.ocs_direct_rate, s.composite_rate, s.eps_rate)
            for s in result.segments
        ],
        dtype=np.float64,
    )
    volumes = np.array(
        [result.served_ocs_direct, result.served_composite, result.served_eps]
    )
    digest = hashlib.sha256(segments.tobytes())
    digest.update(volumes.tobytes())
    return digest.hexdigest()[:16]


_SCHEDULERS = {"eclipse": EclipseScheduler, "solstice": SolsticeScheduler}

#: "switch_scheduler_radix" -> digest of the segments and served volumes.
SEGMENT_GOLDENS = {
    "h_eclipse_32": "fb9da366c369dccc",
    "cp_eclipse_32": "ec9f2f9dcbdedfc5",
    "h_eclipse_64": "74c64face66aa957",
    "cp_eclipse_64": "03cd62921a58ccc5",
    "h_solstice_32": "3cd522435086058d",
    "cp_solstice_32": "13f32dc5b4a08d66",
    "h_solstice_64": "f54c61dc28fb6f9c",
    "cp_solstice_64": "1eedd6aef2e98111",
}


class TestSegmentGoldens:
    @pytest.mark.parametrize("case", sorted(SEGMENT_GOLDENS))
    def test_segments_and_served_volumes(self, case):
        switch, scheduler, radix = case.split("_")
        result = _skewed_run(_SCHEDULERS[scheduler](), int(radix), switch)
        assert _segment_digest(result) == SEGMENT_GOLDENS[case]
