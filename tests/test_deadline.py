"""Tests for the deadline-aware anytime scheduling subsystem.

The two contracts that matter (see ``src/repro/service/deadline.py``):

* with ``deadline_s=None`` (or an infinite budget) the wrapper is
  bit-identical to the unwrapped :class:`CpSwitchScheduler`, for both
  h-Switch schedulers and on both kernel backends (hypothesis-fuzzed);
* under any finite budget every rung of the fallback ladder yields a
  valid, conservation-clean schedule, with the rung recorded on
  ``last_outcome``.

All fallback-level assertions run on a :class:`TickClock`, which makes
budget exhaustion a function of checkpoint *count* — deterministic on any
machine.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import obs
from repro.analysis.controller import EpochController
from repro.core.config import FilterConfig
from repro.core.reduction import reduce_with_config
from repro.core.scheduler import CpSwitchScheduler, interpret
from repro.hybrid.eclipse import EclipseScheduler
from repro.hybrid.solstice import SolsticeScheduler
from repro.matching import kernels
from repro.obs.tracer import JsonlTracer
from repro.service.deadline import (
    FALLBACK_EPS_ONLY,
    FALLBACK_FULL,
    FALLBACK_TDM,
    FALLBACK_TRUNCATED,
    FALLBACK_WARM_REUSE,
    AnytimeScheduler,
    DeadlineBudget,
    TickClock,
)
from repro.sim import simulate_cp
from repro.switch.params import fast_ocs_params

N = 16
PARAMS = fast_ocs_params(N)
FILTER = FilterConfig(fanout_threshold=4, volume_threshold=2.0)

BACKENDS = (kernels.ORACLE, kernels.KERNEL)


def covering_demand() -> np.ndarray:
    """The grant-covering workload from the fast-reroute tests: port 0
    fans out (o2m grant), ports 9..13 fan in (m2o grants), plus a direct
    elephant keeping the regular schedule busy."""
    demand = np.zeros((N, N))
    demand[0, 1:9] = 1.0
    demand[9:14, 1:9] = 1.0
    demand[14, 15] = 40.0
    return demand


def bursty_arrivals(epoch: int) -> np.ndarray:
    """Sparse background noise plus one 25 Mb elephant that moves each epoch."""
    rng = np.random.default_rng(7000 + epoch)
    demand = rng.uniform(0.0, 2.0, size=(N, N)) * (rng.random((N, N)) < 0.3)
    np.fill_diagonal(demand, 0.0)
    demand[epoch % N, (epoch + 1) % N] += 25.0
    return demand


def traced_checkpoints(run) -> "tuple[object, list[dict]]":
    """``run()``'s result and the attributes of the ``deadline_checkpoint``
    trace events it emitted, in order."""
    tracer = JsonlTracer()
    with obs.observability(tracer=tracer):
        result = run()
    return result, [
        record["attrs"]
        for record in tracer.records()
        if record["kind"] == "event" and record["name"] == "deadline_checkpoint"
    ]


def make_inner(name: str = "solstice") -> CpSwitchScheduler:
    inner = SolsticeScheduler() if name == "solstice" else EclipseScheduler()
    return CpSwitchScheduler(inner, filter_config=FILTER)


def fuzz_demands(n: int = 8, max_value: float = 12.0):
    """Strategy: sparse non-negative demand matrices at radix ``n``."""
    return st.tuples(
        arrays(
            np.float64,
            (n, n),
            elements=st.floats(0.0, max_value, allow_nan=False, width=32),
        ),
        arrays(np.bool_, (n, n)),
    ).map(lambda pair: pair[0] * pair[1] * (~np.eye(n, dtype=bool)))


def assert_schedules_equal(a, b) -> None:
    """Bit-identity of two CpSchedules, field by field."""
    assert len(a.entries) == len(b.entries)
    for entry_a, entry_b in zip(a.entries, b.entries):
        np.testing.assert_array_equal(entry_a.matching, entry_b.matching)
        assert entry_a.duration == entry_b.duration
        assert entry_a.composite_volume == entry_b.composite_volume
        assert entry_a.o2m_ports == entry_b.o2m_ports
        assert entry_a.m2o_ports == entry_b.m2o_ports
    np.testing.assert_array_equal(a.filtered_residual, b.filtered_residual)
    np.testing.assert_array_equal(a.reduction.filtered, b.reduction.filtered)
    assert len(a.reduced_schedule) == len(b.reduced_schedule)


class TestTickClock:
    def test_readings_advance_by_step(self):
        clock = TickClock(step=2.0)
        assert [clock(), clock(), clock()] == [0.0, 2.0, 4.0]

    def test_jump_advances_without_reading(self):
        clock = TickClock(step=1.0)
        clock()
        clock.jump(10.0)
        assert clock() == 11.0

    def test_zero_step_freezes_time(self):
        clock = TickClock(step=0.0)
        assert clock() == clock() == 0.0

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_rejects_bad_step(self, bad):
        with pytest.raises(ValueError):
            TickClock(step=bad)


class TestDeadlineBudget:
    def test_unbounded_never_exhausts(self):
        budget = DeadlineBudget(None, clock=TickClock(step=100.0)).start()
        for _ in range(10):
            assert budget.checkpoint("stage")
        assert not budget.exhausted
        assert budget.remaining_s() == math.inf

    def test_infinite_deadline_never_exhausts(self):
        budget = DeadlineBudget(math.inf, clock=TickClock(step=100.0)).start()
        assert budget.checkpoint("stage")
        assert not budget.exhausted
        assert not budget.overdrawn()

    def test_exhausts_at_deadline(self):
        budget = DeadlineBudget(2.5, clock=TickClock(step=1.0)).start()
        assert budget.checkpoint("a")  # elapsed 1
        assert budget.checkpoint("b")  # elapsed 2
        assert not budget.checkpoint("c")  # elapsed 3 >= 2.5
        assert budget.exhausted

    def test_checkpoint_records_elapsed(self):
        budget = DeadlineBudget(10.0, clock=TickClock(step=1.0)).start()
        _, (event,) = traced_checkpoints(lambda: budget.checkpoint("x"))
        assert event == {
            "stage": "x",
            "elapsed_ms": 1000.0,
            "deadline_ms": 10000.0,
            "exhausted": False,
        }

    def test_start_rearms(self):
        clock = TickClock(step=1.0)
        budget = DeadlineBudget(1.5, clock=clock).start()
        budget.checkpoint("a")
        budget.checkpoint("b")
        assert budget.exhausted
        budget.start()
        assert not budget.exhausted
        assert budget.checkpoint("c")  # the clock restarted: elapsed 1 < 1.5

    def test_overdrawn_needs_factor_times_deadline(self):
        clock = TickClock(step=0.0)
        budget = DeadlineBudget(1.0, clock=clock).start()
        clock.jump(2.0)
        assert not budget.overdrawn()  # 2 < 4×1
        clock.jump(2.0)
        assert budget.overdrawn()  # 4 >= 4×1

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan")])
    def test_rejects_bad_deadline(self, bad):
        with pytest.raises(ValueError, match="deadline_s"):
            DeadlineBudget(bad)

    def test_remaining_clamped_at_zero(self):
        clock = TickClock(step=0.0)
        budget = DeadlineBudget(1.0, clock=clock).start()
        clock.jump(5.0)
        assert budget.remaining_s() == 0.0


class TestUnboundedBitIdentity:
    """deadline_s=None / inf must change nothing, on either backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["solstice", "eclipse"])
    def test_covering_workload_identical(self, backend, name):
        demand = covering_demand()
        with kernels.use_backend(backend):
            plain = make_inner(name).schedule(demand, PARAMS)
            wrapped = AnytimeScheduler(make_inner(name)).schedule(demand, PARAMS)
        assert_schedules_equal(plain, wrapped)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["solstice", "eclipse"])
    def test_infinite_budget_identical(self, backend, name):
        # An *installed* but infinite budget exercises every checkpoint
        # call site and still must not perturb a single number.
        demand = covering_demand()
        with kernels.use_backend(backend):
            plain = make_inner(name).schedule(demand, PARAMS)
            anytime = AnytimeScheduler(
                make_inner(name), deadline_s=math.inf, clock=TickClock(step=1.0)
            )
            wrapped, events = traced_checkpoints(
                lambda: anytime.schedule(demand, PARAMS)
            )
        assert_schedules_equal(plain, wrapped)
        assert anytime.last_outcome.fallback_level == FALLBACK_FULL
        assert not anytime.last_outcome.deadline_hit
        assert events  # the budget was really installed and polled

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["solstice", "eclipse"])
    @given(demand=fuzz_demands())
    @settings(max_examples=25, deadline=None)
    def test_fuzzed_identity(self, backend, name, demand):
        params = fast_ocs_params(8)
        with kernels.use_backend(backend):
            plain = make_inner(name).schedule(demand, params)
            wrapped = AnytimeScheduler(
                make_inner(name), deadline_s=math.inf, clock=TickClock(step=1.0)
            ).schedule(demand, params)
        assert_schedules_equal(plain, wrapped)


class TestFallbackLadder:
    """Deterministic rung selection on a TickClock."""

    def test_l0_full_schedule_within_budget(self):
        anytime = AnytimeScheduler(
            make_inner(), deadline_s=1e9, clock=TickClock(step=1.0)
        )
        anytime.schedule(covering_demand(), PARAMS)
        assert anytime.last_outcome.fallback_level == FALLBACK_FULL
        assert not anytime.last_outcome.deadline_hit

    def test_l1_truncated_prefix(self):
        # Budget 6.5 ticks: reduce(1) + stuffing(2) + a few slices, then
        # the solstice deadline watchdog truncates — entries exist, so L1.
        anytime = AnytimeScheduler(
            make_inner(), deadline_s=6.5, clock=TickClock(step=1.0)
        )
        cp_schedule, events = traced_checkpoints(
            lambda: anytime.schedule(covering_demand(), PARAMS)
        )
        outcome = anytime.last_outcome
        assert outcome.fallback_level == FALLBACK_TRUNCATED
        assert outcome.deadline_hit
        assert len(cp_schedule.entries) > 0
        # The inner scheduler recorded the standard watchdog degradation.
        diagnostics = anytime.inner.inner.last_diagnostics
        assert any(diag.event == "deadline" for diag in diagnostics)
        stages = [event["stage"] for event in events]
        assert stages[0] == "cpsched.reduce"
        assert "solstice.stuffing" in stages
        assert "solstice.slice" in stages
        simulate_cp(covering_demand(), cp_schedule, PARAMS).check_conservation()

    def test_l1_prefix_shorter_than_full(self):
        full = make_inner().schedule(covering_demand(), PARAMS)
        anytime = AnytimeScheduler(
            make_inner(), deadline_s=6.5, clock=TickClock(step=1.0)
        )
        truncated = anytime.schedule(covering_demand(), PARAMS)
        assert 0 < len(truncated.entries) < len(full.entries)

    def test_l2_warm_reuse_with_age(self):
        clock = TickClock(step=0.0)
        anytime = AnytimeScheduler(make_inner(), deadline_s=2.5, clock=clock)
        demand = covering_demand()
        # Call 1: frozen clock, full schedule -> remembered.
        anytime.schedule(demand, PARAMS)
        assert anytime.last_outcome.fallback_level == FALLBACK_FULL
        # Calls 2, 3: every checkpoint costs a tick -> exhausted before the
        # first slice; the remembered schedule is re-interpreted.
        clock.step = 1.0
        reused = anytime.schedule(demand, PARAMS)
        assert anytime.last_outcome.fallback_level == FALLBACK_WARM_REUSE
        assert anytime.last_outcome.schedule_age_epochs == 1
        assert len(reused.entries) > 0
        simulate_cp(demand, reused, PARAMS).check_conservation()
        anytime.schedule(demand, PARAMS)
        assert anytime.last_outcome.schedule_age_epochs == 2

    def test_l2_serves_composite_volume(self):
        clock = TickClock(step=0.0)
        anytime = AnytimeScheduler(make_inner(), deadline_s=2.5, clock=clock)
        demand = covering_demand()
        anytime.schedule(demand, PARAMS)
        clock.step = 1.0
        reused = anytime.schedule(demand, PARAMS)
        # Re-interpretation against identical demand re-derives the grants,
        # so the composite paths still carry volume.
        assert reused.composite_volume_served > 0

    def test_l3_tdm_when_no_predecessor(self):
        anytime = AnytimeScheduler(
            make_inner(), deadline_s=2.5, clock=TickClock(step=1.0)
        )
        demand = covering_demand()
        cp_schedule = anytime.schedule(demand, PARAMS)
        outcome = anytime.last_outcome
        assert outcome.fallback_level == FALLBACK_TDM
        assert len(cp_schedule.entries) > 0
        assert cp_schedule.composite_volume_served == 0.0
        assert float(cp_schedule.reduction.filtered.sum()) == 0.0
        result = simulate_cp(demand, cp_schedule, PARAMS)
        result.check_conservation()
        # TDM + EPS still delivers everything eventually.
        assert result.stranded_volume == pytest.approx(0.0, abs=1e-9)

    def test_l3_not_remembered_for_reuse(self):
        anytime = AnytimeScheduler(
            make_inner(), deadline_s=2.5, clock=TickClock(step=1.0)
        )
        demand = covering_demand()
        anytime.schedule(demand, PARAMS)
        assert anytime.last_outcome.fallback_level == FALLBACK_TDM
        anytime.schedule(demand, PARAMS)
        # Still TDM — a fallback schedule must never masquerade as a warm
        # predecessor.
        assert anytime.last_outcome.fallback_level == FALLBACK_TDM

    def test_l4_eps_only_when_overdrawn(self):
        # One 50-tick step blows past HARD_OVERDRAFT×deadline at the very
        # first checkpoint.
        anytime = AnytimeScheduler(
            make_inner(), deadline_s=2.5, clock=TickClock(step=50.0)
        )
        demand = covering_demand()
        cp_schedule = anytime.schedule(demand, PARAMS)
        assert anytime.last_outcome.fallback_level == FALLBACK_EPS_ONLY
        assert len(cp_schedule.entries) == 0
        result = simulate_cp(demand, cp_schedule, PARAMS)
        result.check_conservation()
        assert result.served_eps == pytest.approx(float(demand.sum()), rel=1e-9)

    def test_l2_skipped_when_overdrawn(self):
        clock = TickClock(step=0.0)
        anytime = AnytimeScheduler(make_inner(), deadline_s=2.5, clock=clock)
        demand = covering_demand()
        anytime.schedule(demand, PARAMS)  # remembered
        clock.step = 50.0
        anytime.schedule(demand, PARAMS)
        # Overdraft outranks warm reuse: do no further scheduling work.
        assert anytime.last_outcome.fallback_level == FALLBACK_EPS_ONLY


class TestWarmReuseDeadPorts:
    @pytest.mark.parametrize("name", ["solstice", "eclipse"])
    @given(demand=fuzz_demands(n=N))
    @settings(max_examples=10, deadline=None)
    def test_reinterpret_own_demand_reproduces_schedule(self, name, demand):
        # The L2 rung and Algorithm 4 share one interpretation loop: with no
        # dead ports, re-interpreting a fresh schedule against the demand it
        # was built from reproduces its entries exactly.
        demand = demand + covering_demand()
        scheduler = make_inner(name)
        fresh = scheduler.schedule(demand, PARAMS)
        reduction = reduce_with_config(demand, PARAMS, scheduler.filter_config)
        assert_schedules_equal(
            interpret(fresh.reduced_schedule, reduction, PARAMS), fresh
        )

    def test_dead_port_grants_stripped(self):
        clock = TickClock(step=0.0)
        anytime = AnytimeScheduler(make_inner(), deadline_s=2.5, clock=clock)
        demand = covering_demand()
        warm = anytime.schedule(demand, PARAMS)
        granted_o2m = {port for e in warm.entries for port in e.o2m_ports}
        assert granted_o2m, "covering workload must grant o2m composite paths"
        dead = next(iter(granted_o2m))
        clock.step = 1.0
        reused = anytime.schedule(demand, PARAMS, blocked_o2m={dead})
        assert anytime.last_outcome.fallback_level == FALLBACK_WARM_REUSE
        assert f"dead-port grant" in anytime.last_outcome.detail
        assert all(dead not in entry.o2m_ports for entry in reused.entries)
        # The blocked reduction never assigns volume to the dead port's own
        # composite path (entries may still ride the receivers' m2o paths).
        assert float(reused.reduction.reduced[dead, N]) == 0.0
        simulate_cp(demand, reused, PARAMS).check_conservation()

    def test_dead_o2m_and_m2o_grants_stripped_parking_nothing(self):
        # One dead port of each kind, both granted by the remembered
        # schedule: interpretation strips both grants, and the blocked
        # reduction parks nothing on either port's composite path.
        clock = TickClock(step=0.0)
        anytime = AnytimeScheduler(make_inner(), deadline_s=2.5, clock=clock)
        demand = covering_demand()
        warm = anytime.schedule(demand, PARAMS)
        dead_o2m = next(port for e in warm.entries for port in e.o2m_ports)
        dead_m2o = next(port for e in warm.entries for port in e.m2o_ports)
        clock.step = 1.0
        reused = anytime.schedule(
            demand, PARAMS, blocked_o2m={dead_o2m}, blocked_m2o={dead_m2o}
        )
        assert anytime.last_outcome.fallback_level == FALLBACK_WARM_REUSE
        assert "; 2 dead-port grant(s) stripped" in anytime.last_outcome.detail
        assert len(reused.entries) == len(warm.entries)
        for entry in reused.entries:
            assert dead_o2m not in entry.o2m_ports
            assert dead_m2o not in entry.m2o_ports
        reduction = reused.reduction
        assert reduction.o2m_loads[dead_o2m] == 0.0
        assert reduction.m2o_loads[dead_m2o] == 0.0
        simulate_cp(demand, reused, PARAMS).check_conservation()


class TestInterpretTruncation:
    def test_overdraft_truncates_and_the_dropped_demand_drains_on_the_eps(self):
        # A tick budget of one tick: the first configuration's checkpoint
        # exhausts it (tick 1 of 1), the second's overdraft test reads tick
        # 4 of HARD_OVERDRAFT x 1, so interpretation keeps one entry.
        scheduler = make_inner()
        demand = covering_demand()
        full = scheduler.schedule(demand, PARAMS)
        assert len(full.entries) >= 2
        reduction = reduce_with_config(demand, PARAMS, scheduler.filter_config)
        budget = DeadlineBudget(1.0, clock=TickClock(step=1.0)).start()
        truncated = interpret(full.reduced_schedule, reduction, PARAMS, budget=budget)
        assert budget.overdrawn()
        assert len(truncated.entries) == 1
        kept, first = truncated.entries[0], full.entries[0]
        np.testing.assert_array_equal(kept.matching, first.matching)
        assert kept.composite_volume == first.composite_volume
        assert (kept.o2m_ports, kept.m2o_ports) == (first.o2m_ports, first.m2o_ports)
        # What the dropped grants would have served stays parked, and the
        # final drain merges it back onto the EPS.
        dropped = sum(e.composite_volume for e in full.entries[1:])
        assert dropped > 0.0
        assert truncated.filtered_residual.sum() == pytest.approx(
            full.filtered_residual.sum() + dropped
        )
        result = simulate_cp(demand, truncated, PARAMS)
        result.check_conservation()
        assert result.finished
        assert result.served_composite <= truncated.composite_volume_served + 1e-9


class TestFiniteBudgetValidity:
    """Any finite tick budget -> a valid, conservation-clean schedule."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["solstice", "eclipse"])
    @given(demand=fuzz_demands(), deadline=st.floats(0.5, 20.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_fuzzed_validity(self, backend, name, demand, deadline):
        params = fast_ocs_params(8)
        with kernels.use_backend(backend):
            anytime = AnytimeScheduler(
                make_inner(name), deadline_s=deadline, clock=TickClock(step=1.0)
            )
            cp_schedule = anytime.schedule(demand, params)
            result = simulate_cp(demand, cp_schedule, params)
        result.check_conservation()
        outcome = anytime.last_outcome
        assert outcome is not None
        assert 0 <= outcome.fallback_level <= 4
        if outcome.fallback_level > 0:
            assert outcome.deadline_hit

    def test_every_epoch_of_a_sequence_is_valid(self):
        clock = TickClock(step=1.0)
        anytime = AnytimeScheduler(make_inner(), deadline_s=6.5, clock=clock)
        rng = np.random.default_rng(5)
        levels = set()
        for _ in range(6):
            demand = rng.uniform(0.0, 4.0, size=(N, N))
            np.fill_diagonal(demand, 0.0)
            cp_schedule = anytime.schedule(demand, PARAMS)
            simulate_cp(demand, cp_schedule, PARAMS).check_conservation()
            levels.add(anytime.last_outcome.fallback_level)
        assert levels  # every epoch produced an outcome

        # A bounded closed loop with backpressure armed: every epoch's
        # schedule conserves volume, the admission ledger (offered =
        # admitted + shed + parked) balances, and the ladder engages a
        # middle rung, not just L0/L4.
        for deadline in (6.5, 2.5):
            controller = EpochController(
                PARAMS,
                SolsticeScheduler(),
                use_composite_paths=True,
                epoch_duration=0.5,
                deadline_s=deadline,
                deadline_clock=TickClock(step=1.0),
                max_backlog=60.0,
                overflow_policy="shed",
            )
            for epoch in range(6):
                controller.offer(bursty_arrivals(epoch))
                report, result = controller.run_epoch(epoch)
                result.check_conservation()
                levels.add(report.fallback_level)
            controller.check_conservation()
            assert controller.shed_volume_total > 0.0  # the shed leg is in play
        assert levels & {FALLBACK_TRUNCATED, FALLBACK_WARM_REUSE, FALLBACK_TDM}
