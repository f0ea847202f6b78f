"""Tests for fast-reroute: precomputed backup schedules (repro.faults.reroute).

The load-bearing invariants:

* a mid-epoch composite-port outage with backups armed swaps at the current
  phase boundary — under **every** scheduler/kernel backend combination;
* the conservation ledger balances through a swap (volume is re-parked,
  never lost);
* fast-reroute strands no more volume than degrade-to-EPS, and strictly
  less on a workload whose surviving grants cover the orphaned demand;
* a run in which no fault fires is bit-identical with backups armed
  (hypothesis-fuzzed) — arming the repair machinery costs nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.controller import EpochController
from repro.analysis.robustness import outage_plan, reroute_rate_trial, reroute_trial
from repro.core.config import FilterConfig
from repro.core.scheduler import CpSwitchScheduler
from repro.faults import FaultPlan
from repro.faults.reroute import (
    FALLBACK_KEY,
    BackupPlanner,
    BackupSchedule,
    BackupSet,
    RerouteOutcome,
    SwapEvent,
    backup_key,
)
from repro.hybrid.eclipse import EclipseScheduler
from repro.hybrid.solstice import SolsticeScheduler
from repro.matching import kernels
from repro.sim import simulate_cp
from repro.sim.engine import FluidEngine
from repro.switch.params import fast_ocs_params

N = 16
PARAMS = fast_ocs_params(N)
FILTER = FilterConfig(fanout_threshold=4, volume_threshold=2.0)


def covering_demand() -> np.ndarray:
    """A workload whose surviving grants cover each other's orphans.

    Port 0 fans out to ports 1..8 (one-to-many); ports 9..13 each fan in
    to columns 1..8 (many-to-one); a 40 Mb direct elephant keeps the
    regular schedule busy long enough for a mid-schedule outage to matter.
    Every filtered entry lies on both a granted o2m row and a granted m2o
    column, so when one composite port dies the other direction's grants
    can re-serve its parked demand.
    """
    demand = np.zeros((N, N))
    demand[0, 1:9] = 1.0
    demand[9:14, 1:9] = 1.0
    demand[14, 15] = 40.0
    return demand


def make_scheduler(name: str) -> CpSwitchScheduler:
    inner = SolsticeScheduler() if name == "solstice" else EclipseScheduler()
    return CpSwitchScheduler(inner, filter_config=FILTER)


def plan_backups(scheduler_name: str = "solstice"):
    """(demand, cp_schedule, scheduler, backups) on the covering workload."""
    demand = covering_demand()
    scheduler = make_scheduler(scheduler_name)
    cp_schedule = scheduler.schedule(demand, PARAMS)
    backups = BackupPlanner(scheduler).plan(demand, cp_schedule, PARAMS)
    return demand, cp_schedule, scheduler, backups


def killer(kind: str, port: int, n: int = N):
    """A deterministic injector: ``(kind, port)`` is dead, nothing else.

    A null plan consumes no entropy, so the only divergence from a
    fault-free run is the pre-seeded outage, discovered at first grant.
    """
    injector = FaultPlan().injector(n)
    injector.mark_dead(kind, [port])
    return injector


class TestBackupKey:
    def test_format(self):
        assert backup_key("o2m", 3) == "o2m:3"
        assert backup_key("m2o", 11) == "m2o:11"

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            backup_key("sideways", 0)


class TestBackupSchedule:
    def test_filtered_is_frozen(self):
        backup = BackupSchedule(key="o2m:0", filtered=np.ones((4, 4)))
        with pytest.raises(ValueError):
            backup.filtered[0, 0] = 7.0

    def test_parkable_volume(self):
        backup = BackupSchedule(key="o2m:0", filtered=np.full((3, 3), 2.0))
        assert backup.parkable_volume == pytest.approx(18.0)


class TestBackupSetSelect:
    def _set(self):
        per_port = {
            ("m2o", 4): BackupSchedule(key="m2o:4", filtered=np.zeros((4, 4))),
            ("o2m", 1): BackupSchedule(key="o2m:1", filtered=np.zeros((4, 4))),
        }
        fallback = BackupSchedule(key=FALLBACK_KEY, filtered=np.zeros((4, 4)))
        return BackupSet(per_port=per_port, fallback=fallback, base_blocked_o2m={7})

    def test_single_new_death_selects_per_port(self):
        backups = self._set()
        assert backups.select(set(), {4}).key == "m2o:4"
        assert backups.select({1}, set()).key == "o2m:1"

    def test_multiple_deaths_select_fallback(self):
        backups = self._set()
        assert backups.select({1}, {4}).key == FALLBACK_KEY

    def test_unplanned_death_selects_fallback(self):
        backups = self._set()
        assert backups.select(set(), {9}).key == FALLBACK_KEY

    def test_base_blocked_ports_are_not_events(self):
        backups = self._set()
        # o2m:7 was dead at plan time; only m2o:4 is a *new* death.
        assert backups.select({7}, {4}).key == "m2o:4"

    def test_active_backup_selects_none(self):
        backups = self._set()
        assert backups.select(set(), {4}, current_key="m2o:4") is None

    def test_n_armed_excludes_fallback(self):
        assert self._set().n_armed == 2


class TestRerouteOutcome:
    def test_empty_outcome(self):
        outcome = RerouteOutcome()
        assert outcome.n_swaps == 0
        assert outcome.recovery_ms == 0.0
        assert outcome.reparked_mb == 0.0

    def test_aggregates_and_dict(self):
        swaps = (
            SwapEvent("m2o:4", 1.0, 1.5, released_mb=3.0, carried_mb=2.0),
            SwapEvent("o2m:0", 2.0, 2.2, released_mb=1.0, carried_mb=0.5),
        )
        outcome = RerouteOutcome(swaps=swaps, backups_armed=5)
        assert outcome.n_swaps == 2
        assert outcome.recovery_ms == pytest.approx(0.5)
        assert outcome.reparked_mb == pytest.approx(2.5)
        payload = outcome.to_dict()
        assert payload["backups_armed"] == 5
        assert len(payload["swaps"]) == 2


class TestMarkDeadValidation:
    """Regression: unknown kinds were silently treated as ``"m2o"``."""

    def test_unknown_kind_rejected(self):
        injector = FaultPlan().injector(8)
        with pytest.raises(ValueError, match="kind"):
            injector.mark_dead("o2n", [1])
        assert not injector.dead_o2m and not injector.dead_m2o

    def test_valid_kinds_accepted(self):
        injector = FaultPlan().injector(8)
        injector.mark_dead("o2m", [1])
        injector.mark_dead("m2o", [2, 3])
        assert injector.dead_o2m == {1}
        assert injector.dead_m2o == {2, 3}


class TestBackupPlanner:
    def test_one_backup_per_granted_port(self):
        _, cp_schedule, _, backups = plan_backups()
        granted = set()
        for entry in cp_schedule.entries:
            if entry.o2m_port is not None:
                granted.add(("o2m", entry.o2m_port))
            if entry.m2o_port is not None:
                granted.add(("m2o", entry.m2o_port))
        assert set(backups.per_port) == granted
        assert backups.n_armed == len(granted)
        assert granted, "covering workload must grant composite paths"

    def test_backup_blocks_its_failure_class(self):
        _, _, _, backups = plan_backups()
        for (kind, port), backup in backups.per_port.items():
            blocked = backup.blocked_o2m if kind == "o2m" else backup.blocked_m2o
            assert port in blocked

    def test_parkable_masked_to_surviving_grants(self):
        _, cp_schedule, _, backups = plan_backups()
        for (kind, port), backup in backups.per_port.items():
            rows = np.zeros(N, dtype=bool)
            cols = np.zeros(N, dtype=bool)
            for entry in cp_schedule.entries:
                if entry.o2m_port is not None and ("o2m", entry.o2m_port) != (kind, port):
                    rows[entry.o2m_port] = True
                if entry.m2o_port is not None and ("m2o", entry.m2o_port) != (kind, port):
                    cols[entry.m2o_port] = True
            uncovered = ~(rows[:, None] | cols[None, :])
            assert backup.filtered[uncovered].sum() == 0.0

    def test_fallback_parks_nothing(self):
        _, _, _, backups = plan_backups()
        assert backups.fallback.key == FALLBACK_KEY
        assert backups.fallback.parkable_volume == 0.0

    def test_planning_is_deterministic(self):
        _, _, _, a = plan_backups()
        _, _, _, b = plan_backups()
        assert set(a.per_port) == set(b.per_port)
        for key in a.per_port:
            np.testing.assert_array_equal(
                a.per_port[key].filtered, b.per_port[key].filtered
            )

    def test_plan_time_measured(self):
        _, _, _, backups = plan_backups()
        assert backups.plan_seconds > 0.0

    def test_base_blocked_ports_excluded(self):
        demand, cp_schedule, scheduler, _ = plan_backups()
        backups = BackupPlanner(scheduler).plan(
            demand, cp_schedule, PARAMS, blocked_m2o=[4]
        )
        assert 4 in backups.base_blocked_m2o
        for backup in backups.per_port.values():
            assert 4 in backup.blocked_m2o


class TestEngineRepark:
    def test_shape_checked(self):
        engine = FluidEngine(covering_demand(), PARAMS)
        with pytest.raises(ValueError):
            engine.repark_composite(np.zeros((4, 4)))

    def test_negative_rejected(self):
        engine = FluidEngine(covering_demand(), PARAMS)
        with pytest.raises(ValueError):
            engine.repark_composite(np.full((N, N), -1.0))

    def test_clamps_to_regular_residual(self):
        engine = FluidEngine(covering_demand(), PARAMS)
        ask = np.full((N, N), 1e6)
        regular_before = engine.regular.sum()
        parked = engine.repark_composite(ask)
        assert parked == pytest.approx(regular_before)
        assert engine.regular.sum() == pytest.approx(0.0)
        assert engine.composite.sum() == pytest.approx(regular_before)


@pytest.mark.parametrize("backend", [kernels.ORACLE, kernels.KERNEL])
@pytest.mark.parametrize("scheduler_name", ["solstice", "eclipse"])
class TestSwapEveryBackend:
    """ISSUE satellite: the swap must fire and balance under every
    scheduler/kernel backend combination."""

    def test_mid_epoch_outage_swaps_and_balances(self, backend, scheduler_name):
        with kernels.use_backend(backend):
            demand, cp_schedule, _, backups = plan_backups(scheduler_name)
            assert backups.n_armed > 0
            kind, port = sorted(backups.per_port)[-1]
            horizon = cp_schedule.makespan
            degrade = simulate_cp(
                demand, cp_schedule, PARAMS, horizon=horizon, faults=killer(kind, port)
            )
            reroute = simulate_cp(
                demand,
                cp_schedule,
                PARAMS,
                horizon=horizon,
                faults=killer(kind, port),
                backups=backups,
            )
        degrade.check_conservation()
        reroute.check_conservation()
        assert degrade.reroute is None
        outcome = reroute.reroute
        assert outcome is not None
        assert outcome.n_swaps == 1
        assert outcome.swaps[0].key == backup_key(kind, port)
        assert outcome.backups_armed == backups.n_armed
        # Fast-reroute never strands more than degrade-to-EPS.
        assert reroute.stranded_volume <= degrade.stranded_volume + 1e-9

    def test_zero_fault_run_bit_identical_with_backups(self, backend, scheduler_name):
        with kernels.use_backend(backend):
            demand, cp_schedule, _, backups = plan_backups(scheduler_name)
            plain = simulate_cp(demand, cp_schedule, PARAMS)
            armed = simulate_cp(
                demand, cp_schedule, PARAMS, faults=FaultPlan(), backups=backups
            )
        np.testing.assert_array_equal(plain.finish_times, armed.finish_times)
        assert plain.completion_time == armed.completion_time
        assert plain.served_eps == armed.served_eps
        assert plain.served_composite == armed.served_composite
        assert plain.served_ocs_direct == armed.served_ocs_direct
        outcome = armed.reroute
        assert outcome is not None and outcome.n_swaps == 0
        assert outcome.backups_armed == backups.n_armed


class TestSwapSemantics:
    """Solstice-specific checks on the validated covering workload."""

    def test_strictly_less_stranded_than_degrade(self):
        demand, cp_schedule, _, backups = plan_backups()
        kill = next(key for key in sorted(backups.per_port) if key[0] == "m2o")
        horizon = cp_schedule.makespan
        degrade = simulate_cp(
            demand, cp_schedule, PARAMS, horizon=horizon, faults=killer(*kill)
        )
        reroute = simulate_cp(
            demand,
            cp_schedule,
            PARAMS,
            horizon=horizon,
            faults=killer(*kill),
            backups=backups,
        )
        assert reroute.reroute.n_swaps == 1
        assert reroute.reroute.reparked_mb > 0.0
        assert reroute.stranded_volume < degrade.stranded_volume - 1e-9

    def test_recovery_within_one_phase(self):
        demand, cp_schedule, _, backups = plan_backups()
        kill = next(key for key in sorted(backups.per_port) if key[0] == "m2o")
        reroute = simulate_cp(
            demand,
            cp_schedule,
            PARAMS,
            horizon=cp_schedule.makespan,
            faults=killer(*kill),
            backups=backups,
        )
        max_phase = PARAMS.reconfig_delay + max(
            entry.duration for entry in cp_schedule.entries
        )
        outcome = reroute.reroute
        assert outcome.n_swaps == 1
        assert 0.0 <= outcome.recovery_ms <= max_phase + 1e-9

    def test_unplanned_port_kill_is_invisible(self):
        # A port the schedule never grants cannot strand anything: the
        # injector never discovers it dead, no swap fires, and the two
        # arms agree exactly.
        demand, cp_schedule, _, backups = plan_backups()
        dead = next(
            ("m2o", p) for p in range(N) if ("m2o", p) not in backups.per_port
        )
        horizon = cp_schedule.makespan
        degrade = simulate_cp(
            demand, cp_schedule, PARAMS, horizon=horizon, faults=killer(*dead)
        )
        reroute = simulate_cp(
            demand,
            cp_schedule,
            PARAMS,
            horizon=horizon,
            faults=killer(*dead),
            backups=backups,
        )
        assert reroute.reroute.n_swaps == 0
        assert reroute.stranded_volume == degrade.stranded_volume

    def test_second_outage_falls_back(self):
        # Two planned ports dead at once: the first discovery selects its
        # per-port backup, the second (now two new deaths) the fallback.
        demand, cp_schedule, _, backups = plan_backups()
        m2o_ports = sorted(p for k, p in backups.per_port if k == "m2o")
        if len(m2o_ports) < 2:
            pytest.skip("workload granted fewer than two m2o ports")
        injector = FaultPlan().injector(N)
        injector.mark_dead("m2o", m2o_ports[:2])
        reroute = simulate_cp(
            demand,
            cp_schedule,
            PARAMS,
            horizon=cp_schedule.makespan,
            faults=injector,
            backups=backups,
        )
        reroute.check_conservation()
        outcome = reroute.reroute
        assert outcome.n_swaps >= 1
        assert outcome.swaps[-1].key in (
            FALLBACK_KEY,
            *(backup_key("m2o", p) for p in m2o_ports[:2]),
        )


class TestRerouteTrials:
    def test_reroute_trial_pair(self):
        demand = covering_demand()
        degrade, reroute = reroute_trial(
            demand, SolsticeScheduler(), PARAMS, outage_plan(1.0, seed=3)
        )
        assert degrade.reroute is None
        assert reroute.reroute is not None
        assert reroute.stranded_volume <= degrade.stranded_volume + 1e-9

    def test_zero_rate_trial_identical_arms(self):
        payload = reroute_rate_trial(ocs="fast", radix=16, trial=0, rate=0.0)
        assert payload["swaps"] == 0
        assert payload["degrade_stranded"] == payload["reroute_stranded"]

    def test_rate_trial_payload_is_json_shaped(self):
        payload = reroute_rate_trial(
            ocs="fast", radix=16, trial=1, rate=0.5, rate_index=2
        )
        assert set(payload) == {
            "trial",
            "rate",
            "degrade_stranded",
            "reroute_stranded",
            "swaps",
            "recovery_ms",
            "reparked",
        }


class TestControllerFastReroute:
    def test_requires_composite_paths(self):
        with pytest.raises(ValueError, match="use_composite_paths"):
            EpochController(PARAMS, SolsticeScheduler(), fast_reroute=True)

    def test_epoch_report_carries_reroute_fields(self):
        controller = EpochController(
            PARAMS,
            SolsticeScheduler(),
            use_composite_paths=True,
            fast_reroute=True,
        )
        controller.offer(covering_demand())
        report, _ = controller.run_epoch()
        assert report.backups_armed > 0
        assert report.backup_plan_ms > 0.0
        assert report.reroute_swaps == 0
        assert report.recovery_ms == 0.0

    def test_outage_epoch_reports_swap(self):
        controller = EpochController(
            PARAMS,
            SolsticeScheduler(),
            use_composite_paths=True,
            fast_reroute=True,
            fault_plan=FaultPlan(seed=11, o2m_outage_rate=1.0, m2o_outage_rate=1.0),
        )
        controller.offer(covering_demand())
        report, _ = controller.run_epoch()
        assert report.reroute_swaps >= 1

    def test_without_fast_reroute_reports_zero(self):
        controller = EpochController(
            PARAMS, SolsticeScheduler(), use_composite_paths=True
        )
        controller.offer(covering_demand())
        report, _ = controller.run_epoch()
        assert report.backups_armed == 0
        assert report.backup_plan_ms == 0.0


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


class TestFaultFreeBitIdentityFuzz:
    @given(demand=fuzz_demands())
    @settings(max_examples=25, deadline=None)
    def test_armed_backups_never_change_a_clean_run(self, demand):
        params = fast_ocs_params(8)
        scheduler = CpSwitchScheduler(SolsticeScheduler())
        cp_schedule = scheduler.schedule(demand, params)
        backups = BackupPlanner(scheduler).plan(demand, cp_schedule, params)
        plain = simulate_cp(demand, cp_schedule, params)
        armed = simulate_cp(
            demand, cp_schedule, params, faults=FaultPlan(), backups=backups
        )
        np.testing.assert_array_equal(plain.finish_times, armed.finish_times)
        assert plain.served_eps == armed.served_eps
        assert plain.served_composite == armed.served_composite
        assert plain.stranded_volume == armed.stranded_volume
