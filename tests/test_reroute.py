"""Tests for fast-reroute: precomputed backup schedules (repro.faults.reroute).

The load-bearing invariants:

* a mid-epoch composite-port outage with backups armed swaps at the current
  phase boundary — under **every** scheduler/kernel backend combination,
  and with two composite paths per direction, where the swap re-parks
  demand only onto lines that surviving grants serve;
* the conservation ledger balances through a swap (volume is re-parked,
  never lost);
* fast-reroute strands no more volume than degrade-to-EPS, and strictly
  less on a workload whose surviving grants cover the orphaned demand;
* a run in which no fault fires is bit-identical with backups armed
  (hypothesis-fuzzed) — arming the repair machinery costs nothing;
* a repair derived from the primary's reduction equals Algorithm 1 re-run
  with the dead port blocked (hypothesis-fuzzed against that re-run).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.controller import EpochController
from repro.analysis.robustness import outage_plan, reroute_rate_trial, reroute_trial
from repro.core.config import FilterConfig
from repro.core.reduction import reduce_with_config
from repro.core.scheduler import CpSwitchScheduler
from repro.faults import FaultPlan
from repro.faults.reroute import (
    FALLBACK_KEY,
    BackupPlanner,
    BackupSet,
    RerouteOutcome,
    SwapEvent,
    backup_key,
)
from repro.hybrid.base import make_scheduler as make_inner
from repro.hybrid.eclipse import EclipseScheduler
from repro.hybrid.solstice import SolsticeScheduler
from repro.matching import kernels
from repro.sim import simulate_cp
from repro.sim.engine import FluidEngine
from repro.switch.params import fast_ocs_params, ocs_params
from repro.utils.validation import VOLUME_TOL
from repro.workloads.base import volume_scale_for

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


class TestBackupSetSelect:
    def _set(self):
        return BackupSet(
            armed=(("m2o", 4), ("o2m", 1)),
            filtered=np.zeros((10, 10)),
            row_qualifies=np.zeros(10, dtype=bool),
            col_qualifies=np.zeros(10, dtype=bool),
            base_blocked_o2m={7},
        )

    def test_single_new_death_selects_per_port(self):
        backups = self._set()
        assert backups.select(set(), {4}) == "m2o:4"
        assert backups.select({1}, set()) == "o2m:1"

    def test_multiple_deaths_select_fallback(self):
        backups = self._set()
        assert backups.select({1}, {4}) == FALLBACK_KEY

    def test_unplanned_death_selects_fallback(self):
        backups = self._set()
        assert backups.select(set(), {9}) == FALLBACK_KEY

    def test_base_blocked_ports_are_not_events(self):
        backups = self._set()
        # o2m:7 was dead at plan time; only m2o:4 is a *new* death.
        assert backups.select({7}, {4}) == "m2o:4"

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


COVER_ALL = np.ones((N, N), dtype=bool)


class TestBackupPlanner:
    def test_one_backup_per_granted_port(self):
        _, cp_schedule, _, backups = plan_backups()
        granted = set()
        for entry in cp_schedule.entries:
            granted |= {("o2m", port) for port in entry.o2m_ports}
            granted |= {("m2o", port) for port in entry.m2o_ports}
        assert set(backups.armed) == granted
        assert backups.n_armed == len(granted)
        assert granted, "covering workload must grant composite paths"

    def test_backup_blocks_its_failure_class(self):
        # The dead port's line keeps only entries the crossing line still
        # qualifies for, as if Algorithm 1 had run with the port blocked.
        _, _, _, backups = plan_backups()
        for kind, port in backups.armed:
            repair = backups.repair(backup_key(kind, port), COVER_ALL)
            if kind == "o2m":
                assert repair[port, ~backups.col_qualifies].sum() == 0.0
            else:
                assert repair[~backups.row_qualifies, port].sum() == 0.0

    def test_parkable_masked_to_surviving_grants(self):
        _, cp_schedule, _, backups = plan_backups()
        for kind, port in backups.armed:
            rows = np.zeros(N, dtype=bool)
            cols = np.zeros(N, dtype=bool)
            for entry in cp_schedule.entries:
                rows[[p for p in entry.o2m_ports if ("o2m", p) != (kind, port)]] = True
                cols[[p for p in entry.m2o_ports if ("m2o", p) != (kind, port)]] = True
            covered = rows[:, None] | cols[None, :]
            repair = backups.repair(backup_key(kind, port), covered)
            assert repair[~covered].sum() == 0.0

    def test_fallback_parks_nothing(self):
        _, _, _, backups = plan_backups()
        assert backups.repair(FALLBACK_KEY, COVER_ALL).sum() == 0.0

    def test_planning_is_deterministic(self):
        _, _, _, a = plan_backups()
        _, _, _, b = plan_backups()
        assert a.armed == b.armed
        for kind, port in a.armed:
            key = backup_key(kind, port)
            np.testing.assert_array_equal(
                a.repair(key, COVER_ALL), b.repair(key, COVER_ALL)
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
        assert not backups.col_qualifies[4]


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
            kind, port = sorted(backups.armed)[-1]
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
        kill = next(key for key in sorted(backups.armed) if key[0] == "m2o")
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
        kill = next(key for key in sorted(backups.armed) if key[0] == "m2o")
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
        # The swap lands at the current phase boundary: strictly under one
        # phase (delta plus the longest hold).
        assert 0.0 <= outcome.recovery_ms < max_phase

    def test_unplanned_port_kill_is_invisible(self):
        # A port the schedule never grants cannot strand anything: the
        # injector never discovers it dead, no swap fires, and the two
        # arms agree exactly.
        demand, cp_schedule, _, backups = plan_backups()
        dead = next(
            ("m2o", p) for p in range(N) if ("m2o", p) not in backups.armed
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
        m2o_ports = sorted(p for k, p in backups.armed if k == "m2o")
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


    def test_k_path_swap_reparks_only_onto_surviving_grants(self):
        # Two paths per direction: the first configuration grants two
        # senders and two receivers.  One granted sender dies; the swap
        # re-parks its orphans only on lines a surviving grant serves.
        demand = covering_demand()
        scheduler = CpSwitchScheduler(SolsticeScheduler(), n_paths=2, filter_config=FILTER)
        cp_schedule = scheduler.schedule(demand, PARAMS)
        first = cp_schedule.entries[0]
        assert len(first.o2m_ports) == 2 and len(first.m2o_ports) == 2
        backups = BackupPlanner(scheduler).plan(demand, cp_schedule, PARAMS)
        assert set(backups.armed) == set(cp_schedule.granted_ports)
        dead = first.o2m_ports[0]
        reparked = []
        real_repark = FluidEngine.repark_composite

        def spy(engine, filtered):
            reparked.append(np.array(filtered))
            return real_repark(engine, filtered)

        horizon = cp_schedule.makespan
        with mock.patch.object(FluidEngine, "repark_composite", spy):
            reroute = simulate_cp(
                demand,
                cp_schedule,
                PARAMS,
                horizon=horizon,
                faults=killer("o2m", dead),
                backups=backups,
            )
        degrade = simulate_cp(
            demand, cp_schedule, PARAMS, horizon=horizon, faults=killer("o2m", dead)
        )
        reroute.check_conservation()
        degrade.check_conservation()
        assert reroute.reroute.n_swaps == 1
        assert reroute.reroute.swaps[0].key == backup_key("o2m", dead)
        assert reroute.reroute.reparked_mb > 0.0
        assert reroute.stranded_volume < degrade.stranded_volume - 1e-9
        rows = np.zeros(N, dtype=bool)
        cols = np.zeros(N, dtype=bool)
        for kind, port in cp_schedule.granted_ports:
            if (kind, port) != ("o2m", dead):
                (rows if kind == "o2m" else cols)[port] = True
        covered = rows[:, None] | cols[None, :]
        (parked,) = reparked
        assert parked.sum() > 0.0
        assert not parked[~covered].any()


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


def line_demand(n: int, params, rng) -> np.ndarray:
    """Rows and columns of mixed density, so some qualify and some do not.

    Small entries stay at or under the OCS class's ``Bt``; a few elephants
    above it keep regular circuits in the schedule.
    """
    scale = volume_scale_for(params)
    row_density = rng.choice([0.3, 0.75, 0.95], n)
    col_density = rng.choice([0.3, 0.75, 0.95], n)
    small = rng.random((n, n)) < np.sqrt(row_density[:, None] * col_density[None, :])
    demand = np.where(small, rng.uniform(0.01, 2.0, (n, n)) * scale, 0.0)
    demand += np.where(rng.random((n, n)) < 0.05, rng.uniform(5.0, 40.0) * scale, 0.0)
    np.fill_diagonal(demand, 0.0)
    return demand


def coverage(n: int, grants) -> np.ndarray:
    """Entries the composite service of ``grants`` reaches."""
    rows = np.zeros(n, dtype=bool)
    cols = np.zeros(n, dtype=bool)
    for kind, port in grants:
        (rows if kind == "o2m" else cols)[port] = True
    return rows[:, None] | cols[None, :]


class TestRepairMatchesReReduction:
    """The repair derived at swap time equals Algorithm 1 re-run with the
    dead port also blocked, masked to entries the primary parked and a
    surviving grant covers."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 32),
        ocs=st.sampled_from(["fast", "slow"]),
        inner=st.sampled_from(["solstice", "eclipse"]),
        dead=st.tuples(
            st.sets(st.integers(0, 7), max_size=2),
            st.sets(st.integers(0, 7), max_size=2),
        ),
        subset_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_repair_equals_blocked_re_reduction(
        self, seed, n, ocs, inner, dead, subset_seed
    ):
        params = ocs_params(ocs, n)
        demand = line_demand(n, params, np.random.default_rng(seed))
        base_o2m, base_m2o = dead
        scheduler = CpSwitchScheduler(make_inner(inner))
        primary = scheduler.schedule(
            demand,
            params,
            blocked_o2m=base_o2m or None,
            blocked_m2o=base_m2o or None,
        )
        backups = BackupPlanner(scheduler).plan(
            demand, primary, params, blocked_o2m=base_o2m, blocked_m2o=base_m2o
        )
        parked = primary.reduction.filtered > VOLUME_TOL
        pick = np.random.default_rng(subset_seed)
        for kind, port in backups.armed:
            dead_o2m = base_o2m | ({port} if kind == "o2m" else set())
            dead_m2o = base_m2o | ({port} if kind == "m2o" else set())
            key = backups.select(dead_o2m, dead_m2o)
            if port in (base_o2m if kind == "o2m" else base_m2o):
                assert key == FALLBACK_KEY  # not a new death
                continue
            assert key == backup_key(kind, port)
            re_reduced = reduce_with_config(
                demand,
                params,
                scheduler.filter_config,
                blocked_o2m=dead_o2m,
                blocked_m2o=dead_m2o,
            ).filtered
            surviving = [g for g in backups.armed if g != (kind, port)]
            subsets = [surviving, [], *([g] for g in surviving)]
            subsets.append([g for g in surviving if pick.random() < 0.5])
            for grants in subsets:
                covered = coverage(n, grants)
                expected = np.where(covered & parked, re_reduced, 0.0)
                np.testing.assert_array_equal(backups.repair(key, covered), expected)
