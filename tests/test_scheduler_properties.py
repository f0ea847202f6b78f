"""Deeper scheduler behaviour tests: Solstice and Eclipse against their
papers' stated properties, plus cp-Switch scheduling invariants that the
unit tests do not reach."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.eclipse import EclipseScheduler
from repro.hybrid.eclipse.durations import candidate_durations
from repro.hybrid.solstice import SolsticeScheduler, quick_stuff
from repro.matching.max_weight import max_weight_matching
from repro.switch.params import SwitchParams, fast_ocs_params, slow_ocs_params
from repro.utils.validation import VOLUME_TOL


class TestSolsticeAgainstPaperProperties:
    """Properties the Solstice paper states or implies."""

    def test_slices_have_nonincreasing_thresholds_tendency(self, sparse_demand):
        # BigSlice extracts the largest feasible threshold each round; with
        # the quantized probe the sequence is near-monotone.  Check the
        # first slice is the largest.
        params = fast_ocs_params(8)
        schedule = SolsticeScheduler().schedule(sparse_demand, params)
        durations = [entry.duration for entry in schedule]
        if len(durations) >= 2:
            assert durations[0] >= max(durations) * (1 - 1e-9)

    def test_circuit_coverage_dominates_eps_leftover(self, sparse_demand):
        # Solstice's goal: circuits take the bulk, the EPS mops up.
        params = fast_ocs_params(8)
        schedule = SolsticeScheduler().schedule(sparse_demand, params)
        covered = schedule.served_volume(sparse_demand, params.ocs_rate)
        assert covered >= 0.5 * sparse_demand.sum()

    def test_sparser_matrix_needs_fewer_slices(self):
        # "Both Solstice and Eclipse perform better when the demand matrix
        # is more sparse" (§3.3).
        params = fast_ocs_params(16)
        rng = np.random.default_rng(0)
        dense = rng.uniform(1, 3, (16, 16)) * (rng.random((16, 16)) < 0.8)
        sparse = dense * (rng.random((16, 16)) < 0.3)
        n_dense = SolsticeScheduler().schedule(dense, params).n_configs
        n_sparse = SolsticeScheduler().schedule(sparse, params).n_configs
        assert n_sparse <= n_dense

    def test_scale_invariance_of_structure(self):
        # Scaling all demands by c scales durations by c but preserves the
        # permutation sequence.
        params = fast_ocs_params(8)
        rng = np.random.default_rng(1)
        demand = rng.uniform(1, 4, (8, 8)) * (rng.random((8, 8)) < 0.4)
        base = SolsticeScheduler().schedule(demand, params)
        # Scale by 10 and widen the stopping horizon identically by scaling
        # nothing else; structure of early slices must match.
        scaled = SolsticeScheduler().schedule(10 * demand, params)
        for a, b in zip(base, scaled):
            np.testing.assert_array_equal(a.matching, b.matching)
            assert b.duration == pytest.approx(10 * a.duration)
            break  # the first slice is structure-deterministic

    def test_stuffing_overhead_bounded_for_balanced_demand(self):
        # A permutation-like demand is already balanced: no stuffing needed.
        demand = np.zeros((6, 6))
        for i in range(6):
            demand[i, (i + 1) % 6] = 7.0
        stuffed = quick_stuff(demand)
        np.testing.assert_allclose(stuffed, demand)


class TestEclipseAgainstPaperProperties:
    """Properties from the Eclipse paper's greedy formulation."""

    def test_greedy_step_matches_exhaustive_on_tiny_instance(self):
        # For a 3x3 demand and the full candidate grid, the first greedy
        # pick must maximize value/(alpha+delta) over (alpha, matching).
        params = SwitchParams(n_ports=3, eps_rate=10.0, ocs_rate=100.0, reconfig_delay=0.02)
        demand = np.array(
            [
                [0.0, 30.0, 2.0],
                [5.0, 0.0, 40.0],
                [20.0, 1.0, 0.0],
            ]
        )
        scheduler = EclipseScheduler(window=1.0, grid_size=64)
        schedule = scheduler.schedule(demand, params)
        first = schedule[0]
        got_rate = None
        best_rate = 0.0
        for alpha in candidate_durations(demand, 100.0, 1.0 - 0.02, grid_size=64):
            weights = np.minimum(demand, alpha * 100.0)
            for perm in itertools.permutations(range(3)):
                value = sum(weights[i, perm[i]] for i in range(3))
                rate = value / (alpha + 0.02)
                best_rate = max(best_rate, rate)
                rows = np.flatnonzero(first.matching >= 0)
                cols = first.matching[rows]
                if abs(alpha - first.duration) < 1e-12 and all(
                    perm[i] == j for i, j in zip(rows, cols)
                ):
                    got_rate = max(got_rate or 0.0, rate)
        assert got_rate == pytest.approx(best_rate, rel=1e-9)

    def test_marginal_value_decreases(self, sparse_demand):
        # Submodularity: each greedy step serves no more volume per unit
        # time than the previous one.
        params = fast_ocs_params(8)
        scheduler = EclipseScheduler(window=1.0)
        schedule = scheduler.schedule(sparse_demand, params)
        residual = sparse_demand.copy()
        rates = []
        for entry in schedule:
            rows = np.flatnonzero(entry.matching >= 0)
            cols = entry.matching[rows]
            served = np.minimum(
                residual[rows, cols], entry.duration * params.ocs_rate
            ).sum()
            rates.append(served / (entry.duration + params.reconfig_delay))
            capacity = entry.duration * params.ocs_rate
            residual[rows, cols] = np.maximum(residual[rows, cols] - capacity, 0.0)
        for before, after in zip(rates, rates[1:]):
            assert after <= before * (1 + 1e-6)

    def test_window_scales_served_volume(self, sparse_demand):
        params = slow_ocs_params(8)
        demand = sparse_demand * 100
        half = EclipseScheduler(window=50.0).schedule(demand, params)
        full = EclipseScheduler(window=100.0).schedule(demand, params)
        assert full.served_volume(demand, params.ocs_rate) >= half.served_volume(
            demand, params.ocs_rate
        ) - 1e-9

    def test_never_exceeds_window(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            demand = rng.uniform(0, 50, (10, 10)) * (rng.random((10, 10)) < 0.5)
            params = fast_ocs_params(10)
            scheduler = EclipseScheduler()
            schedule = scheduler.schedule(demand, params)
            assert schedule.makespan <= scheduler.resolved_window(params) + 1e-9


class TestCpSchedulerInvariants:
    def test_composite_grants_only_where_reduced_entry_positive(self, skewed_demand16):
        # A grant in the permutation must correspond to actual reduced
        # demand (Eclipse prunes empty circuits; Solstice may stuff, in
        # which case CPSched no-ops — but the *served* volume must be
        # positive only when filtered demand existed).
        params = fast_ocs_params(16)
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(
            skewed_demand16, params
        )
        filtered = cp_schedule.reduction.filtered
        for entry in cp_schedule:
            on_line = np.zeros(filtered.shape, dtype=bool)
            on_line[list(entry.o2m_ports), :] = True
            on_line[:, list(entry.m2o_ports)] = True
            assert entry.composite_volume <= filtered[on_line].sum() + VOLUME_TOL

    def test_regular_circuits_never_touch_filtered_entries(self, skewed_demand16):
        # Filtered demand rides composite paths; the regular permutation
        # may still pass through those (stuffed) cells, but the reduced
        # matrix holds no real demand there — verify the reduced block.
        params = fast_ocs_params(16)
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(
            skewed_demand16, params
        )
        reduced_block = cp_schedule.reduction.reduced[:16, :16]
        filtered = cp_schedule.reduction.filtered
        assert np.all(reduced_block[filtered > 0] <= VOLUME_TOL)

    def test_cp_of_cpfree_demand_equals_h_makespan(self):
        # Demand with no filterable structure: identical schedules.
        params = fast_ocs_params(8)
        rng = np.random.default_rng(3)
        demand = np.diag(rng.uniform(10, 30, 8))
        np.fill_diagonal(demand, rng.uniform(10, 30, 8))
        h_schedule = SolsticeScheduler().schedule(demand, params)
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(demand, params)
        assert cp_schedule.makespan == pytest.approx(h_schedule.makespan)

    def test_duration_preserved_through_interpretation(self, skewed_demand16):
        # Algorithm 4 must not alter the sub-scheduler's durations.
        params = fast_ocs_params(16)
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(
            skewed_demand16, params
        )
        for cp_entry, raw_entry in zip(cp_schedule, cp_schedule.reduced_schedule):
            assert cp_entry.duration == pytest.approx(raw_entry.duration)

    def test_works_at_minimum_radix(self):
        params = SwitchParams(n_ports=2)
        demand = np.array([[0.0, 3.0], [2.0, 0.0]])
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(demand, params)
        assert cp_schedule.n_configs >= 1
