"""Tests for the §4 k-composite-paths extension."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.multipath import (
    NO_PATH,
    MultiPathCpSchedule,
    MultiPathCpScheduler,
    MultiPathScheduleEntry,
    divide_by_type_multipath,
    multi_path_reduction,
)
from repro.core.reduction import cp_switch_demand_reduction, qualifying_lines
from repro.core.scheduler import CompositeScheduleEntry, CpSchedule
from repro.hybrid.schedule import Schedule
from repro.hybrid.solstice import SolsticeScheduler
from repro.switch.params import fast_ocs_params


@st.composite
def small_demands(draw):
    """A random sparse demand at radix 3-8, entries up to 3 Mb."""
    n = draw(st.integers(3, 8))
    values = draw(arrays(np.float64, (n, n), elements=st.floats(0.01, 3.0)))
    present = draw(arrays(np.bool_, (n, n)))
    return values * present


class TestMultiPathReduction:
    @given(
        demand=small_demands(),
        rt=st.integers(1, 3),
        bt=st.floats(0.5, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_k1_filters_like_algorithm_1(self, demand, rt, bt):
        # What k = 1 shares with Algorithm 1: the same filtered entries,
        # and the same path for every entry whose row or column alone
        # qualifies.  An entry whose row and column both qualify may go
        # the other way: the k-path greedy scans entries in row-major
        # order, while Algorithm 1 books the single-side entries first.
        base = cp_switch_demand_reduction(demand, rt, bt)
        multi = multi_path_reduction(demand, 1, rt, bt)
        np.testing.assert_array_equal(multi.filtered, base.filtered)
        _, row_qualifies, col_qualifies = qualifying_lines(demand, rt, bt)
        single = (base.filtered > 0) & (row_qualifies[:, None] != col_qualifies[None, :])
        np.testing.assert_array_equal(
            (multi.o2m_path != NO_PATH)[single], base.o2m_assignment[single]
        )
        np.testing.assert_array_equal(
            (multi.m2o_path != NO_PATH)[single], base.m2o_assignment[single]
        )

    def test_k1_reduction_matches_base_on_sparse_fixture(self, sparse_demand):
        # Only on this fixture; test_k1_filters_like_algorithm_1 states
        # what holds in general.
        base = cp_switch_demand_reduction(sparse_demand, 3, 2.0)
        multi = multi_path_reduction(sparse_demand, 1, 3, 2.0)
        np.testing.assert_allclose(multi.reduced, base.reduced)
        np.testing.assert_allclose(multi.filtered, base.filtered)
        np.testing.assert_array_equal(multi.o2m_path != NO_PATH, base.o2m_assignment)
        np.testing.assert_array_equal(multi.m2o_path != NO_PATH, base.m2o_assignment)

    def test_volume_conserved(self, sparse_demand):
        multi = multi_path_reduction(sparse_demand, 3, 3, 2.0)
        assert multi.reduced.sum() == pytest.approx(sparse_demand.sum())

    def test_matrix_shape(self, sparse_demand):
        multi = multi_path_reduction(sparse_demand, 3, 3, 2.0)
        assert multi.reduced.shape == (11, 11)
        # Composite endpoints never talk to each other.
        assert multi.reduced[8:, 8:].sum() == 0.0

    def test_sender_is_sticky_to_one_path(self):
        demand = np.zeros((8, 8))
        demand[0, 1:8] = 1.0
        multi = multi_path_reduction(demand, 3, 4, 2.0)
        paths = multi.o2m_path[0, 1:8]
        assert (paths == paths[0]).all()
        assert paths[0] != NO_PATH

    def test_two_senders_spread_across_paths(self):
        demand = np.zeros((8, 8))
        demand[0, 1:8] = 1.0
        demand[1, np.r_[0, 2:8]] = 1.0
        multi = multi_path_reduction(demand, 2, 4, 2.0)
        path0 = multi.o2m_path[0, 1]
        path1 = multi.o2m_path[1, 0]
        assert path0 != path1

    def test_path_loads_reflect_assignments(self):
        rng = np.random.default_rng(1)
        demand = rng.uniform(0, 2, (10, 10)) * (rng.random((10, 10)) < 0.7)
        multi = multi_path_reduction(demand, 2, 4, 3.0)
        n = 10
        for p in range(2):
            expected = demand[multi.o2m_path == p].sum()
            assert multi.reduced[:n, n + p].sum() == pytest.approx(expected)
            expected = demand[multi.m2o_path == p].sum()
            assert multi.reduced[n + p, :n].sum() == pytest.approx(expected)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            multi_path_reduction(np.zeros((4, 4)), 0, 2, 1.0)


class TestDivideByTypeMultipath:
    def test_extracts_multiple_grants(self):
        n, k = 4, 2
        matching = np.full(n + k, -1)
        matching[0] = n  # sender 0 on o2m path 0
        matching[1] = n + 1  # sender 1 on o2m path 1
        matching[n] = 2  # receiver 2 on m2o path 0
        matching[2] = 3  # a regular circuit
        regular, o2m, m2o = divide_by_type_multipath(matching, n)
        assert o2m == {0: 0, 1: 1}
        assert m2o == {0: 2}
        np.testing.assert_array_equal(regular, [-1, -1, 3, -1])

    def test_path_to_path_matches_ignored(self):
        n, k = 3, 2
        matching = np.full(n + k, -1)
        matching[n] = n + 1
        regular, o2m, m2o = divide_by_type_multipath(matching, n)
        assert o2m == {}
        assert m2o == {}
        np.testing.assert_array_equal(regular, [-1, -1, -1])

    def test_rejects_undersized_permutation(self):
        with pytest.raises(ValueError):
            divide_by_type_multipath(np.full(3, -1), 3)


#: The two cp entry types, each built from its shared fields.
ENTRY_TYPES = {
    "base": lambda **fields: CompositeScheduleEntry(**fields),
    "k-path": lambda **fields: MultiPathScheduleEntry(
        **fields, o2m_grants={}, m2o_grants={}
    ),
}


class TestEntryRejection:
    """The k-path entry and schedule go through the base types' checks."""

    @pytest.mark.parametrize("kind", sorted(ENTRY_TYPES))
    @pytest.mark.parametrize("duration", [-0.1, float("nan"), float("inf")])
    def test_bad_duration_rejected(self, kind, duration):
        with pytest.raises(ValueError, match="duration"):
            ENTRY_TYPES[kind](
                matching=np.full(3, -1),
                duration=duration,
                composite_served=np.zeros((3, 3)),
            )

    @pytest.mark.parametrize("kind", sorted(ENTRY_TYPES))
    @pytest.mark.parametrize("shape", [(3, 4), (4, 4), (3,), (9,)])
    def test_composite_served_of_wrong_shape_rejected(self, kind, shape):
        with pytest.raises(ValueError, match="composite_served"):
            ENTRY_TYPES[kind](
                matching=np.full(3, -1), duration=1.0, composite_served=np.zeros(shape)
            )

    @pytest.mark.parametrize("schedule_type", [CpSchedule, MultiPathCpSchedule])
    def test_negative_reconfig_delay_rejected(self, schedule_type, sparse_demand):
        reduction = multi_path_reduction(sparse_demand, 2, 3, 2.0)
        with pytest.raises(ValueError, match="reconfig_delay"):
            schedule_type(
                entries=(),
                reconfig_delay=-0.01,
                reduction=reduction,
                filtered_residual=np.zeros((8, 8)),
                reduced_schedule=Schedule(entries=(), reconfig_delay=0.01),
            )


class TestMultiPathScheduler:
    def test_name_encodes_k(self):
        scheduler = MultiPathCpScheduler(SolsticeScheduler(), n_paths=3)
        assert scheduler.name == "cp3-solstice"

    def test_composite_served_conserves_volume(self, skewed_demand16):
        params = fast_ocs_params(16)
        scheduler = MultiPathCpScheduler(SolsticeScheduler(), n_paths=2)
        schedule = scheduler.schedule(skewed_demand16, params)
        served = schedule.composite_volume_served
        expected = schedule.reduction.filtered.sum() - schedule.filtered_residual.sum()
        assert served == pytest.approx(expected)

    def test_radix_mismatch_rejected(self):
        scheduler = MultiPathCpScheduler(SolsticeScheduler(), n_paths=2)
        with pytest.raises(ValueError):
            scheduler.schedule(np.zeros((4, 4)), fast_ocs_params(8))

    def test_lanes_partition_service(self, skewed_demand16):
        # Each served entry must have been served through its own lane.
        params = fast_ocs_params(16)
        scheduler = MultiPathCpScheduler(SolsticeScheduler(), n_paths=2)
        schedule = scheduler.schedule(skewed_demand16, params)
        reduction = schedule.reduction
        for entry in schedule.entries:
            served = entry.composite_served > 0
            rows, cols = np.nonzero(served)
            for i, j in zip(rows, cols):
                on_o2m = reduction.o2m_path[i, j] in entry.o2m_grants and entry.o2m_grants.get(
                    int(reduction.o2m_path[i, j])
                ) == i
                on_m2o = reduction.m2o_path[i, j] in entry.m2o_grants and entry.m2o_grants.get(
                    int(reduction.m2o_path[i, j])
                ) == j
                assert on_o2m or on_m2o


class TestMultiPathImmutability:
    def test_reduction_arrays_read_only(self, sparse_demand):
        multi = multi_path_reduction(sparse_demand, 3, 3, 2.0)
        for name in ("reduced", "filtered", "o2m_path", "m2o_path"):
            with pytest.raises(ValueError):
                getattr(multi, name)[0, 0] = 1

    def test_schedule_residual_read_only(self, skewed_demand16):
        params = fast_ocs_params(16)
        scheduler = MultiPathCpScheduler(SolsticeScheduler(), n_paths=2)
        schedule = scheduler.schedule(skewed_demand16, params)
        with pytest.raises(ValueError):
            schedule.filtered_residual[0, 0] = 1.0

    def test_entry_arrays_read_only(self, skewed_demand16):
        params = fast_ocs_params(16)
        scheduler = MultiPathCpScheduler(SolsticeScheduler(), n_paths=2)
        schedule = scheduler.schedule(skewed_demand16, params)
        assert schedule.composite_volume_served > 0
        for entry in schedule.entries:
            with pytest.raises(ValueError):
                entry.composite_served[0, 0] = 1.0
            with pytest.raises(ValueError):
                entry.matching[0] = -1

    @pytest.mark.parametrize("kind", sorted(ENTRY_TYPES))
    def test_built_entry_freezes_composite_served(self, kind):
        served = np.zeros((3, 3))
        entry = ENTRY_TYPES[kind](
            matching=np.full(3, -1), duration=1.0, composite_served=served
        )
        with pytest.raises(ValueError):
            entry.composite_served[0, 0] = 1.0
