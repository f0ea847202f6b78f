"""Tests for the §4 extension: k composite paths per direction.

There is one cp-Switch pipeline; ``n_paths`` only widens it.  Algorithm 1's
split does not depend on k, each port with a composite aggregate sits on
one path per direction, a grant serves its port's whole filtered line, and
k = 1 is Algorithm 4.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.divide import divide_by_type
from repro.core.reduction import cp_switch_demand_reduction
from repro.core.scheduler import CompositeScheduleEntry, CpSchedule, CpSwitchScheduler
from repro.hybrid.schedule import Schedule
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim.reference import reference_cp_switch_demand_reduction
from repro.switch.params import fast_ocs_params


@st.composite
def small_demands(draw):
    """A random sparse demand at radix 3-8, entries up to 3 Mb."""
    n = draw(st.integers(3, 8))
    values = draw(arrays(np.float64, (n, n), elements=st.floats(0.01, 3.0)))
    present = draw(arrays(np.bool_, (n, n)))
    return values * present


def paths_of(reduction) -> "tuple[np.ndarray, np.ndarray]":
    """Each sender's one-to-many and each receiver's many-to-one path,
    read off ``DI`` (-1 for a port with no aggregate)."""
    n = reduction.n_ports
    o2m = reduction.reduced[:n, n:] > 0.0
    m2o = reduction.reduced[n:, :n] > 0.0
    return (
        np.where(o2m.any(axis=1), o2m.argmax(axis=1), -1),
        np.where(m2o.any(axis=0), m2o.argmax(axis=0), -1),
    )


class TestMultiPathReduction:
    @given(
        demand=small_demands(),
        rt=st.integers(1, 3),
        bt=st.floats(0.5, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_k1_filters_like_algorithm_1(self, demand, rt, bt):
        # k = 1 is the frozen seed Algorithm 1, bit for bit.
        reduction = cp_switch_demand_reduction(demand, rt, bt, n_paths=1)
        seed = reference_cp_switch_demand_reduction(demand, rt, bt)
        assert reduction.reduced.tobytes() == seed.reduced.tobytes()
        assert reduction.filtered.tobytes() == seed.filtered.tobytes()

    @given(
        demand=small_demands(),
        rt=st.integers(1, 3),
        bt=st.floats(0.5, 2.0),
        k=st.integers(1, 4),
        blocked=st.lists(st.integers(0, 2), max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_split_does_not_depend_on_k(self, demand, rt, bt, k, blocked):
        n = demand.shape[0]
        one = cp_switch_demand_reduction(demand, rt, bt, blocked_o2m=blocked)
        multi = cp_switch_demand_reduction(demand, rt, bt, blocked_o2m=blocked, n_paths=k)
        assert multi.reduced.shape == (n + k, n + k)
        # Algorithm 1's split, unchanged.
        assert multi.filtered.tobytes() == one.filtered.tobytes()
        assert multi.reduced[:n, :n].tobytes() == one.reduced[:n, :n].tobytes()
        # Each port sits on at most one path per direction, carrying its
        # whole aggregate; composite endpoints never talk to each other.
        assert ((multi.reduced[:n, n:] > 0).sum(axis=1) <= 1).all()
        assert ((multi.reduced[n:, :n] > 0).sum(axis=0) <= 1).all()
        assert multi.o2m_loads.tobytes() == one.o2m_loads.tobytes()
        assert multi.m2o_loads.tobytes() == one.m2o_loads.tobytes()
        assert not multi.reduced[n:, n:].any()
        # Volume is conserved.
        assert multi.reduced.sum() == pytest.approx(demand.sum(), rel=1e-12, abs=1e-12)

    def test_k1_reduction_matches_base_on_sparse_fixture(self, sparse_demand):
        base = cp_switch_demand_reduction(sparse_demand, 3, 2.0)
        multi = cp_switch_demand_reduction(sparse_demand, 3, 2.0, n_paths=1)
        assert multi.reduced.tobytes() == base.reduced.tobytes()
        assert multi.filtered.tobytes() == base.filtered.tobytes()

    def test_volume_conserved(self, sparse_demand):
        multi = cp_switch_demand_reduction(sparse_demand, 3, 2.0, n_paths=3)
        assert multi.reduced.sum() == pytest.approx(sparse_demand.sum())

    def test_matrix_shape(self, sparse_demand):
        multi = cp_switch_demand_reduction(sparse_demand, 3, 2.0, n_paths=3)
        assert multi.reduced.shape == (11, 11)
        # Composite endpoints never talk to each other.
        assert multi.reduced[8:, 8:].sum() == 0.0

    def test_sender_is_sticky_to_one_path(self):
        demand = np.zeros((8, 8))
        demand[0, 1:8] = 1.0
        multi = cp_switch_demand_reduction(demand, 4, 2.0, n_paths=3)
        np.testing.assert_array_equal(multi.reduced[0, 8:], [7.0, 0.0, 0.0])

    def test_two_senders_spread_across_paths(self):
        demand = np.zeros((8, 8))
        demand[0, 1:8] = 1.0
        demand[1, np.r_[0, 2:8]] = 1.0
        multi = cp_switch_demand_reduction(demand, 4, 2.0, n_paths=2)
        o2m, _ = paths_of(multi)
        assert o2m[0] != o2m[1]

    def test_ports_take_the_lightest_path_in_port_order(self):
        # Only rows 0-3 qualify (no column holds Rt = 3 small entries);
        # their aggregates are 5, 3, 4 and 1.  In port order each takes
        # the path with the least total so far, a tie going to the lowest.
        demand = np.zeros((8, 8))
        demand[0, 1:6] = 1.0
        demand[1, 5:8] = 1.0
        demand[2, 0:4] = 1.0
        demand[3, [0, 6, 7]] = 0.25
        for k, expected in ((1, [0, 0, 0, 0]), (2, [0, 1, 1, 0]), (3, [0, 1, 2, 1])):
            o2m, _ = paths_of(cp_switch_demand_reduction(demand, 3, 2.0, n_paths=k))
            np.testing.assert_array_equal(o2m, expected + [-1] * 4)
            # Receivers follow the same rule.
            _, m2o = paths_of(cp_switch_demand_reduction(demand.T, 3, 2.0, n_paths=k))
            np.testing.assert_array_equal(m2o, expected + [-1] * 4)

    def test_path_loads_reflect_assignments(self):
        # A path carries the whole one-path aggregates of the ports on it.
        rng = np.random.default_rng(1)
        demand = rng.uniform(0, 2, (10, 10)) * (rng.random((10, 10)) < 0.7)
        one = cp_switch_demand_reduction(demand, 4, 3.0)
        multi = cp_switch_demand_reduction(demand, 4, 3.0, n_paths=2)
        n = 10
        o2m, m2o = paths_of(multi)
        for p in range(2):
            expected = one.reduced[:n, n][o2m == p].sum()
            assert multi.reduced[:n, n + p].sum() == pytest.approx(expected)
            expected = one.reduced[n, :n][m2o == p].sum()
            assert multi.reduced[n + p, :n].sum() == pytest.approx(expected)
        assert (o2m == 1).any() and (m2o == 1).any()

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="n_paths"):
            cp_switch_demand_reduction(np.zeros((4, 4)), 2, 1.0, n_paths=0)


class TestDivideByTypeMultipath:
    def test_extracts_multiple_grants(self):
        n, k = 4, 2
        matching = np.full(n + k, -1)
        matching[0] = n + 1  # sender 0 on o2m path 1
        matching[1] = n  # sender 1 on o2m path 0
        matching[n] = 2  # receiver 2 on m2o path 0
        matching[2] = 3  # a regular circuit
        regular, o2m, m2o = divide_by_type(matching, n)
        assert o2m == (1, 0)  # in path order
        assert m2o == (2,)
        np.testing.assert_array_equal(regular, [-1, -1, 3, -1])

    def test_path_to_path_matches_ignored(self):
        n, k = 3, 2
        matching = np.full(n + k, -1)
        matching[n] = n + 1
        regular, o2m, m2o = divide_by_type(matching, n)
        assert o2m == ()
        assert m2o == ()
        np.testing.assert_array_equal(regular, [-1, -1, -1])

    def test_rejects_undersized_permutation(self):
        with pytest.raises(ValueError):
            divide_by_type(np.full(3, -1), 3)


#: The cp entry without grants, and with two senders and a receiver granted.
ENTRY_TYPES = {
    "base": lambda **fields: CompositeScheduleEntry(**fields),
    "k-path": lambda **fields: CompositeScheduleEntry(
        **fields, o2m_ports=(0, 1), m2o_ports=(2,)
    ),
}


class TestEntryRejection:
    """An entry with k grants goes through the same checks."""

    @pytest.mark.parametrize("kind", sorted(ENTRY_TYPES))
    @pytest.mark.parametrize("duration", [-0.1, float("nan"), float("inf")])
    def test_bad_duration_rejected(self, kind, duration):
        with pytest.raises(ValueError, match="duration"):
            ENTRY_TYPES[kind](matching=np.full(3, -1), duration=duration)

    @pytest.mark.parametrize("kind", sorted(ENTRY_TYPES))
    @pytest.mark.parametrize("volume", [-1e-9, float("nan"), float("inf")])
    def test_bad_composite_volume_rejected(self, kind, volume):
        with pytest.raises(ValueError, match="composite_volume"):
            ENTRY_TYPES[kind](
                matching=np.full(3, -1), duration=1.0, composite_volume=volume
            )

    @pytest.mark.parametrize(
        "n_paths", [1, 2], ids=["CpSchedule", "MultiPathCpSchedule"]
    )
    def test_negative_reconfig_delay_rejected(self, n_paths, sparse_demand):
        # One CpSchedule type carries one composite path or k of them.
        reduction = cp_switch_demand_reduction(sparse_demand, 3, 2.0, n_paths=n_paths)
        with pytest.raises(ValueError, match="reconfig_delay"):
            CpSchedule(
                entries=(),
                reconfig_delay=-0.01,
                reduction=reduction,
                filtered_residual=np.zeros((8, 8)),
                reduced_schedule=Schedule(entries=(), reconfig_delay=0.01),
            )


class TestMultiPathScheduler:
    def test_name_encodes_k(self):
        assert CpSwitchScheduler(SolsticeScheduler(), n_paths=3).name == "cp3-solstice"
        assert CpSwitchScheduler(SolsticeScheduler()).name == "cp-solstice"

    def test_composite_served_conserves_volume(self, skewed_demand16):
        params = fast_ocs_params(16)
        scheduler = CpSwitchScheduler(SolsticeScheduler(), n_paths=2)
        schedule = scheduler.schedule(skewed_demand16, params)
        served = schedule.composite_volume_served
        expected = schedule.reduction.filtered.sum() - schedule.filtered_residual.sum()
        assert served == pytest.approx(expected)

    def test_radix_mismatch_rejected(self):
        scheduler = CpSwitchScheduler(SolsticeScheduler(), n_paths=2)
        with pytest.raises(ValueError):
            scheduler.schedule(np.zeros((4, 4)), fast_ocs_params(8))

    def test_grants_serve_their_whole_lines(self, skewed_demand16):
        # A grant serves its port's whole filtered row or column, and
        # nothing else: Df off every granted line is left as it was, and
        # an entry without grants serves nothing.
        params = fast_ocs_params(16)
        scheduler = CpSwitchScheduler(SolsticeScheduler(), n_paths=2)
        schedule = scheduler.schedule(skewed_demand16, params)
        on_line = np.zeros((16, 16), dtype=bool)
        for entry in schedule.entries:
            on_line[list(entry.o2m_ports), :] = True
            on_line[:, list(entry.m2o_ports)] = True
            if not (entry.o2m_ports or entry.m2o_ports):
                assert entry.composite_volume == 0.0
        assert on_line.any()
        filtered, residual = schedule.reduction.filtered, schedule.filtered_residual
        assert residual[~on_line].tobytes() == filtered[~on_line].tobytes()
        assert (residual[on_line] < filtered[on_line]).any()


class TestMultiPathImmutability:
    def test_reduction_arrays_read_only(self, sparse_demand):
        multi = cp_switch_demand_reduction(sparse_demand, 3, 2.0, n_paths=3)
        for name in ("reduced", "filtered"):
            with pytest.raises(ValueError):
                getattr(multi, name)[0, 0] = 1

    def test_schedule_residual_read_only(self, skewed_demand16):
        params = fast_ocs_params(16)
        scheduler = CpSwitchScheduler(SolsticeScheduler(), n_paths=2)
        schedule = scheduler.schedule(skewed_demand16, params)
        with pytest.raises(ValueError):
            schedule.filtered_residual[0, 0] = 1.0

    def test_entry_arrays_read_only(self, skewed_demand16):
        params = fast_ocs_params(16)
        scheduler = CpSwitchScheduler(SolsticeScheduler(), n_paths=2)
        schedule = scheduler.schedule(skewed_demand16, params)
        assert schedule.composite_volume_served > 0
        for entry in schedule.entries:
            with pytest.raises(ValueError):
                entry.matching[0] = -1

    @pytest.mark.parametrize("kind", sorted(ENTRY_TYPES))
    def test_built_entry_freezes_composite_volume(self, kind):
        entry = ENTRY_TYPES[kind](
            matching=np.full(3, -1), duration=1.0, composite_volume=2.5
        )
        with pytest.raises(FrozenInstanceError):
            entry.composite_volume = 1.0
        assert entry.composite_volume == 2.5
