"""Tests for the Schedule / ScheduleEntry containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hybrid.schedule import Schedule, ScheduleEntry
from repro.utils.validation import matching_from_permutation


def entry(pairs, n=4, duration=1.0) -> ScheduleEntry:
    matching = np.full(n, -1)
    for i, j in pairs:
        matching[i] = j
    return ScheduleEntry(matching=matching, duration=duration)


class TestScheduleEntry:
    def test_circuits_lists_pairs(self):
        e = entry([(0, 1), (2, 3)])
        assert e.circuits == [(0, 1), (2, 3)]
        assert e.size == 4

    def test_rejects_double_row(self):
        # A matching gives an input one output, so a row used twice is
        # caught where a matrix is converted, and an output used twice
        # where the entry is built.
        perm = np.zeros((3, 3), dtype=np.int8)
        perm[0, 0] = perm[0, 1] = 1
        with pytest.raises(ValueError):
            ScheduleEntry(matching=matching_from_permutation(perm), duration=1.0)
        with pytest.raises(ValueError, match="more than once"):
            ScheduleEntry(matching=np.array([0, 0, -1]), duration=1.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            entry([(0, 0)], duration=-0.1)

    def test_permutation_is_frozen(self):
        matching = np.array([0, -1, -1, -1])
        e = ScheduleEntry(matching=matching, duration=1.0)
        with pytest.raises(ValueError):
            e.matching[0] = 1
        matching[0] = 1  # the entry holds its own copy
        assert e.circuits == [(0, 0)]


class TestSchedule:
    def test_makespan_counts_delta_per_config(self):
        schedule = Schedule(
            entries=(entry([(0, 0)], duration=1.0), entry([(1, 1)], duration=2.0)),
            reconfig_delay=0.5,
        )
        assert schedule.circuit_time == pytest.approx(3.0)
        assert schedule.reconfig_time == pytest.approx(1.0)
        assert schedule.makespan == pytest.approx(4.0)
        assert schedule.n_configs == 2

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            Schedule(
                entries=(entry([(0, 0)], n=4), entry([(0, 0)], n=5)),
                reconfig_delay=0.1,
            )

    def test_served_volume_respects_capacity(self):
        demand = np.zeros((4, 4))
        demand[0, 1] = 500.0
        schedule = Schedule(entries=(entry([(0, 1)], duration=1.0),), reconfig_delay=0.0)
        # 1 ms at 100 Mb/ms serves only 100 of the 500 Mb.
        assert schedule.served_volume(demand, ocs_rate=100.0) == pytest.approx(100.0)

    def test_served_volume_caps_at_demand(self):
        demand = np.zeros((4, 4))
        demand[0, 1] = 30.0
        schedule = Schedule(entries=(entry([(0, 1)], duration=1.0),), reconfig_delay=0.0)
        assert schedule.served_volume(demand, ocs_rate=100.0) == pytest.approx(30.0)

    def test_served_volume_tracks_residual_across_entries(self):
        demand = np.zeros((4, 4))
        demand[0, 1] = 150.0
        schedule = Schedule(
            entries=(entry([(0, 1)], duration=1.0), entry([(0, 1)], duration=1.0)),
            reconfig_delay=0.0,
        )
        assert schedule.served_volume(demand, ocs_rate=100.0) == pytest.approx(150.0)

    def test_reordered(self):
        first, second = entry([(0, 0)], duration=1.0), entry([(1, 1)], duration=2.0)
        schedule = Schedule(entries=(first, second), reconfig_delay=0.1)
        flipped = schedule.reordered([1, 0])
        assert flipped[0] is second
        assert flipped.makespan == pytest.approx(schedule.makespan)

    def test_reordered_rejects_bad_order(self):
        schedule = Schedule(entries=(entry([(0, 0)]),), reconfig_delay=0.1)
        with pytest.raises(ValueError):
            schedule.reordered([0, 0])

    def test_iteration_and_indexing(self):
        entries = (entry([(0, 0)]), entry([(1, 1)]))
        schedule = Schedule(entries=entries, reconfig_delay=0.1)
        assert list(schedule) == list(entries)
        assert schedule[1] is entries[1]
        assert len(schedule) == 2
