"""Tests for the ASCII trace rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.schedule import Schedule, ScheduleEntry
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim.trace import render_gantt, schedule_timeline
from repro.switch.params import fast_ocs_params


def two_config_schedule() -> Schedule:
    return Schedule(
        entries=(
            ScheduleEntry(matching=np.array([1, -1, -1, -1]), duration=0.5),
            ScheduleEntry(matching=np.array([-1, 0, -1, -1]), duration=0.3),
        ),
        reconfig_delay=0.1,
    )


class TestScheduleTimeline:
    def test_alternates_reconfig_and_hold(self):
        intervals = schedule_timeline(two_config_schedule())
        kinds = [iv.kind for iv in intervals]
        assert kinds == ["reconfig", "circuit", "reconfig", "circuit"]

    def test_intervals_are_contiguous(self):
        intervals = schedule_timeline(two_config_schedule())
        assert intervals[0].start == 0.0
        for before, after in zip(intervals, intervals[1:]):
            assert after.start == pytest.approx(before.end)
        assert intervals[-1].end == pytest.approx(1.0)  # 0.1+0.5+0.1+0.3

    def test_cp_schedule_tags_composites(self, skewed_demand16):
        params = fast_ocs_params(16)
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(
            skewed_demand16, params
        )
        intervals = schedule_timeline(cp_schedule)
        assert any(iv.kind == "composite" for iv in intervals)
        composite = next(iv for iv in intervals if iv.kind == "composite")
        assert "o2m@" in composite.label or "m2o@" in composite.label


class TestRenderGantt:
    def test_contains_lanes_and_legend(self):
        text = render_gantt(two_config_schedule())
        assert "OCS" in text
        assert "#" in text and "." in text
        assert "legend" in text

    def test_composite_lane_only_for_cp(self, skewed_demand16):
        plain = render_gantt(two_config_schedule())
        assert "composite" not in plain
        params = fast_ocs_params(16)
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(
            skewed_demand16, params
        )
        assert "composite" in render_gantt(cp_schedule)
        assert "Z" in render_gantt(cp_schedule)

    def test_empty_schedule(self):
        schedule = Schedule(entries=(), reconfig_delay=0.1)
        assert render_gantt(schedule) == "(empty schedule)"

    def test_width_respected(self):
        text = render_gantt(two_config_schedule(), width=40)
        lane_line = [l for l in text.splitlines() if l.startswith("OCS")][0]
        assert len(lane_line.split("|")[1]) == 40

    def test_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            render_gantt(two_config_schedule(), width=3)

    def test_total_time_extends_axis(self):
        text = render_gantt(two_config_schedule(), total_time=10.0)
        assert "10 ms" in text
