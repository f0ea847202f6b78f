"""Tests for remaining behaviours not covered elsewhere."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.aggregate import Aggregate
from repro.hybrid.base import make_scheduler
from repro.hybrid.eclipse import EclipseScheduler
from repro.hybrid.solstice import SolsticeScheduler
from repro.hybrid.tdm import TdmScheduler
from repro.sim import simulate_hybrid
from repro.switch.params import fast_ocs_params
from repro.workloads.base import empty_spec


class TestMakeScheduler:
    def test_by_name_case_insensitive(self):
        assert isinstance(make_scheduler("Solstice"), SolsticeScheduler)
        assert isinstance(make_scheduler("ECLIPSE"), EclipseScheduler)
        assert isinstance(make_scheduler("tdm"), TdmScheduler)

    def test_kwargs_forwarded(self):
        eclipse = make_scheduler("eclipse", window=5.0, grid_size=8)
        assert eclipse.window == 5.0
        assert eclipse.grid_size == 8
        solstice = make_scheduler("solstice", max_configs=7)
        assert solstice.max_configs == 7

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("varys")


class TestEmptySpec:
    def test_identity_for_merge(self):
        from repro.workloads.base import merge_specs
        from repro.workloads.skewed import SkewedWorkload

        spec = SkewedWorkload().generate(8, np.random.default_rng(0))
        merged = merge_specs(spec, empty_spec(8))
        np.testing.assert_array_equal(merged.demand, spec.demand)
        np.testing.assert_array_equal(merged.skewed_mask, spec.skewed_mask)


class TestAggregateFormatting:
    def test_str_includes_stderr(self):
        agg = Aggregate(mean=1.5, std=0.2, minimum=1.0, maximum=2.0, count=4)
        text = str(agg)
        assert "1.5" in text and "n=4" in text

    def test_format_spec(self):
        agg = Aggregate(mean=3.14159, std=0.0, minimum=3.14159, maximum=3.14159, count=1)
        assert f"{agg:.1f}" == "3.1"
        assert f"{agg}" == "3.14"  # default .3g


class TestSegmentsAccounting:
    def test_segment_volume_matches_served_totals(self, sparse_demand):
        params = fast_ocs_params(8)
        schedule = SolsticeScheduler().schedule(sparse_demand, params)
        result = simulate_hybrid(sparse_demand, schedule, params)
        ocs_integral = sum(s.ocs_direct_rate * s.duration for s in result.segments)
        eps_integral = sum(s.eps_rate * s.duration for s in result.segments)
        assert ocs_integral == pytest.approx(result.served_ocs_direct, rel=1e-9)
        assert eps_integral == pytest.approx(result.served_eps, rel=1e-9)

    def test_segment_durations_non_negative(self, sparse_demand):
        params = fast_ocs_params(8)
        schedule = SolsticeScheduler().schedule(sparse_demand, params)
        result = simulate_hybrid(sparse_demand, schedule, params)
        assert all(segment.duration >= 0 for segment in result.segments)


class TestTdmQuantumDefault:
    def test_default_quantum_from_mean_entry(self):
        params = fast_ocs_params(4)
        demand = np.zeros((4, 4))
        demand[0, 1] = 10.0
        demand[1, 2] = 30.0
        scheduler = TdmScheduler()
        schedule = scheduler.schedule(demand, params)
        # Mean entry 20 Mb at Co = 100 -> quantum 0.2 ms.
        assert schedule.entries[0].duration == pytest.approx(0.2)
