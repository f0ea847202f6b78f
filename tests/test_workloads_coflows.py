"""Tests for the coflow abstraction (§1 taxonomy)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hybrid.schedule import Schedule
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim import simulate_hybrid
from repro.switch.params import fast_ocs_params
from repro.workloads.coflows import Coflow, CoflowSet, CoflowType, Flow


class TestFlow:
    def test_valid(self):
        flow = Flow(0, 3, 2.0)
        assert flow.volume == 2.0

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Flow(1, 1, 2.0)

    def test_rejects_nonpositive_volume(self):
        with pytest.raises(ValueError):
            Flow(0, 1, 0.0)


class TestCoflowConstructors:
    def test_one_to_one(self):
        coflow = Coflow.one_to_one(0, 5, 100.0)
        assert coflow.kind is CoflowType.ONE_TO_ONE
        assert coflow.volume == 100.0
        assert not coflow.is_skewed()

    def test_one_to_many_scalar_volume(self):
        coflow = Coflow.one_to_many(0, [1, 2, 3], 2.0)
        assert coflow.kind is CoflowType.ONE_TO_MANY
        assert coflow.volume == pytest.approx(6.0)
        assert coflow.is_skewed()
        assert coflow.ports == {0, 1, 2, 3}

    def test_one_to_many_vector_volume(self):
        coflow = Coflow.one_to_many(0, [1, 2], [1.0, 3.0])
        assert coflow.volume == pytest.approx(4.0)

    def test_volume_length_mismatch(self):
        with pytest.raises(ValueError):
            Coflow.one_to_many(0, [1, 2], [1.0])

    def test_many_to_one(self):
        coflow = Coflow.many_to_one([1, 2, 3], 0, 1.5)
        assert coflow.kind is CoflowType.MANY_TO_ONE
        assert coflow.is_skewed()
        mask = coflow.entry_mask(4)
        assert mask[:, 0].sum() == 3

    def test_many_to_many_excludes_self_pairs(self):
        coflow = Coflow.many_to_many([0, 1], [0, 1], 1.0)
        assert len(coflow.flows) == 2  # (0,1) and (1,0), no self-loops
        assert not coflow.is_skewed()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Coflow(flows=(), kind=CoflowType.ONE_TO_ONE)

    def test_names_unique_by_default(self):
        a = Coflow.one_to_one(0, 1, 1.0)
        b = Coflow.one_to_one(0, 1, 1.0)
        assert a.name != b.name


class TestCoflowSet:
    def test_demand_sums_overlapping_flows(self):
        cs = CoflowSet(4)
        cs.add(Coflow.one_to_one(0, 1, 2.0))
        cs.add(Coflow.one_to_many(0, [1, 2], 1.0))
        demand = cs.demand()
        assert demand[0, 1] == pytest.approx(3.0)
        assert demand[0, 2] == pytest.approx(1.0)

    def test_rejects_out_of_range_ports(self):
        cs = CoflowSet(4)
        with pytest.raises(ValueError):
            cs.add(Coflow.one_to_one(0, 7, 1.0))

    def test_to_spec_masks(self):
        cs = CoflowSet(6)
        cs.add(Coflow.one_to_many(0, [1, 2, 3], 1.0))
        cs.add(Coflow.many_to_one([1, 2], 5, 1.0))
        cs.add(Coflow.one_to_one(3, 4, 50.0))
        spec = cs.to_spec()
        assert spec.o2m_mask.sum() == 3
        assert spec.m2o_mask.sum() == 2
        assert spec.o2m_senders == (0,)
        assert spec.m2o_receivers == (5,)
        assert not spec.skewed_mask[3, 4]

    def test_completion_times_per_coflow(self):
        params = fast_ocs_params(8)
        cs = CoflowSet(8)
        cs.add(Coflow.one_to_many(0, list(range(1, 8)), 1.2, name="fanout"))
        cs.add(Coflow.one_to_one(1, 2, 30.0, name="bulk"))
        demand = cs.demand()
        schedule = SolsticeScheduler().schedule(demand, params)
        result = simulate_hybrid(demand, schedule, params)
        times = cs.completion_times(result)
        assert set(times) == {"fanout", "bulk"}
        assert all(t > 0 for t in times.values())
        assert max(times.values()) == pytest.approx(result.completion_time)

    def test_average_completion(self):
        params = fast_ocs_params(8)
        cs = CoflowSet(8)
        cs.add(Coflow.one_to_one(0, 1, 10.0))
        demand = cs.demand()
        result = simulate_hybrid(
            demand, Schedule(entries=(), reconfig_delay=params.reconfig_delay), params
        )
        assert cs.average_completion(result) == pytest.approx(1.0)

    def test_empty_average(self):
        params = fast_ocs_params(4)
        cs = CoflowSet(4)
        result = simulate_hybrid(
            np.zeros((4, 4)),
            Schedule(entries=(), reconfig_delay=params.reconfig_delay),
            params,
        )
        assert cs.average_completion(result) == 0.0
