"""Tests for the arrival processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.controller import EpochController
from repro.hybrid.solstice import SolsticeScheduler
from repro.switch.params import fast_ocs_params
from repro.workloads.arrivals import WorkloadArrivals
from repro.workloads.skewed import SkewedWorkload


@pytest.fixture
def base():
    return WorkloadArrivals(workload=SkewedWorkload(), n_ports=16, seed=7)


class TestWorkloadArrivals:
    def test_shape_and_volume(self, base):
        demand = base(0)
        assert demand.shape == (16, 16)
        assert demand.sum() > 0

    def test_reproducible_per_epoch(self, base):
        np.testing.assert_array_equal(base(3), base(3))

    def test_epochs_are_independent_draws(self, base):
        assert not np.array_equal(base(0), base(1))

    def test_intensity_scales(self):
        unit = WorkloadArrivals(SkewedWorkload(), 16, seed=7)
        double = WorkloadArrivals(SkewedWorkload(), 16, seed=7, intensity=2.0)
        np.testing.assert_allclose(double(0), 2.0 * unit(0))

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            WorkloadArrivals(SkewedWorkload(), 16, intensity=-1.0)


class TestWithController:
    def test_bursty_load_drives_controller(self):
        params = fast_ocs_params(16)
        base = WorkloadArrivals(SkewedWorkload(), 16, seed=2)

        def arrivals(epoch):
            # ON/OFF tide: a workload draw on even epochs, nothing on odd ones.
            return base(epoch) if epoch % 2 == 0 else np.zeros((16, 16))

        controller = EpochController(params, SolsticeScheduler(), epoch_duration=0.5)
        reports = controller.run(arrivals, n_epochs=4)
        # OFF epochs give the switch slack to catch up.
        assert reports[1].backlog_after <= reports[0].backlog_after + 1e-9
        controller.voqs.check_conservation()
