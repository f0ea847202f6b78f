"""Tests for switch parameters and VOQs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiment import ExperimentConfig
from repro.core.config import DEFAULT_ALPHA_FAST, DEFAULT_ALPHA_SLOW, FilterConfig
from repro.hybrid.eclipse import EclipseScheduler
from repro.switch.params import (
    FAST_OCS_DELTA_MS,
    SLOW_OCS_DELTA_MS,
    OcsClass,
    SwitchParams,
    fast_ocs_params,
    slow_ocs_params,
)
from repro.switch.voq import VirtualOutputQueues
from repro.workloads.base import volume_scale_for
from repro.workloads.skewed import SkewedWorkload


class TestSwitchParams:
    def test_paper_constants(self):
        params = fast_ocs_params(64)
        assert params.eps_rate == 10.0  # 10 Gbps in Mb/ms
        assert params.ocs_rate == 100.0
        assert params.rate_ratio == 10.0
        assert params.reconfig_delay == pytest.approx(0.02)
        assert slow_ocs_params(64).reconfig_delay == pytest.approx(20.0)

    def test_ocs_class_properties(self):
        assert OcsClass.FAST.reconfig_delay == FAST_OCS_DELTA_MS
        assert OcsClass.SLOW.reconfig_delay == SLOW_OCS_DELTA_MS
        assert OcsClass.FAST.eclipse_window == 1.0
        assert OcsClass.SLOW.eclipse_window == 100.0

    @pytest.mark.parametrize(
        "delta, ocs", [(1.0, OcsClass.FAST), (np.nextafter(1.0, 2.0), OcsClass.SLOW)]
    )
    def test_ocs_class_rule_agrees_at_the_boundary(self, delta, ocs):
        # Filtering, Eclipse's window, workload scale and the experiment
        # window all read the one rule: fast iff δ <= 1 ms.
        params = SwitchParams(n_ports=8, reconfig_delay=delta)
        fast = ocs is OcsClass.FAST
        assert params.ocs_class is ocs
        alpha = DEFAULT_ALPHA_FAST if fast else DEFAULT_ALPHA_SLOW
        assert FilterConfig().resolve_volume_threshold(params) == pytest.approx(
            alpha * delta * params.ocs_rate
        )
        assert EclipseScheduler().resolved_window(params) == ocs.eclipse_window
        experiment = ExperimentConfig(SkewedWorkload(), params)
        assert experiment.resolved_window() == ocs.eclipse_window
        assert volume_scale_for(params) == (1.0 if fast else 100.0)

    def test_budget_defaults_to_eps_rate(self):
        params = fast_ocs_params(8)
        assert params.effective_eps_budget == params.eps_rate
        assert params.with_budget(4.0).effective_eps_budget == 4.0

    def test_budget_above_eps_rejected(self):
        with pytest.raises(ValueError):
            SwitchParams(n_ports=8, eps_budget=20.0)

    def test_eps_faster_than_ocs_rejected(self):
        with pytest.raises(ValueError):
            SwitchParams(n_ports=8, eps_rate=200.0, ocs_rate=100.0)

    def test_tiny_radix_rejected(self):
        with pytest.raises(ValueError):
            SwitchParams(n_ports=1)

    def test_with_ports(self):
        params = fast_ocs_params(8)
        assert params.with_ports(64).n_ports == 64
        assert params.with_ports(64).reconfig_delay == params.reconfig_delay


class TestVirtualOutputQueues:
    def test_enqueue_serve_roundtrip(self):
        voqs = VirtualOutputQueues(4)
        voqs.enqueue(0, 1, 10.0)
        served = voqs.serve(0, 1, 4.0)
        assert served == 4.0
        assert voqs.backlog == pytest.approx(6.0)
        voqs.check_conservation()

    def test_serve_saturates_at_occupancy(self):
        voqs = VirtualOutputQueues(4)
        voqs.enqueue(2, 3, 1.0)
        assert voqs.serve(2, 3, 5.0) == pytest.approx(1.0)
        assert voqs.is_empty()

    def test_serve_matrix(self):
        initial = np.full((3, 3), 2.0)
        voqs = VirtualOutputQueues(3, initial=initial)
        served = voqs.serve_matrix(np.full((3, 3), 1.5))
        assert served.sum() == pytest.approx(13.5)
        assert voqs.backlog == pytest.approx(4.5)
        voqs.check_conservation()

    def test_negative_volume_rejected(self):
        voqs = VirtualOutputQueues(2)
        with pytest.raises(ValueError):
            voqs.enqueue(0, 0, -1.0)
        with pytest.raises(ValueError):
            voqs.serve(0, 0, -1.0)

    def test_initial_shape_checked(self):
        with pytest.raises(ValueError):
            VirtualOutputQueues(3, initial=np.zeros((2, 2)))

    def test_occupancy_view_is_read_only(self):
        voqs = VirtualOutputQueues(2)
        with pytest.raises(ValueError):
            voqs.occupancy[0, 0] = 1.0
