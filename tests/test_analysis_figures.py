"""Tests for the programmatic figure-regeneration API (tiny scale)."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.analysis.experiment import comparison_trial
from repro.analysis.figures import (
    figure5,
    figure6,
    figure11,
    params_for,
    runtime_table,
)
from repro.analysis.sweeps import comparison_points, figure_specs

TINY = dict(radices=(16,), n_trials=1, seed=1)


class TestParamsFor:
    def test_fast_slow(self):
        assert params_for("fast", 32).reconfig_delay == pytest.approx(0.02)
        assert params_for("slow", 32).reconfig_delay == pytest.approx(20.0)

    def test_unknown(self):
        with pytest.raises(ValueError):
            params_for("medium", 32)


class TestFigureFunctions:
    def test_figure5_points(self):
        points = figure5("fast", **TINY)
        assert len(points) == 1
        point = points[0]
        assert point.n_ports == 16
        assert point.skewed_ports is None
        assert point.result.cp_configs.mean < point.result.h_configs.mean

    def test_figure6_utilization_improves(self):
        points = figure6("fast", **TINY)
        result = points[0].result
        assert result.cp_ocs_fraction.mean >= result.h_ocs_fraction.mean

    def test_figure11_carries_skew_counts(self):
        points = figure11("fast", radices=(16,), skew_counts=(1, 2), n_trials=1, seed=1)
        assert [p.skewed_ports for p in points] == [1, 2]

    def test_radix_sweep_order(self):
        points = figure5("fast", radices=(16, 24), n_trials=1, seed=1)
        assert [p.n_ports for p in points] == [16, 24]

    def test_zero_trials_rejected(self):
        # Zero trials would aggregate to nan +- 0 (n=0) for every metric.
        with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
            figure5("fast", radices=(16,), n_trials=0)


def _deterministic(point) -> dict:
    """A figure point minus its scheduler wall times (host timing)."""
    fields = asdict(point)
    fields["result"] = {
        key: value
        for key, value in fields["result"].items()
        if not key.endswith("_sched_seconds")
    }
    return fields


class TestLibraryMatchesCli:
    """``figureN`` and ``repro figure figN`` must run one experiment: the
    library's points equal the CLI's trial unit aggregated by
    :func:`comparison_points`, field for field."""

    @pytest.mark.parametrize(
        "name, figure, extra",
        [
            ("fig5", figure5, {}),
            ("fig6", figure6, {}),
            ("fig11", figure11, {"skew_counts": (1, 2)}),
        ],
    )
    def test_same_points(self, name, figure, extra):
        library = figure("fast", radices=(16,), n_trials=2, seed=1, **extra)
        specs = figure_specs(name, ocs="fast", radices=(16,), trials=2, seed=1, **extra)
        completed = {spec.key: comparison_trial(**spec.kwargs) for spec in specs}
        cli = [point for _, point in comparison_points(specs, completed)]
        assert [_deterministic(p) for p in library] == [_deterministic(p) for p in cli]


class TestRuntimeTable:
    def test_rows_per_radix(self):
        rows = runtime_table("solstice", radices=(16,), n_trials=1, seed=1)
        assert len(rows) == 1
        row = rows[0]
        assert row.n_ports == 16
        assert row.h_switch.fast_ms > 0
        assert row.cp_switch.slow_ms > 0

    def test_intensive_variant(self):
        rows = runtime_table("solstice", workload="intensive", radices=(16,), n_trials=1, seed=1)
        assert rows[0].n_ports == 16

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            runtime_table("solstice", workload="weird", radices=(16,), n_trials=1)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
            runtime_table("solstice", radices=(16,), n_trials=0)
