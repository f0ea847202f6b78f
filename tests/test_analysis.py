"""Tests for the experiment harness, aggregation, and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.aggregate import Aggregate, aggregate, ratio_of_means
from repro.analysis.experiment import (
    DEFAULT_TRIALS,
    ComparisonAggregate,
    ExperimentConfig,
    default_trials,
    run_comparison,
)
from repro.analysis.report import format_improvement, format_ratio, format_table
from repro.analysis.runtime import RuntimeCell, runtime_row
from repro.switch.params import fast_ocs_params
from repro.workloads.skewed import SkewedWorkload


class TestAggregate:
    def test_basic_stats(self):
        agg = aggregate([1.0, 2.0, 3.0])
        assert agg.mean == pytest.approx(2.0)
        assert agg.minimum == 1.0 and agg.maximum == 3.0
        assert agg.count == 3
        assert agg.std == pytest.approx(1.0)
        assert agg.stderr == pytest.approx(1.0 / np.sqrt(3))

    def test_single_value(self):
        agg = aggregate([5.0])
        assert agg.std == 0.0
        assert agg.stderr == 0.0

    def test_empty(self):
        agg = aggregate([])
        assert agg.count == 0
        assert np.isnan(agg.mean)

    def test_ratio_of_means(self):
        assert ratio_of_means(aggregate([4.0]), aggregate([2.0])) == 2.0
        assert np.isnan(ratio_of_means(aggregate([4.0]), aggregate([0.0])))

    def test_format(self):
        agg = aggregate([1.23456, 1.23456])
        assert f"{agg:.2f}" == "1.23"


class TestRunComparison:
    @pytest.fixture(scope="class")
    def result(self) -> ComparisonAggregate:
        params = fast_ocs_params(16)
        config = ExperimentConfig(
            workload=SkewedWorkload.for_params(params),
            params=params,
            scheduler="solstice",
            n_trials=3,
            seed=99,
        )
        return run_comparison(config)

    def test_trial_count(self, result):
        assert result.n_trials == 3
        assert result.h_completion_total.count == 3

    def test_cp_improves_skewed_completion(self, result):
        assert result.cp_completion_total.mean < result.h_completion_total.mean
        assert result.cp_completion_o2m.mean < result.h_completion_o2m.mean
        assert result.completion_improvement > 0

    def test_cp_uses_fewer_configs(self, result):
        assert result.cp_configs.mean < result.h_configs.mean

    def test_runtimes_recorded(self, result):
        assert result.h_sched_seconds.mean > 0
        assert result.cp_sched_seconds.mean > 0

    def test_reproducible(self):
        params = fast_ocs_params(16)

        def run():
            return run_comparison(
                ExperimentConfig(
                    workload=SkewedWorkload.for_params(params),
                    params=params,
                    scheduler="solstice",
                    n_trials=2,
                    seed=7,
                )
            )

        a, b = run(), run()
        assert a.h_completion_total.mean == b.h_completion_total.mean
        assert a.cp_completion_total.mean == b.cp_completion_total.mean

    def test_eclipse_scheduler_by_name(self):
        params = fast_ocs_params(16)
        result = run_comparison(
            ExperimentConfig(
                workload=SkewedWorkload.for_params(params),
                params=params,
                scheduler="eclipse",
                n_trials=2,
                seed=11,
            )
        )
        assert result.cp_ocs_fraction.mean >= result.h_ocs_fraction.mean

    def test_default_trials_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEEDS", raising=False)
        assert default_trials() == DEFAULT_TRIALS
        monkeypatch.setenv("REPRO_SEEDS", "9")
        assert default_trials() == 9
        monkeypatch.setenv("REPRO_SEEDS", "0")
        with pytest.raises(ValueError):
            default_trials()

    def test_default_trials_rejects_non_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEEDS", "abc")
        with pytest.raises(ValueError, match="REPRO_SEEDS must be an integer.*'abc'"):
            default_trials()

    @pytest.mark.parametrize("n_trials", [0, -1])
    def test_rejects_fewer_than_one_trial(self, n_trials):
        # Zero trials would aggregate to nan +- 0 (n=0) for every metric.
        params = fast_ocs_params(16)
        config = ExperimentConfig(
            workload=SkewedWorkload.for_params(params), params=params, n_trials=n_trials
        )
        with pytest.raises(ValueError, match=f"n_trials must be >= 1, got {n_trials}"):
            run_comparison(config)

    def test_benchmark_trials_share_the_env_rule(self, monkeypatch):
        from benchmarks.common import trials

        monkeypatch.delenv("REPRO_SEEDS", raising=False)
        assert trials() == 2
        monkeypatch.setenv("REPRO_SEEDS", "3")
        assert trials() == 3
        monkeypatch.setenv("REPRO_SEEDS", "0")
        with pytest.raises(ValueError, match="REPRO_SEEDS must be >= 1"):
            trials()
        monkeypatch.setenv("REPRO_SEEDS", "abc")
        with pytest.raises(ValueError, match="REPRO_SEEDS must be an integer"):
            trials()

    def test_unknown_scheduler_rejected(self):
        params = fast_ocs_params(16)
        config = ExperimentConfig(
            workload=SkewedWorkload.for_params(params),
            params=params,
            scheduler="magic",
            n_trials=1,
        )
        with pytest.raises(ValueError):
            run_comparison(config)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            ["radix", "h", "cp"],
            [[32, 1.234567, 0.5], [128, 10.0, 2.0]],
            title="Figure X",
        )
        lines = text.splitlines()
        assert lines[0] == "Figure X"
        assert "radix" in lines[1]
        assert all(len(line) == len(lines[1]) for line in lines[3:])

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_improvement(self):
        assert format_improvement(10.0, 5.0) == "cp 50% lower"
        assert format_improvement(10.0, 12.0) == "cp 20% higher"
        assert format_improvement(0.0, 1.0) == "n/a"

    def test_format_ratio(self):
        assert format_ratio(3.0, 1.5) == "2.00x"
        assert format_ratio(1.0, 0.0) == "n/a"


class TestRuntimeTable:
    def _fake_result(self, n_ports: int, h_seconds: float, cp_seconds: float) -> ComparisonAggregate:
        one = aggregate([1.0])
        return ComparisonAggregate(
            n_ports=n_ports,
            h_completion_total=one,
            cp_completion_total=one,
            h_completion_o2m=one,
            cp_completion_o2m=one,
            h_completion_m2o=one,
            cp_completion_m2o=one,
            h_ocs_fraction=one,
            cp_ocs_fraction=one,
            h_configs=one,
            cp_configs=one,
            h_sched_seconds=aggregate([h_seconds]),
            cp_sched_seconds=aggregate([cp_seconds]),
            n_trials=1,
        )

    def test_runtime_row_builds_cells_in_ms(self):
        slow = self._fake_result(64, h_seconds=0.040, cp_seconds=0.020)
        fast = self._fake_result(64, h_seconds=0.100, cp_seconds=0.025)
        row = runtime_row(64, slow, fast)
        assert row.h_switch.slow_ms == pytest.approx(40.0)
        assert row.cp_switch.fast_ms == pytest.approx(25.0)
        assert row.ratio.slow_ms == pytest.approx(2.0)
        assert row.ratio.fast_ms == pytest.approx(4.0)

    def test_runtime_row_radix_check(self):
        slow = self._fake_result(64, 0.1, 0.1)
        fast = self._fake_result(128, 0.1, 0.1)
        with pytest.raises(ValueError):
            runtime_row(64, slow, fast)

    def test_cell_str(self):
        cell = RuntimeCell(slow_ms=7.123, fast_ms=16.5)
        assert str(cell) == "7.1, 16.5"
