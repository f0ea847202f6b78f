"""Tests for the OpenMetrics/Prometheus textfile exporter."""

from __future__ import annotations

import json
import math
import re

import pytest

from repro.cli import main
from repro.obs.export import (
    _escape_label_value,
    _format_bound,
    _format_value,
    render_openmetrics,
)
from repro.obs.metrics import MetricsRegistry
from tests._openmetrics import parse_openmetrics


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("trials_total", "trials run").labels(status="ok").inc(3)
    registry.counter("trials_total").labels(status="failed").inc()
    registry.gauge("backlog_mb", "current backlog").set(12.5)
    hist = registry.histogram("phase_seconds", "phase durations", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(0.6)
    hist.observe(5.0)  # lands in the +Inf overflow slot
    return registry


class TestFormatting:
    def test_escape_label_value(self):
        assert _escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_format_value_special(self):
        assert _format_value(float("inf")) == "+Inf"
        assert _format_value(float("-inf")) == "-Inf"
        assert _format_value(float("nan")) == "NaN"
        assert _format_value(3.0) == "3"
        assert _format_value(2.5) == "2.5"

    def test_format_bound(self):
        assert _format_bound(math.inf) == "+Inf"
        assert _format_bound(0.25) == "0.25"


class TestRender:
    def test_counter_and_gauge_samples(self):
        text = render_openmetrics(_registry().snapshot())
        assert "# HELP trials_total trials run" in text
        assert "# TYPE trials_total counter" in text
        assert 'trials_total{status="ok"} 3' in text
        assert 'trials_total{status="failed"} 1' in text
        assert "# TYPE backlog_mb gauge" in text
        assert "backlog_mb 12.5" in text
        assert text.endswith("# EOF\n")

    def test_histogram_buckets_are_cumulative(self):
        text = render_openmetrics(_registry().snapshot())
        # Per-bucket counts are (1, 2, 1-overflow); exposition is cumulative.
        assert 'phase_seconds_bucket{le="0.1"} 1' in text
        assert 'phase_seconds_bucket{le="1"} 3' in text
        assert 'phase_seconds_bucket{le="+Inf"} 4' in text
        assert "phase_seconds_count 4" in text
        assert re.search(r"phase_seconds_sum 6\.1[45]", text)

    def test_labels_sorted_deterministically(self):
        registry = MetricsRegistry()
        registry.counter("c").labels(zeta="1", alpha="2").inc()
        text = render_openmetrics(registry.snapshot())
        assert 'c{alpha="2",zeta="1"} 1' in text

    def test_empty_snapshot_is_just_eof(self):
        assert render_openmetrics({}) == "# EOF\n"

    def test_declared_inf_bound_emits_single_inf_bucket(self):
        # Regression: a histogram declared with an explicit math.inf bound
        # used to render *two* le="+Inf" samples (the declared bound plus
        # the synthetic overflow line) — an OpenMetrics parse error.
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, math.inf))
        hist.observe(0.5)
        hist.observe(2.0)
        text = render_openmetrics(registry.snapshot())
        inf_lines = [
            line for line in text.splitlines() if line.startswith('h_bucket{le="+Inf"')
        ]
        assert inf_lines == ['h_bucket{le="+Inf"} 2']
        assert "h_count 2" in text

    def test_unlabeled_histogram_with_labels_mixed(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0,))
        hist.labels(stage="a").observe(0.5)
        hist.labels(stage="b").observe(2.0)
        text = render_openmetrics(registry.snapshot())
        assert 'h_bucket{le="1",stage="a"} 1' in text
        assert 'h_bucket{le="+Inf",stage="b"} 1' in text


class TestStrictParse:
    """The strict parser the live-scrape tests rely on: it accepts the
    exporter's output and rejects each rule an exposition can break."""

    def test_rendered_exposition_is_strict(self):
        families, problems = parse_openmetrics(render_openmetrics(_registry().snapshot()))
        assert problems == []
        assert {name: family["type"] for name, family in families.items()} == {
            "trials_total": "counter",
            "backlog_mb": "gauge",
            "phase_seconds": "histogram",
        }

    @pytest.mark.parametrize(
        "old, new, problem",
        [
            ("# TYPE backlog_mb gauge\n", "", "sample backlog_mb has no TYPE line"),
            (
                'phase_seconds_bucket{le="1"} 3',
                'phase_seconds_bucket{le="1"} 0',
                "phase_seconds: buckets not cumulative: [1.0, 0.0, 4.0]",
            ),
            (
                'phase_seconds_bucket{le="+Inf"} 4',
                'phase_seconds_bucket{le="+Inf"} 5',
                "phase_seconds: +Inf bucket 5.0 != _count 4.0",
            ),
            ('phase_seconds_bucket{le="+Inf"} 4\n', "", "phase_seconds: no +Inf bucket"),
            ("# EOF\n", "", "exposition does not end with '# EOF'"),
        ],
        ids=["undeclared-sample", "decreasing-buckets", "inf-not-count", "no-inf", "no-eof"],
    )
    def test_bad_exposition_fails(self, old, new, problem):
        text = render_openmetrics(_registry().snapshot())
        assert old in text
        _, problems = parse_openmetrics(text.replace(old, new))
        assert problems == [problem]


class TestCli:
    def test_export_metrics_snapshot(self, tmp_path, capsys):
        source = tmp_path / "metrics.json"
        source.write_text(json.dumps(_registry().snapshot()))
        assert main(["obs", "export", str(source)]) == 0
        out = capsys.readouterr().out
        assert 'trials_total{status="ok"} 3' in out
        assert out.endswith("# EOF\n")

    def test_export_to_file(self, tmp_path):
        source = tmp_path / "metrics.json"
        source.write_text(json.dumps(_registry().snapshot()))
        out = tmp_path / "metrics.prom"
        assert main(["obs", "export", str(source), "--out", str(out)]) == 0
        assert out.read_text().endswith("# EOF\n")

    def test_export_trace_embedded_metrics(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "compare",
                    "--radix",
                    "8",
                    "--trials",
                    "1",
                    "--no-journal",
                    "--isolation",
                    "inline",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["obs", "export", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "cpsched_schedules_total" in out
        assert "# EOF" in out

    def test_export_spanless_metrics_errors(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            json.dumps({"kind": "meta", "format": 1, "spans": 1, "events": 0}) + "\n"
            + json.dumps(
                {"kind": "span", "id": 1, "parent": None, "name": "x",
                 "start": 0.0, "end": 1.0}
            )
            + "\n"
        )
        with pytest.raises(SystemExit, match="no metrics snapshot"):
            main(["obs", "export", str(trace)])
