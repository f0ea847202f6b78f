"""Tests for the live telemetry plane (:mod:`repro.obs.live`) and the
lock-consistency contract of :class:`~repro.obs.metrics.MetricsRegistry`
it scrapes through."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.incidents import FlightRecorder
from repro.obs.live import (
    OPENMETRICS_CONTENT_TYPE,
    BurnRateTracker,
    LiveTelemetry,
    TelemetryServer,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.watch import collect_state
from repro.runner.heartbeat import (
    TICK_INTERVAL_S,
    heartbeat_dir,
    stale_after_s,
    write_heartbeat,
)


class FakeMono:
    """A settable monotonic clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def _get(port: int, path: str):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=5
    ) as response:
        return (
            response.status,
            response.read().decode("utf-8"),
            response.headers.get("Content-Type"),
        )


class TestBurnRateTracker:
    def test_rates_per_window(self):
        clock = FakeMono()
        tracker = BurnRateTracker((("10s", 10.0), ("100s", 100.0)), mono_clock=clock)
        for t, miss in [(0.0, True), (50.0, False), (95.0, True), (99.0, False)]:
            clock.now = t
            tracker.record(miss)
        clock.now = 100.0
        rates = tracker.rates()
        assert rates["10s"] == pytest.approx(0.5)  # epochs at 95, 99
        assert rates["100s"] == pytest.approx(0.5)  # all four
        clock.now = 200.0
        assert tracker.rates() == {"10s": 0.0, "100s": 0.0}

    def test_prunes_past_widest_window(self):
        clock = FakeMono()
        tracker = BurnRateTracker((("1s", 1.0),), mono_clock=clock)
        for t in range(100):
            clock.now = float(t)
            tracker.record(True)
        assert len(tracker._samples) <= 2

    def test_publish_sets_window_gauges(self):
        registry = MetricsRegistry()
        clock = FakeMono()
        tracker = BurnRateTracker((("1m", 60.0),), mono_clock=clock)
        tracker.record(True)
        rates = tracker.publish(registry)
        assert rates == {"1m": 1.0}
        entry = registry.snapshot()["service_slo_burn_rate"]["values"][0]
        assert entry["labels"] == {"window": "1m"}
        assert entry["value"] == 1.0

    def test_publish_null_registry_is_noop(self):
        tracker = BurnRateTracker(mono_clock=FakeMono())
        tracker.record(False)
        assert tracker.publish(NULL_METRICS) == {"1m": 0.0, "10m": 0.0}

    def test_rejects_no_windows(self):
        with pytest.raises(ValueError, match="at least one window"):
            BurnRateTracker(())


class TestTelemetryServer:
    def test_routes_and_content_types(self):
        server = TelemetryServer(
            metrics_fn=lambda: "# EOF\n",
            status_fn=lambda: {"epoch": 7},
            health_fn=lambda: (200, {"status": "ok"}),
        ).start()
        try:
            port = server.port
            code, body, ctype = _get(port, "/metrics")
            assert (code, body, ctype) == (200, "# EOF\n", OPENMETRICS_CONTENT_TYPE)
            code, body, _ = _get(port, "/status")
            assert code == 200 and json.loads(body) == {"epoch": 7}
            code, body, _ = _get(port, "/healthz")
            assert code == 200 and json.loads(body) == {"status": "ok"}
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(port, "/nope")
            assert excinfo.value.code == 404
        finally:
            server.stop()

    def test_unhealthy_health_code_propagates(self):
        server = TelemetryServer(
            metrics_fn=lambda: "# EOF\n",
            status_fn=dict,
            health_fn=lambda: (503, {"status": "stale"}),
        ).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.port, "/healthz")
            assert excinfo.value.code == 503
        finally:
            server.stop()

    def test_endpoint_exception_is_500_not_crash(self):
        def boom():
            raise RuntimeError("scrape-time failure")

        server = TelemetryServer(
            metrics_fn=boom, status_fn=dict, health_fn=lambda: (200, {})
        ).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.port, "/metrics")
            assert excinfo.value.code == 500
            # ... and the server survives to answer the next scrape.
            assert _get(server.port, "/status")[0] == 200
        finally:
            server.stop()


class TestLiveTelemetry:
    def _telemetry(self, tmp_path=None, **overrides):
        overrides.setdefault("registry", MetricsRegistry())
        overrides.setdefault("port", None)
        overrides.setdefault("mono_clock", FakeMono())
        if tmp_path is not None:
            overrides.setdefault("recorder", FlightRecorder(tmp_path / "incidents"))
        return LiveTelemetry(**overrides)

    def _epoch_kwargs(self, epoch: int = 0, **overrides):
        report = {
            "epoch": epoch,
            "backlog_after": 2.5,
            "fallback_level": 0,
            "deadline_hit": False,
            "reroute_swaps": 0,
        }
        report.update(overrides.pop("report", {}))
        outcome = {"slo_violation": False, "epoch_latency_s": 0.02}
        outcome.update(overrides.pop("outcome", {}))
        return dict(epoch=epoch, report=report, outcome=outcome, **overrides)

    def test_on_epoch_updates_status_and_burn(self):
        telemetry = self._telemetry()
        assert telemetry.status_fields == {
            "slo_burn_rate": {"1m": 0.0, "10m": 0.0}
        }
        telemetry.on_epoch(**self._epoch_kwargs(0))
        telemetry.on_epoch(**self._epoch_kwargs(1, outcome={"slo_violation": True}))
        assert telemetry.status_fields["slo_burn_rate"]["1m"] == pytest.approx(0.5)
        # burn gauges landed in the scrapeable registry
        assert "service_slo_burn_rate" in telemetry.render_metrics()

    def test_health_goes_stale_then_recovers_on_touch(self):
        # /healthz judges the beat by the heartbeat rule: stale after 3x
        # the declared 1 s interval, the horizon ``obs watch`` applies.
        clock = FakeMono()
        telemetry = self._telemetry(mono_clock=clock)
        clock.now = 2.9
        assert telemetry.health()[0] == 200
        clock.now = 3.1
        code, payload = telemetry.health()
        assert code == 503 and payload["status"] == "stale"
        assert payload["stale_after_s"] == stale_after_s(TICK_INTERVAL_S) == 3.0
        telemetry.touch()
        code, payload = telemetry.health()
        assert code == 200 and payload["status"] == "ok"

    def test_healthz_agrees_with_watch_on_the_same_beat(self, tmp_path):
        # A service beat idle 4 s: STALE in ``obs watch`` and 503 on /healthz.
        journal = tmp_path / "service.jsonl"
        write_heartbeat(
            heartbeat_dir(journal), "service", phase="running", mono_clock=lambda: 0.0
        )
        assert collect_state(journal, now_mono=4.0).service.stale
        clock = FakeMono()
        telemetry = self._telemetry(mono_clock=clock)
        clock.now = 4.0
        assert telemetry.health()[0] == 503

    def test_draining_reported_not_stale(self):
        telemetry = self._telemetry(status_fn=lambda: {"draining": True})
        code, payload = telemetry.health()
        assert code == 200
        assert payload["status"] == "draining"
        assert payload["draining"] is True

    def test_on_epoch_feeds_flight_recorder(self, tmp_path):
        telemetry = self._telemetry(tmp_path)
        quiet = telemetry.on_epoch(**self._epoch_kwargs(0))
        assert quiet == []
        written = telemetry.on_epoch(
            **self._epoch_kwargs(1, outcome={"slo_violation": True})
        )
        assert len(written) == 1
        assert telemetry.status_fields["incidents"] == {
            "triggered": {"slo_violation": 1},
            "bundles_written": 1,
        }
        bundle = json.loads(written[0].read_text())
        assert [frame["epoch"] for frame in bundle["frames"]] == [0, 1]

    def test_no_port_means_no_server(self):
        telemetry = self._telemetry().start()
        assert telemetry.server is None and telemetry.port is None
        telemetry.stop()


class TestRegistryLockConsistency:
    """Satellite: a scrape racing the loop thread must never see a torn cut."""

    def _run_against(self, registry: MetricsRegistry, writer, checks, rounds=300):
        stop = threading.Event()
        errors: "list[BaseException]" = []

        def loop():
            try:
                while not stop.is_set():
                    writer()
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        thread = threading.Thread(target=loop)
        thread.start()
        try:
            for _ in range(rounds):
                checks(registry.snapshot())
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not errors, errors

    def test_snapshot_consistent_under_inc_and_observe(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total")
        hist = registry.histogram("op_seconds", buckets=(0.1, 1.0))

        def writer():
            counter.inc()
            hist.observe(0.5)

        def checks(snapshot):
            if "op_seconds" in snapshot:
                for entry in snapshot["op_seconds"]["values"]:
                    # A torn histogram shows count != sum of its buckets.
                    assert entry["count"] == sum(entry["bucket_counts"])
                    assert entry["sum"] == pytest.approx(0.5 * entry["count"])
            if "ops_total" in snapshot and "op_seconds" in snapshot:
                ops = snapshot["ops_total"]["values"][0]["value"]
                observed = snapshot["op_seconds"]["values"][0]["count"]
                # The writer incs then observes; one consistent cut can sit
                # between the two ops but never further apart.
                assert observed <= ops <= observed + 1

        self._run_against(registry, writer, checks)

    def test_snapshot_consistent_under_labeled_children(self):
        registry = MetricsRegistry()
        counter = registry.counter("trials_total")

        def writer():
            counter.labels(status="ok").inc()
            counter.labels(status="failed").inc()

        def checks(snapshot):
            if "trials_total" in snapshot:
                values = {
                    entry["labels"]["status"]: entry["value"]
                    for entry in snapshot["trials_total"]["values"]
                    if entry["labels"]
                }
                ok = values.get("ok", 0)
                failed = values.get("failed", 0)
                assert failed <= ok <= failed + 1

        self._run_against(registry, writer, checks)

    def test_snapshot_sees_whole_merges_only(self):
        source = MetricsRegistry()
        source.counter("ops_total").inc(3)
        hist = source.histogram("op_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        foreign = source.snapshot()

        registry = MetricsRegistry()

        def writer():
            registry.merge(foreign)

        def checks(snapshot):
            if not snapshot:
                return
            entry = snapshot["op_seconds"]["values"][0]
            assert entry["count"] == sum(entry["bucket_counts"])
            # merge() holds the registry lock across the whole snapshot
            # fold, so a scrape sees an integral number of merges: the
            # counter and the histogram advance in lockstep (3 per merge).
            assert entry["count"] % 3 == 0
            assert snapshot["ops_total"]["values"][0]["value"] == entry["count"]

        self._run_against(registry, writer, checks)
