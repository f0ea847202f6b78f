"""Live telemetry plane for the scheduling service: scrape + burn rates.

The batch obs layer materializes metrics when a process *exits*; a
long-running :class:`~repro.service.loop.SchedulingService` needs them
while it runs.  This module provides the three live pieces:

* :class:`TelemetryServer` — a stdlib ``http.server`` thread exposing
  ``GET /metrics`` (OpenMetrics text from a lock-consistent
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`), ``GET /healthz``
  (heartbeat freshness + drain state; 503 when stale) and ``GET /status``
  (the service's status snapshot — the same dict its heartbeat carries);
* :class:`BurnRateTracker` — rolling multi-window SLO miss-rate gauges
  (``service_slo_burn_rate{window=...}``), judged on an injectable
  monotonic clock;
* :class:`LiveTelemetry` — the facade the service threads its per-epoch
  signal through: it owns the tracker, the server, and (optionally) a
  :class:`~repro.obs.incidents.FlightRecorder`.

Everything here is opt-in: the service constructs a :class:`LiveTelemetry`
only when a telemetry port (or incident directory) is configured, so with
telemetry off the service path is byte-for-byte the PR 9 loop and the
null-backend zero-overhead guarantee is untouched.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.obs.export import render_openmetrics
from repro.obs.incidents import EpochFrame, FlightRecorder
from repro.runner.heartbeat import stale_after_s

#: Default burn-rate windows: (label, seconds).  The classic multi-window
#: pair — a fast window that detects an active burn and a slow one that
#: filters blips — scaled to epoch cadence.
DEFAULT_BURN_WINDOWS: "tuple[tuple[str, float], ...]" = (("1m", 60.0), ("10m", 600.0))

#: Content type Prometheus expects from an OpenMetrics endpoint.
OPENMETRICS_CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"


class BurnRateTracker:
    """Rolling SLO miss-rate over multiple look-back windows.

    Each epoch records one boolean (did the epoch violate its SLO); the
    burn rate of a window is the violating fraction of the epochs that
    ended inside it.  Judged on a monotonic clock (injectable for tests):
    a wall-clock step must never drain or stretch a window.

    Thread-safe: the service loop records while the scrape thread reads.
    """

    def __init__(
        self,
        windows: "tuple[tuple[str, float], ...]" = DEFAULT_BURN_WINDOWS,
        *,
        mono_clock=time.monotonic,
    ) -> None:
        if not windows:
            raise ValueError("BurnRateTracker needs at least one window")
        self.windows = tuple((str(label), float(span)) for label, span in windows)
        self._mono = mono_clock
        self._horizon = max(span for _, span in self.windows)
        self._samples: "list[tuple[float, bool]]" = []
        self._lock = threading.Lock()

    def record(self, miss: bool) -> None:
        """Record one epoch's SLO outcome at the current monotonic time."""
        now = self._mono()
        with self._lock:
            self._samples.append((now, bool(miss)))
            # Prune anything older than the widest window.
            cutoff = now - self._horizon
            while self._samples and self._samples[0][0] < cutoff:
                self._samples.pop(0)

    def rates(self) -> "dict[str, float]":
        """Miss fraction per window label (0.0 when a window saw no epoch)."""
        now = self._mono()
        with self._lock:
            samples = list(self._samples)
        out: "dict[str, float]" = {}
        for label, span in self.windows:
            inside = [miss for (t, miss) in samples if now - t <= span]
            out[label] = (sum(inside) / len(inside)) if inside else 0.0
        return out

    def publish(self, metrics) -> "dict[str, float]":
        """Emit ``service_slo_burn_rate{window=...}`` gauges; returns rates."""
        rates = self.rates()
        if getattr(metrics, "enabled", False):
            gauge = metrics.gauge(
                "service_slo_burn_rate",
                "rolling SLO miss fraction per look-back window",
            )
            for label, rate in rates.items():
                gauge.labels(window=label).set(rate)
        return rates


class _TelemetryHandler(BaseHTTPRequestHandler):
    """Routes /metrics, /healthz, /status; everything else is 404."""

    # The server attribute carries the callables (see TelemetryServer).
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        pass  # a scrape every few seconds must not spam the service's stderr

    def _respond(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                text = self.server.metrics_fn()
                self._respond(200, text.encode("utf-8"), OPENMETRICS_CONTENT_TYPE)
            elif path == "/healthz":
                code, payload = self.server.health_fn()
                body = json.dumps(payload, sort_keys=True).encode("utf-8")
                self._respond(code, body, "application/json")
            elif path == "/status":
                body = json.dumps(self.server.status_fn(), sort_keys=True).encode("utf-8")
                self._respond(200, body, "application/json")
            else:
                self._respond(404, b'{"error": "not found"}\n', "application/json")
        except Exception as exc:  # noqa: BLE001 — a scrape must never kill the server
            body = json.dumps({"error": str(exc)}).encode("utf-8")
            try:
                self._respond(500, body, "application/json")
            except OSError:
                pass


class TelemetryServer:
    """Daemon-threaded HTTP server wrapping three endpoint callables.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start` (the live-scrape tests do exactly that).
    """

    def __init__(
        self,
        *,
        metrics_fn,
        status_fn,
        health_fn,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._host = host
        self._requested_port = port
        self._metrics_fn = metrics_fn
        self._status_fn = status_fn
        self._health_fn = health_fn
        self._server: "ThreadingHTTPServer | None" = None
        self._thread: "threading.Thread | None" = None

    @property
    def port(self) -> "int | None":
        return self._server.server_address[1] if self._server is not None else None

    def start(self) -> "TelemetryServer":
        server = ThreadingHTTPServer((self._host, self._requested_port), _TelemetryHandler)
        server.daemon_threads = True
        server.metrics_fn = self._metrics_fn
        server.status_fn = self._status_fn
        server.health_fn = self._health_fn
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            name=f"telemetry:{server.server_address[1]}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None


class LiveTelemetry:
    """The service's live telemetry plane: scrape + burn rates + recorder.

    The service calls :meth:`on_epoch` once per epoch (loop thread) and
    :meth:`touch` on every liveness beat.  ``/status`` serves
    ``status_fn()`` — the service's status snapshot, which merges in
    :attr:`status_fields` — and ``/healthz`` judges the beat by the
    heartbeat staleness rule (:func:`~repro.runner.heartbeat.stale_after_s`).
    """

    def __init__(
        self,
        *,
        registry,
        port: "int | None" = 0,
        host: str = "127.0.0.1",
        recorder: "FlightRecorder | None" = None,
        status_fn=dict,
        mono_clock=time.monotonic,
    ) -> None:
        self.registry = registry
        self.recorder = recorder
        self.burn = BurnRateTracker(mono_clock=mono_clock)
        self._status_fn = status_fn
        self._mono = mono_clock
        self._lock = threading.Lock()
        self._last_touch = mono_clock()
        #: This plane's keys of the service status as of the last epoch:
        #: ``slo_burn_rate``, plus ``incidents`` with a recorder.  Replaced
        #: wholesale by :meth:`on_epoch`, so readers see a complete dict.
        self.status_fields: dict = self._fields(self.burn.rates())
        self.server = (
            TelemetryServer(
                metrics_fn=self.render_metrics,
                status_fn=status_fn,
                health_fn=self.health,
                host=host,
                port=port,
            )
            if port is not None
            else None
        )

    # ------------------------------------------------------------------ #
    # lifecycle (service side)
    # ------------------------------------------------------------------ #

    def start(self) -> "LiveTelemetry":
        if self.server is not None:
            self.server.start()
        return self

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()

    @property
    def port(self) -> "int | None":
        return self.server.port if self.server is not None else None

    def touch(self) -> None:
        """Mark the service alive (called on every liveness beat)."""
        with self._lock:
            self._last_touch = self._mono()

    def on_epoch(
        self,
        *,
        epoch: int,
        report: dict,
        outcome: dict,
        records: "list[dict] | None" = None,
        worker_deaths: "list[dict] | None" = None,
    ) -> "list[Path]":
        """Fold one finished epoch in; returns incident bundles written."""
        self.burn.record(bool(outcome.get("slo_violation")))
        rates = self.burn.publish(self.registry)
        written: "list[Path]" = []
        if self.recorder is not None:
            frame = EpochFrame(
                epoch=epoch,
                report=report,
                outcome=outcome,
                records=list(records or []),
                worker_deaths=list(worker_deaths or []),
            )
            written = self.recorder.observe_epoch(
                frame, metrics_snapshot=self.registry.snapshot()
            )
        self.status_fields = self._fields(rates)
        return written

    def _fields(self, rates: "dict[str, float]") -> dict:
        fields: dict = {"slo_burn_rate": rates}
        if self.recorder is not None:
            fields["incidents"] = {
                "triggered": dict(self.recorder.triggered),
                "bundles_written": len(self.recorder.bundles_written),
            }
        return fields

    # ------------------------------------------------------------------ #
    # endpoints (scrape side)
    # ------------------------------------------------------------------ #

    def render_metrics(self) -> str:
        """OpenMetrics text of the registry (snapshot under its lock)."""
        return render_openmetrics(self.registry.snapshot())

    def health(self) -> "tuple[int, dict]":
        """(HTTP status, payload) for /healthz: 200 fresh, 503 stale."""
        now = self._mono()
        with self._lock:
            idle = max(0.0, now - self._last_touch)
        horizon = stale_after_s()
        stale = idle > horizon
        draining = bool(self._status_fn().get("draining", False))
        payload = {
            "status": "stale" if stale else ("draining" if draining else "ok"),
            "heartbeat_idle_s": idle,
            "stale_after_s": horizon,
            "draining": draining,
        }
        return (503 if stale else 200), payload
