"""Asyncio scheduling service: the epoch controller as a continuous loop.

:class:`~repro.analysis.controller.EpochController` is a library — you
call :meth:`offer` and :meth:`run_epoch` yourself.  :class:`SchedulingService`
wraps it into the long-running loop a deployment would actually operate
(ROADMAP item 1):

* an **ingestion task** pulls ``(epoch, demand)`` batches from an async
  arrival stream (:func:`repro.workloads.arrivals.arrival_stream`) into a
  bounded queue — when epochs fall behind, the queue fills and ingestion
  blocks: backpressure propagates to the stream instead of growing an
  unbounded buffer;
* an **epoch task** fires on a monotonic epoch clock, offers the next
  batch, and runs the controller's schedule/execute step — inline
  deadline budget, anytime fallback ladder, backpressure ledger and all;
* the per-epoch **auxiliary heavy stages** (independent scheduler arms
  and fast-reroute backup planning — see
  :mod:`repro.service.stages`) are sharded across a warm
  :class:`~repro.runner.pool.WorkerPool` and overlap with the inline
  epoch execution; a worker death respawns the worker and retries the
  stage.

Two drivers share one code path for the controller calls:

* :meth:`SchedulingService.run` — the asyncio loop above;
* :meth:`SchedulingService.run_sync` — a plain synchronous driver that
  issues the *identical* ``offer``/``run_epoch`` sequence and is
  therefore bit-identical to :meth:`EpochController.run`.

Shutdown is drain-by-default: :meth:`request_stop` (or the CLI's SIGTERM
handler) stops ingestion at the next batch boundary, the epoch task
finishes everything already queued, workers are joined, and the final
:class:`ServiceReport` carries balanced conservation ledgers.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs
from repro.runner.heartbeat import HeartbeatTicker, heartbeat_dir
from repro.runner.pool import StageResult, StageTask, WorkerPool, absorb_observations
from repro.service.stages import DEFAULT_ARMS
from repro.workloads.arrivals import arrival_stream

if TYPE_CHECKING:  # import cycle: analysis.controller imports service.deadline
    from repro.analysis.controller import ArrivalProcess, EpochController, EpochReport

#: Queue sentinel: the ingestion task is done (stream ended or stop requested).
_STREAM_END = None


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one :class:`SchedulingService` run.

    Parameters
    ----------
    n_epochs:
        Epochs to serve; ``None`` serves until :meth:`~SchedulingService.request_stop`.
    n_workers:
        Warm pool size for the sharded stages; ``0`` disables sharding
        (every epoch runs inline only).
    queue_depth:
        Ingestion queue bound — how many arrival batches may sit between
        the stream and the epoch task before backpressure blocks ingestion.
    epoch_interval_s:
        Monotonic epoch clock period: epoch ``k`` fires no earlier than
        ``k * epoch_interval_s`` after the service started.  ``0`` free-runs.
        An epoch that takes longer than the interval counts as an SLO
        violation (reason ``epoch_overrun``).
    arms:
        Independent scheduler arms sharded each epoch (names accepted by
        :func:`repro.hybrid.base.make_scheduler`); empty disables.
    shard_backups:
        Also shard a fast-reroute backup-planning stage each epoch.
    stage_retries / stage_timeout_s:
        Pool crash-retry budget and per-stage wall-clock budget.
    drain:
        On stop: finish every batch already queued (``True``, default) or
        abandon the queue immediately (``False`` — abandoned batches are
        counted, never silently lost).
    heartbeat:
        Keep a ``service`` heartbeat fresh next to the controller's
        journal (monotonic-tick contract; a no-op without a journal path).
    telemetry_port:
        Bind the live telemetry HTTP server (``/metrics``, ``/healthz``,
        ``/status``) on this port; ``0`` picks an ephemeral port (read
        ``service.telemetry.port`` after start).  ``None`` (default)
        disables the whole live plane — with it off the epoch path is
        byte-for-byte the untelemetered loop.
    telemetry_host:
        Bind address for the telemetry server (loopback by default).
    incidents_dir:
        Where the flight recorder dumps incident bundles; defaults to
        ``$REPRO_RUN_DIR/incidents`` when the telemetry plane is on.
        Setting it without ``telemetry_port`` enables the recorder alone
        (bundles, no HTTP server).
    recorder_epochs:
        Flight-recorder ring size: epochs of context in each bundle.
    mono_clock / async_sleep:
        Injection seams for the epoch clock (tests step a fake clock).
    """

    n_epochs: "int | None" = None
    n_workers: int = 2
    queue_depth: int = 4
    epoch_interval_s: float = 0.0
    arms: "tuple[str, ...]" = DEFAULT_ARMS
    shard_backups: bool = True
    stage_retries: int = 1
    stage_timeout_s: "float | None" = None
    drain: bool = True
    heartbeat: bool = True
    telemetry_port: "int | None" = None
    telemetry_host: str = "127.0.0.1"
    incidents_dir: "str | Path | None" = None
    recorder_epochs: int = 8
    mono_clock: Callable[[], float] = field(default=time.monotonic, repr=False)
    async_sleep: Callable = field(default=asyncio.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.n_epochs is not None and self.n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1 (or None), got {self.n_epochs}")
        if self.n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {self.n_workers}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.epoch_interval_s < 0:
            raise ValueError(
                f"epoch_interval_s must be >= 0, got {self.epoch_interval_s}"
            )
        if self.stage_retries < 0:
            raise ValueError(f"stage_retries must be >= 0, got {self.stage_retries}")
        if self.telemetry_port is not None and self.telemetry_port < 0:
            raise ValueError(
                f"telemetry_port must be >= 0 (or None), got {self.telemetry_port}"
            )
        if self.recorder_epochs < 1:
            raise ValueError(
                f"recorder_epochs must be >= 1, got {self.recorder_epochs}"
            )


@dataclass(frozen=True)
class EpochOutcome:
    """One service epoch: the controller's report plus the sharded stages."""

    report: EpochReport
    arms: "tuple[dict, ...]" = ()
    stage_failures: int = 0
    stage_retries: int = 0
    shard_pids: "tuple[int, ...]" = ()
    epoch_latency_s: float = 0.0
    slo_violation: bool = False


@dataclass
class ServiceReport:
    """Outcome of one service run (either driver)."""

    outcomes: "list[EpochOutcome]" = field(default_factory=list)
    drained: bool = True
    stopped_early: bool = False
    abandoned_batches: int = 0
    worker_pids: "tuple[int, ...]" = ()
    worker_deaths: int = 0
    stage_retries: int = 0
    slo_violations: int = 0
    admitted_mb: float = 0.0
    shed_mb: float = 0.0
    parked_mb: float = 0.0
    backlog_mb: float = 0.0
    incident_bundles: "list[str]" = field(default_factory=list)

    @property
    def reports(self) -> "list[EpochReport]":
        """The controller's per-epoch reports (the bit-identity surface)."""
        return [outcome.report for outcome in self.outcomes]

    @property
    def n_epochs(self) -> int:
        return len(self.outcomes)


class SchedulingService:
    """Continuous scheduling loop over an :class:`EpochController`.

    The controller keeps full ownership of scheduling state (VOQs,
    deadline ladder, conservation ledgers); the service owns *time and
    concurrency* — ingestion, the epoch clock, stage sharding, shutdown.
    """

    def __init__(
        self,
        controller: EpochController,
        arrivals: ArrivalProcess,
        config: "ServiceConfig | None" = None,
    ) -> None:
        self.controller = controller
        self.arrivals = arrivals
        self.config = config if config is not None else ServiceConfig()
        self._stop_requested = False
        self._stop_event: "asyncio.Event | None" = None
        #: Live telemetry plane; ``None`` until a run starts with
        #: ``telemetry_port`` / ``incidents_dir`` configured.  Smokes read
        #: ``service.telemetry.port`` to find the ephemeral scrape port.
        self.telemetry = None
        # Advisory heartbeat extras, replaced wholesale each epoch so the
        # ticker thread always reads a complete dict (no partial updates).
        self._hb_status: dict = {"service_epoch": None, "epochs_done": 0}

    # ------------------------------------------------------------------ #

    def request_stop(self) -> None:
        """Ask the loop to stop at the next batch boundary (thread-safe-ish:
        call from the loop thread or a signal handler on the loop)."""
        self._stop_requested = True
        if self.telemetry is not None:
            self.telemetry.set_draining(True)
        if self._stop_event is not None:
            self._stop_event.set()

    # ------------------------------------------------------------------ #
    # live telemetry plane
    # ------------------------------------------------------------------ #

    def _build_telemetry(self, pool: "WorkerPool | None" = None):
        """Construct the :class:`~repro.obs.live.LiveTelemetry` facade, or
        ``None`` when the config leaves the whole plane off (the default —
        nothing below this line runs on the untelemetered path)."""
        config = self.config
        if config.telemetry_port is None and config.incidents_dir is None:
            return None
        # Local imports: the live plane is opt-in, and loop.py must stay
        # importable without dragging the HTTP/incident machinery along.
        from repro.analysis.sweeps import default_run_dir
        from repro.obs.incidents import FlightRecorder
        from repro.obs.live import LiveTelemetry

        incidents_dir = config.incidents_dir
        if incidents_dir is None:
            incidents_dir = default_run_dir() / "incidents"
        recorder = FlightRecorder(
            incidents_dir, window_epochs=config.recorder_epochs
        )
        return LiveTelemetry(
            registry=obs.get_metrics(),
            port=config.telemetry_port,
            host=config.telemetry_host,
            recorder=recorder,
            pool_status_fn=pool.liveness if pool is not None else None,
        )

    def _heartbeat_status(self) -> dict:
        """Advisory extras for the service heartbeat (ticker thread)."""
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.touch()  # /healthz freshness rides the same beat
        return dict(self._hb_status)

    def _slo_reasons(self, report: EpochReport, latency_s: float) -> "list[str]":
        reasons: "list[str]" = []
        if report.deadline_hit:
            reasons.append("schedule_deadline")
        if (
            self.config.epoch_interval_s > 0
            and latency_s > self.config.epoch_interval_s
        ):
            reasons.append("epoch_overrun")
        return reasons

    def _note_epoch(
        self,
        epoch: int,
        outcome: EpochOutcome,
        *,
        records: "list[dict]",
        deaths: "list[dict]",
    ) -> "list[str]":
        """Update heartbeat extras + feed the telemetry plane one epoch.

        Returns the incident-bundle paths the flight recorder wrote (as
        strings, ready for :attr:`ServiceReport.incident_bundles`).
        """
        report = outcome.report
        status = {
            "service_epoch": epoch,
            "epochs_done": int(self._hb_status.get("epochs_done", 0)) + 1,
            "backlog_mb": report.backlog_after,
            "fallback_level": report.fallback_level,
        }
        telemetry = self.telemetry
        if telemetry is None:
            self._hb_status = status
            return []
        paths = telemetry.on_epoch(
            epoch=epoch,
            report=asdict(report),
            outcome={
                "slo_violation": outcome.slo_violation,
                "slo_reasons": self._slo_reasons(report, outcome.epoch_latency_s),
                "epoch_latency_s": outcome.epoch_latency_s,
                "stage_failures": outcome.stage_failures,
                "stage_retries": outcome.stage_retries,
                "shard_pids": list(outcome.shard_pids),
            },
            records=records,
            worker_deaths=deaths,
        )
        status["slo_burn_rate"] = telemetry.burn.rates()
        self._hb_status = status
        return [str(path) for path in paths]

    # ------------------------------------------------------------------ #

    def _stage_tasks(self, demand: np.ndarray, epoch: int) -> "list[StageTask]":
        config = self.config
        if config.n_workers == 0 or float(demand.sum()) <= 0.0:
            return []
        params = self.controller.params
        tasks = [
            StageTask(
                name=f"arm:{name}",
                fn="repro.service.stages:scheduler_arm",
                kwargs={
                    "name": name,
                    "demand": demand,
                    "params": params,
                    "use_composite_paths": self.controller.use_composite_paths,
                    "horizon": self.controller.epoch_duration,
                },
            )
            for name in config.arms
        ]
        if config.shard_backups and self.controller.use_composite_paths:
            dead_o2m, dead_m2o = self.controller.dead_composite_ports
            tasks.append(
                StageTask(
                    name="backup",
                    fn="repro.service.stages:backup_arm",
                    kwargs={
                        "demand": demand,
                        "params": params,
                        "blocked_o2m": dead_o2m,
                        "blocked_m2o": dead_m2o,
                    },
                )
            )
        return tasks

    def _publish_epoch(self, outcome: EpochOutcome) -> None:
        if not obs.active():
            return
        metrics = obs.get_metrics()
        if not metrics.enabled:
            return
        report = outcome.report
        metrics.counter("service_epochs_total", "service epochs executed").inc()
        metrics.histogram(
            "service_epoch_latency",
            "wall-clock seconds per service epoch (offer + schedule + execute)",
        ).observe(outcome.epoch_latency_s)
        metrics.gauge(
            "service_backlog_mb", "VOQ backlog (Mb) after the latest service epoch"
        ).set(report.backlog_after)
        if report.shed_volume:
            metrics.counter(
                "service_shed_mb_total",
                "arrival volume (Mb) refused by backpressure while serving",
            ).inc(report.shed_volume)
        if outcome.stage_retries:
            metrics.counter(
                "service_stage_retries_total",
                "sharded stages retried after a worker death",
            ).inc(outcome.stage_retries)
        violations = metrics.counter(
            "service_slo_violations_total",
            "epochs that missed a service objective (by reason)",
        )
        if report.deadline_hit:
            violations.labels(reason="schedule_deadline").inc()
        if (
            self.config.epoch_interval_s > 0
            and outcome.epoch_latency_s > self.config.epoch_interval_s
        ):
            violations.labels(reason="epoch_overrun").inc()

    def _outcome(
        self,
        report: EpochReport,
        stage_results: "list[StageResult]",
        retries: int,
        latency_s: float,
    ) -> EpochOutcome:
        slo = report.deadline_hit or (
            self.config.epoch_interval_s > 0
            and latency_s > self.config.epoch_interval_s
        )
        return EpochOutcome(
            report=report,
            arms=tuple(r.payload for r in stage_results if r.ok),
            stage_failures=sum(1 for r in stage_results if not r.ok),
            stage_retries=retries,
            shard_pids=tuple(
                sorted({r.pid for r in stage_results if r.pid is not None})
            ),
            epoch_latency_s=latency_s,
            slo_violation=slo,
        )

    def _finalize(self, report: ServiceReport) -> ServiceReport:
        report.slo_violations = sum(1 for o in report.outcomes if o.slo_violation)
        report.stage_retries = sum(o.stage_retries for o in report.outcomes)
        report.shed_mb = self.controller.shed_volume_total
        report.parked_mb = self.controller.parked_volume
        report.backlog_mb = self.controller.voqs.backlog
        # A service run must never lose a byte: audit the controller's
        # offered = admitted + shed + parked ledger before reporting.
        self.controller.check_conservation()
        return report

    # ------------------------------------------------------------------ #

    def run_sync(self) -> ServiceReport:
        """Synchronous driver: the exact ``offer``/``run_epoch`` sequence of
        :meth:`EpochController.run` — bit-identical reports, no asyncio,
        no worker pool."""
        if self.config.n_epochs is None:
            raise ValueError("run_sync() needs a finite n_epochs")
        report = ServiceReport()
        self.telemetry = self._build_telemetry()
        if self.telemetry is not None:
            self.telemetry.start()
        tracer = obs.get_tracer()
        trace_watermark = (
            len(tracer.records())
            if self.telemetry is not None and tracer.enabled
            else 0
        )
        try:
            for epoch in range(self.config.n_epochs):
                if self._stop_requested:
                    report.stopped_early = True
                    break
                report.admitted_mb += self.controller.offer(self.arrivals(epoch))
                start = time.perf_counter()
                epoch_report, _result = self.controller.run_epoch(epoch)
                outcome = self._outcome(
                    epoch_report, [], 0, time.perf_counter() - start
                )
                report.outcomes.append(outcome)
                self._publish_epoch(outcome)
                if self.telemetry is not None and tracer.enabled:
                    # Non-destructive len-watermark slice: ``records()`` is
                    # the whole buffer, the tail past the mark is this epoch.
                    records = tracer.records()
                    epoch_records = list(records[trace_watermark:])
                    trace_watermark = len(records)
                else:
                    epoch_records = []
                report.incident_bundles.extend(
                    self._note_epoch(
                        epoch, outcome, records=epoch_records, deaths=[]
                    )
                )
        finally:
            if self.telemetry is not None:
                self.telemetry.stop()
        return self._finalize(report)

    async def run(self) -> ServiceReport:
        """Asyncio driver: ingestion + epoch tasks + sharded stages."""
        config = self.config
        loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self._stop_requested:
            self._stop_event.set()
        queue: "asyncio.Queue" = asyncio.Queue(maxsize=config.queue_depth)
        pool = (
            WorkerPool(
                config.n_workers,
                retries=config.stage_retries,
                timeout_s=config.stage_timeout_s,
            )
            if config.n_workers > 0 and (config.arms or config.shard_backups)
            else None
        )
        self.telemetry = self._build_telemetry(pool)
        if self.telemetry is not None:
            self.telemetry.start()
        tracer = obs.get_tracer()
        trace_watermark = (
            len(tracer.records())
            if self.telemetry is not None and tracer.enabled
            else 0
        )
        death_watermark = len(pool.death_log) if pool is not None else 0
        ticker = None
        journal = self.controller.journal
        if config.heartbeat and journal is not None and journal.path is not None:
            ticker = HeartbeatTicker(
                heartbeat_dir(journal.path),
                "service",
                experiment="service",
                status_fn=self._heartbeat_status,
            ).start()

        report = ServiceReport()
        ingest = asyncio.ensure_future(self._ingest(queue))
        start_mono = config.mono_clock()
        try:
            epochs_done = 0
            while True:
                if self._stop_event.is_set() and not config.drain:
                    report.drained = False
                    break
                batch = await queue.get()
                if batch is _STREAM_END:
                    break
                epoch, demand = batch
                if config.epoch_interval_s > 0:
                    # Fire on the monotonic grid: epoch k starts no earlier
                    # than k intervals after service start (no wall clock —
                    # an NTP step must never stretch or squeeze an epoch).
                    delay = (
                        start_mono
                        + epochs_done * config.epoch_interval_s
                        - config.mono_clock()
                    )
                    if delay > 0:
                        await config.async_sleep(delay)
                start = time.perf_counter()
                report.admitted_mb += self.controller.offer(demand)
                snapshot = self.controller.voqs.occupancy.copy()
                tasks = self._stage_tasks(snapshot, epoch) if pool is not None else []
                retries_before = pool.tasks_retried if pool is not None else 0
                stage_future = (
                    loop.run_in_executor(None, pool.map, tasks) if tasks else None
                )
                epoch_report, _result = await loop.run_in_executor(
                    None, self.controller.run_epoch, epoch
                )
                stage_results = await stage_future if stage_future is not None else []
                # Worker span/metric blobs fold in here, on the loop thread
                # — the pool never touches the tracer from its own threads.
                absorb_observations(stage_results)
                outcome = self._outcome(
                    epoch_report,
                    stage_results,
                    (pool.tasks_retried - retries_before) if pool is not None else 0,
                    time.perf_counter() - start,
                )
                report.outcomes.append(outcome)
                self._publish_epoch(outcome)
                if self.telemetry is not None and tracer.enabled:
                    # Non-destructive len-watermark slice: the tail past the
                    # mark is everything closed this epoch, absorbed worker
                    # blobs included (absorb_observations ran just above).
                    records = tracer.records()
                    epoch_records = list(records[trace_watermark:])
                    trace_watermark = len(records)
                else:
                    epoch_records = []
                deaths: "list[dict]" = []
                if pool is not None:
                    # Len-slice off the tail: appends are GIL-atomic and
                    # only ever grow the list.
                    log = pool.death_log
                    deaths = list(log[death_watermark : len(log)])
                    death_watermark += len(deaths)
                report.incident_bundles.extend(
                    self._note_epoch(
                        epoch, outcome, records=epoch_records, deaths=deaths
                    )
                )
                epochs_done += 1
        finally:
            if not ingest.done():
                ingest.cancel()
            try:
                await ingest
            except asyncio.CancelledError:
                pass
            while not queue.empty():
                if queue.get_nowait() is not _STREAM_END:
                    report.abandoned_batches += 1
            if pool is not None:
                report.worker_pids = tuple(sorted(pool.pids))
                report.worker_deaths = pool.worker_deaths
                pool.close()
            if ticker is not None:
                ticker.stop()
            if self.telemetry is not None:
                self.telemetry.stop()
            self._stop_event = None
        report.stopped_early = self._stop_requested
        return self._finalize(report)

    async def _ingest(self, queue: "asyncio.Queue") -> None:
        """Pull batches from the async arrival stream into the bounded queue."""
        assert self._stop_event is not None
        stream = arrival_stream(self.arrivals, self.config.n_epochs)
        async for epoch, demand in stream:
            if self._stop_event.is_set():
                break
            # The draw itself is sync and cheap; backpressure comes from
            # the bounded put below, which suspends ingestion while the
            # epoch task is queue_depth batches behind.
            await queue.put((epoch, demand))
        await queue.put(_STREAM_END)
