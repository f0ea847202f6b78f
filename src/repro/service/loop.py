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
* the per-epoch **advisory scheduler arms** (see
  :mod:`repro.service.stages`) are sharded across a warm
  :class:`~repro.runner.pool.WorkerPool` and overlap with the inline
  epoch execution; a worker death respawns the worker and retries the
  stage.

Two drivers share one code path for the controller calls:

* :meth:`SchedulingService.run` — the asyncio loop above;
* :meth:`SchedulingService.run_sync` — a plain synchronous driver that
  issues the *identical* ``offer``/``run_epoch`` sequence and is
  therefore bit-identical to :meth:`EpochController.run`.

Both close every epoch through :meth:`SchedulingService._close_epoch`,
which computes each per-epoch fact once — latency, SLO reasons, metrics,
the status snapshot (:meth:`SchedulingService.status`) and the flight
recorder's frame.

Shutdown is drain-by-default: :meth:`request_stop` (or the CLI's SIGTERM
handler) stops ingestion at the next batch boundary, the epoch task
finishes everything already queued, workers are joined, and the final
:class:`ServiceReport` carries balanced conservation ledgers.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs
from repro.hybrid.base import make_scheduler
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
    stage_retries / stage_timeout_s:
        Pool crash-retry budget and per-stage wall-clock budget.
    drain:
        On stop: finish every batch already queued (``True``, default) or
        abandon the queue immediately (``False`` — abandoned batches are
        counted, never silently lost).
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
    stage_retries: int = 1
    stage_timeout_s: "float | None" = None
    drain: bool = True
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
        for arm in self.arms:
            make_scheduler(arm)  # an unknown arm name raises here, not per epoch
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
    """One service epoch: the controller's report plus the sharded stages.

    ``epoch_latency_s`` runs from just before ``offer`` to the end of
    ``run_epoch`` (and of the sharded stages).  ``slo_reasons`` names the
    objectives the epoch missed: ``schedule_deadline`` (the anytime ladder
    ran out of budget) and/or ``epoch_overrun`` (the epoch took longer than
    ``epoch_interval_s``).
    """

    report: EpochReport
    arms: "tuple[dict, ...]" = ()
    stage_failures: int = 0
    stage_retries: int = 0
    shard_pids: "tuple[int, ...]" = ()
    epoch_latency_s: float = 0.0
    slo_reasons: "tuple[str, ...]" = ()

    @property
    def slo_violation(self) -> bool:
        return bool(self.slo_reasons)


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
        #: ``telemetry_port`` / ``incidents_dir`` configured.  Callers read
        #: ``service.telemetry.port`` to find the ephemeral scrape port.
        self.telemetry = None
        self._pool: "WorkerPool | None" = None
        # The per-epoch part of status(), replaced wholesale at each epoch
        # close so the beat thread always reads a complete dict.
        self._status: dict = {"epoch": None, "epochs_done": 0}
        # Len-watermarks of the tracer buffer and the pool's death log: the
        # tail past each mark is what the current epoch added.
        self._trace_mark = 0
        self._death_mark = 0

    # ------------------------------------------------------------------ #

    def request_stop(self) -> None:
        """Ask the loop to stop at the next batch boundary (thread-safe-ish:
        call from the loop thread or a signal handler on the loop)."""
        self._stop_requested = True
        if self._stop_event is not None:
            self._stop_event.set()

    def status(self) -> dict:
        """The service's status snapshot.

        The heartbeat's extras, ``GET /status`` and ``repro obs watch`` all
        read these keys (table in docs/service.md).  Safe to call from any
        thread.
        """
        status = dict(self._status)
        status["draining"] = self._stop_requested
        telemetry, pool = self.telemetry, self._pool
        if telemetry is not None:
            status.update(telemetry.status_fields)
        if pool is not None:
            try:
                status["workers"] = pool.liveness()
            except Exception:  # noqa: BLE001 — a liveness probe must not fail
                status["workers"] = None
        return status

    # ------------------------------------------------------------------ #
    # per-run liveness plane
    # ------------------------------------------------------------------ #

    def _build_telemetry(self):
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
            status_fn=self.status,
        )

    def _beat(self) -> dict:
        """One liveness beat (ticker thread): keeps ``/healthz`` fresh and
        returns the status snapshot as the heartbeat's extras."""
        if self.telemetry is not None:
            self.telemetry.touch()
        return self.status()

    @contextlib.contextmanager
    def _running(self, pool: "WorkerPool | None" = None):
        """One run's liveness plane: telemetry, the status snapshot and the
        beat.  The beat runs whenever the telemetry plane is on or the
        controller has a journal; it writes a ``service`` heartbeat file
        only next to a journal."""
        self._pool = pool
        self._status = {"epoch": None, "epochs_done": 0}
        self.telemetry = self._build_telemetry()
        tracer = obs.get_tracer()
        self._trace_mark = (
            len(tracer.records())
            if self.telemetry is not None and tracer.enabled
            else 0
        )
        self._death_mark = 0
        journal = self.controller.journal
        beat_dir = (
            heartbeat_dir(journal.path)
            if journal is not None and journal.path is not None
            else None
        )
        if self.telemetry is not None:
            self.telemetry.start()
        ticker = None
        try:
            if self.telemetry is not None or beat_dir is not None:
                ticker = HeartbeatTicker(
                    beat_dir, "service", experiment="service", status_fn=self._beat
                ).start()
            yield
        finally:
            if ticker is not None:
                ticker.stop()
            if self.telemetry is not None:
                self.telemetry.stop()
            self._pool = None

    # ------------------------------------------------------------------ #

    def _stage_tasks(self, demand: np.ndarray, epoch: int) -> "list[StageTask]":
        config = self.config
        if config.n_workers == 0 or float(demand.sum()) <= 0.0:
            return []
        params = self.controller.params
        return [
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

    def _close_epoch(
        self,
        run: ServiceReport,
        epoch: int,
        report: EpochReport,
        start: float,
        stage_results: "list[StageResult]" = (),
        retries: int = 0,
    ) -> None:
        """Close one epoch (both drivers): outcome, metrics, status, recorder.

        ``start`` is the ``perf_counter`` reading taken just before
        ``offer``; the latency stops here, before any of the close work.
        """
        latency_s = time.perf_counter() - start
        reasons = []
        if report.deadline_hit:
            reasons.append("schedule_deadline")
        interval_s = self.config.epoch_interval_s
        if interval_s > 0 and latency_s > interval_s:
            reasons.append("epoch_overrun")
        outcome = EpochOutcome(
            report=report,
            arms=tuple(r.payload for r in stage_results if r.ok),
            stage_failures=sum(1 for r in stage_results if not r.ok),
            stage_retries=retries,
            shard_pids=tuple(
                sorted({r.pid for r in stage_results if r.pid is not None})
            ),
            epoch_latency_s=latency_s,
            slo_reasons=tuple(reasons),
        )
        run.outcomes.append(outcome)
        run.slo_violations += outcome.slo_violation
        run.stage_retries += retries
        self._publish_epoch(outcome)
        status = {
            "epoch": epoch,
            "epochs_done": len(run.outcomes),
            "backlog_mb": report.backlog_after,
            "fallback_level": report.fallback_level,
            "deadline_hit": report.deadline_hit,
            "reroute_swaps": report.reroute_swaps,
            "epoch_latency_s": latency_s,
            "slo_violations": run.slo_violations,
        }
        if self.telemetry is not None:
            bundles = self.telemetry.on_epoch(
                epoch=epoch,
                report=asdict(report),
                outcome={
                    "slo_violation": outcome.slo_violation,
                    "slo_reasons": reasons,
                    "epoch_latency_s": latency_s,
                    "stage_failures": outcome.stage_failures,
                    "stage_retries": retries,
                    "shard_pids": list(outcome.shard_pids),
                },
                records=self._epoch_records(),
                worker_deaths=self._epoch_deaths(),
            )
            run.incident_bundles.extend(str(path) for path in bundles)
        self._status = status

    def _epoch_records(self) -> "list[dict]":
        """Trace records closed since the last epoch (absorbed worker blobs
        included): a non-destructive slice past the watermark."""
        tracer = obs.get_tracer()
        if not tracer.enabled:
            return []
        records = tracer.records()
        tail = list(records[self._trace_mark :])
        self._trace_mark = len(records)
        return tail

    def _epoch_deaths(self) -> "list[dict]":
        """Worker deaths logged since the last epoch.  Appends to the death
        log are GIL-atomic and only ever grow it, so a len-slice is safe."""
        if self._pool is None:
            return []
        log = self._pool.death_log
        deaths = list(log[self._death_mark : len(log)])
        self._death_mark += len(deaths)
        return deaths

    def _publish_epoch(self, outcome: EpochOutcome) -> None:
        if not obs.active():
            return
        metrics = obs.get_metrics()
        if not metrics.enabled:
            return
        # Epoch count, backlog and shed volume are the controller's series
        # (controller_epochs_total, controller_backlog_mb,
        # controller_shed_mb_total); the service adds only what it owns.
        metrics.histogram(
            "service_epoch_latency",
            "wall-clock seconds per service epoch (offer + schedule + execute)",
        ).observe(outcome.epoch_latency_s)
        if outcome.stage_retries:
            metrics.counter(
                "service_stage_retries_total",
                "sharded stages retried after a worker death",
            ).inc(outcome.stage_retries)
        violations = metrics.counter(
            "service_slo_violations_total",
            "epochs that missed a service objective (by reason)",
        )
        for reason in outcome.slo_reasons:
            violations.labels(reason=reason).inc()

    def _finalize(self, run: ServiceReport) -> ServiceReport:
        run.shed_mb = self.controller.shed_volume_total
        run.parked_mb = self.controller.parked_volume
        run.backlog_mb = self.controller.voqs.backlog
        # A service run must never lose a byte: audit the controller's
        # offered = admitted + shed + parked ledger before reporting.
        self.controller.check_conservation()
        return run

    # ------------------------------------------------------------------ #

    def run_sync(self) -> ServiceReport:
        """Synchronous driver: the exact ``offer``/``run_epoch`` sequence of
        :meth:`EpochController.run` — bit-identical reports, no asyncio,
        no worker pool."""
        if self.config.n_epochs is None:
            raise ValueError("run_sync() needs a finite n_epochs")
        run = ServiceReport()
        with self._running():
            for epoch in range(self.config.n_epochs):
                if self._stop_requested:
                    run.stopped_early = True
                    break
                demand = self.arrivals(epoch)
                start = time.perf_counter()
                run.admitted_mb += self.controller.offer(demand)
                epoch_report, _result = self.controller.run_epoch(epoch)
                self._close_epoch(run, epoch, epoch_report, start)
        return self._finalize(run)

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
            if config.n_workers > 0 and config.arms
            else None
        )
        run = ServiceReport()
        stream_error: "Exception | None" = None
        with self._running(pool):
            ingest = asyncio.ensure_future(self._ingest(queue))
            start_mono = config.mono_clock()
            try:
                while True:
                    if self._stop_event.is_set() and not config.drain:
                        run.drained = False
                        break
                    batch = await queue.get()
                    if batch is _STREAM_END:
                        break
                    epoch, demand = batch
                    if config.epoch_interval_s > 0:
                        # Fire on the monotonic grid: epoch k starts no
                        # earlier than k intervals after service start (no
                        # wall clock — an NTP step must never stretch or
                        # squeeze an epoch).
                        delay = (
                            start_mono
                            + len(run.outcomes) * config.epoch_interval_s
                            - config.mono_clock()
                        )
                        if delay > 0:
                            await config.async_sleep(delay)
                    start = time.perf_counter()
                    run.admitted_mb += self.controller.offer(demand)
                    tasks = (
                        self._stage_tasks(self.controller.voqs.occupancy.copy(), epoch)
                        if pool is not None
                        else []
                    )
                    retries_before = pool.tasks_retried if pool is not None else 0
                    stage_future = (
                        loop.run_in_executor(None, pool.map, tasks) if tasks else None
                    )
                    epoch_report, _result = await loop.run_in_executor(
                        None, self.controller.run_epoch, epoch
                    )
                    stage_results = (
                        await stage_future if stage_future is not None else []
                    )
                    # Worker span/metric blobs fold in here, on the loop
                    # thread — the pool never touches the tracer from its
                    # own threads.
                    absorb_observations(stage_results)
                    self._close_epoch(
                        run,
                        epoch,
                        epoch_report,
                        start,
                        stage_results,
                        (pool.tasks_retried - retries_before) if pool is not None else 0,
                    )
            finally:
                ingest.cancel()  # a no-op once the stream has ended
                try:
                    await ingest
                except asyncio.CancelledError:
                    pass
                except Exception as exc:  # noqa: BLE001 — re-raised below
                    # The arrival process raised.  Finish this block first:
                    # the pool must close even when the error ends the run.
                    stream_error = exc
                while not queue.empty():
                    if queue.get_nowait() is not _STREAM_END:
                        run.abandoned_batches += 1
                if pool is not None:
                    run.worker_pids = tuple(sorted(pool.pids))
                    run.worker_deaths = pool.worker_deaths
                    pool.close()
                self._stop_event = None
        if stream_error is not None:
            raise stream_error
        run.stopped_early = self._stop_requested
        return self._finalize(run)

    async def _ingest(self, queue: "asyncio.Queue") -> None:
        """Pull batches from the async arrival stream into the bounded queue.

        The stream always ends with :data:`_STREAM_END`, also when the
        arrival process raises: the epoch task waits on ``queue.get()`` and
        would otherwise wait forever.  :meth:`run` re-raises the error once
        it has served the batches queued before it.  A cancelled ingestion
        queues nothing, because :meth:`run` cancels it only once it has
        stopped reading the queue.
        """
        assert self._stop_event is not None
        stream = arrival_stream(self.arrivals, self.config.n_epochs)
        try:
            async for epoch, demand in stream:
                if self._stop_event.is_set():
                    break
                # The draw itself is sync and cheap; backpressure comes from
                # the bounded put below, which suspends ingestion while the
                # epoch task is queue_depth batches behind.
                await queue.put((epoch, demand))
        except Exception:
            # A cancel while the queue is full must not swallow the error.
            with contextlib.suppress(asyncio.CancelledError):
                await queue.put(_STREAM_END)
            raise
        await queue.put(_STREAM_END)
