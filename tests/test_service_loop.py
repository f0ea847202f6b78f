"""Tests for the asyncio scheduling service (:mod:`repro.service.loop`).

The load-bearing contracts:

* the synchronous driver is **bit-identical** to
  :meth:`EpochController.run` (hypothesis-fuzzed across schedulers and
  kernel backends);
* the asyncio driver offers/executes the same epoch sequence, shards the
  auxiliary stages across warm workers, and drains cleanly on stop;
* sustained overload sheds through the controller's conservation ledger —
  the service audits it at the end of every run, so a lost byte fails
  the report;
* a worker death mid-stage respawns the worker and retries the stage.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import time
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import obs
from repro.analysis.controller import EpochController
from repro.faults import FaultPlan
from repro.hybrid.base import make_scheduler
from repro.matching import kernels
from repro.obs.incidents import (
    TRIGGER_CRASH,
    TRIGGER_FALLBACK,
    TRIGGER_KINDS,
    TRIGGER_REROUTE,
    TRIGGER_SLO,
    load_incident,
)
from repro.obs.watch import SERVICE_STATUS_KEYS, collect_state
from repro.runner.heartbeat import heartbeat_dir, read_heartbeats, write_heartbeat
from repro.runner.journal import RunJournal
from repro.runner.pool import StageTask, WorkerPool
from repro.service import SchedulingService, ServiceConfig, TickClock
from repro.service.loop import ServiceReport
from repro.switch.params import fast_ocs_params
from repro.workloads.arrivals import WorkloadArrivals, arrival_stream
from repro.workloads.skewed import SkewedWorkload
from tests._openmetrics import parse_openmetrics
from tests.test_reroute import covering_demand

N = 8
PARAMS = fast_ocs_params(N)
BACKENDS = (kernels.ORACLE, kernels.KERNEL)

_DIE_ONCE = "tests._runner_trials:die_once_stage"


def make_controller(**overrides) -> EpochController:
    overrides.setdefault("params", PARAMS)
    overrides.setdefault("scheduler", make_scheduler("solstice"))
    overrides.setdefault("use_composite_paths", True)
    overrides.setdefault("epoch_duration", 50.0)
    return EpochController(**overrides)


def make_arrivals(seed: int = 7, intensity: float = 0.5) -> WorkloadArrivals:
    return WorkloadArrivals(
        SkewedWorkload(), n_ports=N, seed=seed, intensity=intensity
    )


DRIVERS = ("sync", "async")


def _scrape(port: int, path: str) -> "tuple[int, str, str]":
    """(HTTP status, body, content type) of one GET."""
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=5) as response:
        return (
            response.status,
            response.read().decode("utf-8"),
            response.headers.get("Content-Type"),
        )


def _run(service: SchedulingService, driver: str) -> ServiceReport:
    if driver == "sync":
        return service.run_sync()
    return asyncio.run(service.run())


def fuzz_demand(n: int = N, max_value: float = 12.0):
    """Strategy: one sparse non-negative demand matrix at radix ``n``."""
    return st.tuples(
        arrays(
            np.float64,
            (n, n),
            elements=st.floats(0.0, max_value, allow_nan=False, width=32),
        ),
        arrays(np.bool_, (n, n)),
    ).map(lambda pair: pair[0] * pair[1] * (~np.eye(n, dtype=bool)))


class TestArrivalStream:
    def test_yields_exact_process_draws(self):
        arrivals = make_arrivals()

        async def collect():
            return [item async for item in arrival_stream(arrivals, 3)]

        items = asyncio.run(collect())
        assert [epoch for epoch, _ in items] == [0, 1, 2]
        for epoch, demand in items:
            np.testing.assert_array_equal(demand, arrivals(epoch))


def _failing_arrivals(fail_at: int):
    """Arrivals that raise when asked for epoch ``fail_at``."""
    arrivals = make_arrivals()

    def process(epoch: int) -> np.ndarray:
        if epoch == fail_at:
            raise RuntimeError(f"arrival process failed at epoch {fail_at}")
        return arrivals(epoch)

    return process


class TestFailingArrivals:
    """A raising arrival process ends ``run()`` with its error: no hang, no
    worker left behind."""

    @pytest.mark.parametrize("n_workers", [0, 1])
    @pytest.mark.parametrize("fail_at", [0, 1])
    def test_run_reraises_and_closes_the_pool(self, fail_at, n_workers):
        service = SchedulingService(
            make_controller(),
            _failing_arrivals(fail_at),
            ServiceConfig(n_epochs=3, n_workers=n_workers),
        )
        before = set(multiprocessing.active_children())

        async def bounded():
            task = asyncio.ensure_future(service.run())
            try:
                return await asyncio.wait_for(asyncio.shield(task), timeout=20.0)
            except asyncio.TimeoutError:
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
                pytest.fail("run() hung on a failing arrival process")

        with pytest.raises(RuntimeError, match=f"failed at epoch {fail_at}"):
            asyncio.run(bounded())
        # The epochs drawn before the failure were served.
        assert service.status()["epochs_done"] == fail_at
        assert set(multiprocessing.active_children()) <= before

    def test_sync_driver_raises_at_once(self):
        service = SchedulingService(
            make_controller(),
            _failing_arrivals(1),
            ServiceConfig(n_epochs=3, n_workers=0),
        )
        with pytest.raises(RuntimeError, match="failed at epoch 1"):
            service.run_sync()


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_epochs": 0},
            {"n_workers": -1},
            {"queue_depth": 0},
            {"epoch_interval_s": -0.1},
            {"stage_retries": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestSyncDriver:
    def test_bit_identical_to_controller_run(self):
        arrivals = make_arrivals()
        reference = make_controller().run(arrivals, 4)
        service = SchedulingService(
            make_controller(), arrivals, ServiceConfig(n_epochs=4, n_workers=0)
        )
        report = service.run_sync()
        assert report.reports == reference
        assert report.n_epochs == 4
        assert not report.stopped_early

    def test_requires_finite_epochs(self):
        service = SchedulingService(
            make_controller(), make_arrivals(), ServiceConfig(n_epochs=None)
        )
        with pytest.raises(ValueError, match="n_epochs"):
            service.run_sync()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["solstice", "eclipse"])
    @given(demands=st.lists(fuzz_demand(), min_size=2, max_size=3))
    @settings(max_examples=10, deadline=None)
    def test_fuzzed_bit_identity(self, backend, name, demands):
        arrivals = lambda epoch: demands[epoch]  # noqa: E731
        with kernels.use_backend(backend):
            reference = make_controller(scheduler=make_scheduler(name)).run(
                arrivals, len(demands)
            )
            service = SchedulingService(
                make_controller(scheduler=make_scheduler(name)),
                arrivals,
                ServiceConfig(n_epochs=len(demands), n_workers=0),
            )
            report = service.run_sync()
        assert report.reports == reference


class TestAsyncDriver:
    def test_same_reports_as_sync(self):
        arrivals = make_arrivals()
        reference = make_controller().run(arrivals, 3)
        service = SchedulingService(
            make_controller(), arrivals, ServiceConfig(n_epochs=3, n_workers=0)
        )
        report = asyncio.run(service.run())
        assert report.reports == reference
        assert report.drained
        assert not report.stopped_early
        assert report.abandoned_batches == 0

    def test_shards_stages_across_warm_workers(self):
        service = SchedulingService(
            make_controller(),
            make_arrivals(),
            ServiceConfig(n_epochs=3, n_workers=2),
        )
        report = asyncio.run(service.run())
        assert report.drained
        assert len(report.worker_pids) == 2
        assert report.worker_deaths == 0
        for outcome in report.outcomes:
            # The two default scheduler arms, both successful.
            assert len(outcome.arms) == 2
            assert outcome.stage_failures == 0
            assert set(outcome.shard_pids) <= set(report.worker_pids)
        # At least one epoch demonstrably used >= 2 distinct worker processes.
        assert any(len(o.shard_pids) >= 2 for o in report.outcomes)
        arm_names = {arm["arm"] for arm in report.outcomes[0].arms}
        assert arm_names == {"eclipse", "tdm"}

    def test_no_workers_disables_sharding(self):
        service = SchedulingService(
            make_controller(),
            make_arrivals(),
            ServiceConfig(n_epochs=2, n_workers=0),
        )
        report = asyncio.run(service.run())
        assert report.worker_pids == ()
        assert all(o.arms == () for o in report.outcomes)

    def test_publishes_service_metrics(self):
        registry = obs.MetricsRegistry()
        with obs.observability(metrics=registry):
            service = SchedulingService(
                make_controller(),
                make_arrivals(),
                ServiceConfig(n_epochs=2, n_workers=0),
            )
            asyncio.run(service.run())
        snapshot = registry.snapshot()
        # Epoch count and backlog are the controller's series, published once.
        assert snapshot["controller_epochs_total"]["values"][0]["value"] == 2
        latency = snapshot["service_epoch_latency"]["values"][0]
        assert latency["count"] == 2
        assert snapshot["controller_backlog_mb"]["type"] == "gauge"
        assert not {
            "service_epochs_total", "service_backlog_mb", "service_shed_mb_total"
        } & set(snapshot)

    def test_heartbeat_written_next_to_journal(self, tmp_path):
        for driver in DRIVERS:
            journal = RunJournal(tmp_path / f"{driver}.jsonl")
            service = SchedulingService(
                make_controller(journal=journal),
                make_arrivals(),
                ServiceConfig(n_epochs=2, n_workers=0),
            )
            _run(service, driver)
            beats = read_heartbeats(heartbeat_dir(journal.path))
            assert "service" in beats
            beat = beats["service"]
            assert beat["phase"] == "running"
            # The monotonic liveness contract holds for the service beat too.
            assert isinstance(beat["last_progress_mono"], float)
            assert isinstance(beat["started_at_mono"], float)

    def test_pool_liveness_failure_never_breaks_status(self, monkeypatch):
        def broken(self):
            raise OSError("pool gone")

        monkeypatch.setattr(WorkerPool, "liveness", broken)
        service = SchedulingService(
            make_controller(), make_arrivals(), ServiceConfig(n_epochs=1, n_workers=1)
        )
        seen = []
        inner = service.controller.run_epoch

        def run_epoch(epoch):
            seen.append(service.status())
            return inner(epoch)

        service.controller.run_epoch = run_epoch
        asyncio.run(service.run())
        assert seen[0]["workers"] is None

    def test_epoch_clock_fires_on_monotonic_grid(self):
        naps = []
        frozen_mono = lambda: 0.0  # noqa: E731

        async def fake_sleep(seconds):
            naps.append(seconds)

        service = SchedulingService(
            make_controller(),
            make_arrivals(),
            ServiceConfig(
                n_epochs=3,
                n_workers=0,
                epoch_interval_s=1.0,
                mono_clock=frozen_mono,
                async_sleep=fake_sleep,
            ),
        )
        asyncio.run(service.run())
        # Epoch 0 fires immediately; epochs 1 and 2 wait out the grid.
        assert naps == pytest.approx([1.0, 2.0])

    def test_epoch_overrun_counts_as_slo_violation(self):
        service = SchedulingService(
            make_controller(),
            make_arrivals(),
            ServiceConfig(n_epochs=2, n_workers=0, epoch_interval_s=1e-9),
        )
        report = asyncio.run(service.run())
        assert report.slo_violations == 2
        assert all(o.slo_violation for o in report.outcomes)


class TestSoak:
    def test_sustained_overload_sheds_with_balanced_ledger(self):
        # Every epoch misses its (tick-clock) scheduling deadline, arming
        # backpressure; arrivals far outrun the 1 ms epochs, so overflow
        # must land in the shed ledger — and the service's final
        # conservation audit must still balance to the byte.
        controller = make_controller(
            epoch_duration=1.0,
            deadline_s=0.5,
            deadline_clock=TickClock(step=10.0),
            max_backlog=20.0,
            overflow_policy="shed",
        )
        service = SchedulingService(
            controller,
            make_arrivals(intensity=4.0),
            ServiceConfig(n_epochs=6, n_workers=0),
        )
        report = asyncio.run(service.run())
        assert report.n_epochs == 6
        assert all(o.report.deadline_hit for o in report.outcomes)
        assert report.shed_mb > 0.0
        assert report.slo_violations == 6
        # _finalize already ran check_conservation(); re-assert explicitly
        # that the books balance after the run.
        controller.check_conservation()

    def test_park_policy_keeps_overflow_on_the_books(self):
        controller = make_controller(
            epoch_duration=1.0,
            deadline_s=0.5,
            deadline_clock=TickClock(step=10.0),
            max_backlog=20.0,
            overflow_policy="park",
        )
        service = SchedulingService(
            controller,
            make_arrivals(intensity=4.0),
            ServiceConfig(n_epochs=5, n_workers=0),
        )
        report = asyncio.run(service.run())
        assert report.shed_mb == 0.0
        assert report.parked_mb > 0.0
        controller.check_conservation()

    def test_stop_mid_run_drains_and_balances(self):
        arrivals = make_arrivals()
        holder: "list[SchedulingService]" = []

        def stopping_arrivals(epoch):
            if epoch == 2:
                holder[0].request_stop()
            return arrivals(epoch)

        service = SchedulingService(
            make_controller(),
            stopping_arrivals,
            ServiceConfig(n_epochs=10, n_workers=0),
        )
        holder.append(service)
        report = asyncio.run(service.run())
        assert report.stopped_early
        assert report.drained
        # Ingestion stopped at the boundary; everything offered was served
        # through the normal epoch path, nothing abandoned.
        assert report.abandoned_batches == 0
        assert 1 <= report.n_epochs < 10
        service.controller.check_conservation()

    def test_no_drain_stop_counts_abandoned_batches(self):
        arrivals = make_arrivals()
        holder: "list[SchedulingService]" = []

        def stopping_arrivals(epoch):
            if epoch == 3:
                holder[0].request_stop()
            return arrivals(epoch)

        service = SchedulingService(
            make_controller(),
            stopping_arrivals,
            ServiceConfig(n_epochs=10, n_workers=0, queue_depth=8, drain=False),
        )
        holder.append(service)
        report = asyncio.run(service.run())
        assert report.stopped_early
        assert not report.drained
        # Batches left in the queue are counted, never silently dropped.
        assert report.n_epochs + report.abandoned_batches <= 4
        service.controller.check_conservation()

    def test_worker_death_retries_epoch_stage(self, tmp_path, monkeypatch):
        def dying_stage_tasks(self, demand, epoch):
            return [
                StageTask(
                    name=f"die:{epoch}",
                    fn=_DIE_ONCE,
                    kwargs={"marker": str(tmp_path / f"epoch{epoch}.marker")},
                )
            ]

        monkeypatch.setattr(SchedulingService, "_stage_tasks", dying_stage_tasks)
        service = SchedulingService(
            make_controller(),
            make_arrivals(),
            ServiceConfig(n_epochs=2, n_workers=2),
        )
        report = asyncio.run(service.run())
        assert report.n_epochs == 2
        assert report.worker_deaths == 2  # one death per epoch's first attempt
        assert report.stage_retries == 2
        for outcome in report.outcomes:
            assert outcome.stage_failures == 0  # the retry succeeded
            (payload,) = outcome.arms
            assert payload["recovered"] is True


class TestLiveTelemetry:
    def test_scrape_endpoints_live_during_run(self, tmp_path):
        service = SchedulingService(
            make_controller(),
            make_arrivals(),
            ServiceConfig(
                n_epochs=3,
                n_workers=0,
                telemetry_port=0,
                incidents_dir=tmp_path / "incidents",
            ),
        )
        scraped = {}

        async def drive():
            task = asyncio.ensure_future(service.run())
            for _ in range(1000):
                await asyncio.sleep(0.005)
                if service.telemetry is not None and service.telemetry.port:
                    break
            port = service.telemetry.port
            for path in ("metrics", "healthz", "status"):
                scraped[path] = _scrape(port, f"/{path}")
            return await task

        with obs.observability(tracer=obs.JsonlTracer(), metrics=obs.MetricsRegistry()):
            report = asyncio.run(drive())
        assert report.n_epochs == 3
        code, text, ctype = scraped["metrics"]
        assert code == 200
        assert ctype.startswith("application/openmetrics-text")
        assert parse_openmetrics(text)[1] == []
        assert scraped["healthz"][0] == 200
        status = json.loads(scraped["status"][1])
        assert status["draining"] is False
        assert "slo_burn_rate" in status
        assert "incidents" in status
        # A healthy run trips no flight-recorder trigger.
        assert report.incident_bundles == []
        # The server is down after the run drains.
        assert service.telemetry.port is None

    def test_scripted_run_fires_each_trigger_once(self, tmp_path):
        # One asyncio run at radix 16, scripted per epoch: epoch 1 serves
        # the covering workload under a total composite-port outage (one
        # reroute swap), epoch 2 adds a stage whose worker dies once, and
        # epoch 3 steps the tick clock past the 2.5-tick budget (a deep
        # fallback and an SLO miss).  The endpoints are scraped from inside
        # run_epoch, so each scrape sees a fixed number of closed epochs
        # however fast the host is.
        n = 16
        clock = TickClock(0.0)
        controller = EpochController(
            fast_ocs_params(n),
            make_scheduler("solstice"),
            use_composite_paths=True,
            fast_reroute=True,
            deadline_s=2.5,
            deadline_clock=clock,
        )
        base = WorkloadArrivals(SkewedWorkload(), n_ports=n, seed=7, intensity=0.5)
        service = SchedulingService(
            controller,
            lambda epoch: covering_demand() if epoch == 1 else base(epoch),
            ServiceConfig(
                n_epochs=5,
                n_workers=2,
                telemetry_port=0,
                incidents_dir=tmp_path / "incidents",
            ),
        )
        scrapes = {}
        inner_run_epoch = controller.run_epoch

        def run_epoch(epoch):
            controller.fault_plan = (
                FaultPlan(seed=11, o2m_outage_rate=1.0, m2o_outage_rate=1.0)
                if epoch == 1
                else None
            )
            # One tick per clock read overdrafts the budget at the first
            # checkpoint and every cheaper rung after it.
            clock.step = 3.0 if epoch == 3 else 0.0
            if epoch in (1, 4):
                for path in ("/metrics", "/healthz", "/status"):
                    scrapes[epoch, path] = _scrape(service.telemetry.port, path)
            return inner_run_epoch(epoch)

        controller.run_epoch = run_epoch
        inner_stage_tasks = service._stage_tasks

        def stage_tasks(demand, epoch):
            tasks = inner_stage_tasks(demand, epoch)
            if epoch == 2:
                marker = str(tmp_path / "die.marker")
                tasks.append(StageTask(name="die:2", fn=_DIE_ONCE, kwargs={"marker": marker}))
            return tasks

        service._stage_tasks = stage_tasks
        with obs.observability(tracer=obs.JsonlTracer(), metrics=obs.MetricsRegistry()):
            report = asyncio.run(service.run())

        assert report.drained and report.n_epochs == 5
        assert report.slo_violations == 1
        bundles = [load_incident(path) for path in report.incident_bundles]
        pinned = {TRIGGER_REROUTE: 1, TRIGGER_CRASH: 2, TRIGGER_FALLBACK: 3, TRIGGER_SLO: 3}
        assert set(pinned) == set(TRIGGER_KINDS)
        assert sorted((b["trigger"], b["epoch"]) for b in bundles) == sorted(pinned.items())
        frames = {b["trigger"]: b["frames"][-1] for b in bundles}
        assert frames[TRIGGER_REROUTE]["report"]["reroute_swaps"] >= 1
        (death,) = frames[TRIGGER_CRASH]["worker_deaths"]
        assert death["reason"] == "crashed"
        assert frames[TRIGGER_FALLBACK]["report"]["fallback_level"] >= 2
        assert "schedule_deadline" in frames[TRIGGER_SLO]["outcome"]["slo_reasons"]

        latency_counts = []
        for epoch in (1, 4):
            code, text, ctype = scrapes[epoch, "/metrics"]
            assert code == 200 and ctype.startswith("application/openmetrics-text")
            families, problems = parse_openmetrics(text)
            assert problems == []
            latency = families["service_epoch_latency"]
            assert latency["type"] == "histogram"
            latency_counts += [v for suffix, _, v in latency["samples"] if suffix == "_count"]
        assert latency_counts == [1, 4]
        code, text, _ = scrapes[4, "/healthz"]
        assert code == 200 and json.loads(text)["status"] == "ok"
        status = json.loads(scrapes[4, "/status"][1])
        assert status["epochs_done"] == 4 and status["draining"] is False
        assert (status["workers"]["alive"], status["workers"]["deaths"]) == (2, 1)
        assert status["incidents"]["bundles_written"] == 4
        assert status["slo_burn_rate"]["1m"] > 0.0  # the epoch-3 miss

    def test_burn_gauges_published_per_epoch(self):
        service = SchedulingService(
            make_controller(),
            make_arrivals(),
            ServiceConfig(n_epochs=2, n_workers=0, telemetry_port=0),
        )
        registry = obs.MetricsRegistry()
        with obs.observability(metrics=registry):
            asyncio.run(service.run())
        snapshot = registry.snapshot()
        assert "service_slo_burn_rate" in snapshot
        windows = {
            entry["labels"]["window"]
            for entry in snapshot["service_slo_burn_rate"]["values"]
        }
        assert windows == {"1m", "10m"}

    def test_telemetry_on_is_bit_identical(self, tmp_path):
        from dataclasses import asdict

        def run(telemetry: bool) -> ServiceReport:
            service = SchedulingService(
                make_controller(),
                make_arrivals(),
                ServiceConfig(
                    n_epochs=4,
                    n_workers=0,
                    telemetry_port=0 if telemetry else None,
                    incidents_dir=(tmp_path / "incidents") if telemetry else None,
                ),
            )
            return service.run_sync()

        plain = run(False)
        live = run(True)
        assert [asdict(r) for r in live.reports] == [asdict(r) for r in plain.reports]

    def test_deadline_misses_dump_slo_incidents(self, tmp_path):
        from repro.obs.incidents import TRIGGER_SLO, load_incident

        service = SchedulingService(
            make_controller(deadline_s=2.5, deadline_clock=TickClock(3.0)),
            make_arrivals(),
            ServiceConfig(
                n_epochs=2,
                n_workers=0,
                telemetry_port=None,  # recorder alone, no HTTP server
                incidents_dir=tmp_path / "incidents",
            ),
        )
        report = service.run_sync()
        assert report.slo_violations == 2
        slo_bundles = [
            path for path in report.incident_bundles if TRIGGER_SLO in path
        ]
        assert len(slo_bundles) == 2
        bundle = load_incident(slo_bundles[-1])
        assert bundle["trigger"] == TRIGGER_SLO
        assert bundle["frames"][-1]["outcome"]["slo_violation"] is True
        assert "schedule_deadline" in bundle["frames"][-1]["outcome"]["slo_reasons"]

    def test_worker_crash_dumps_incident(self, tmp_path, monkeypatch):
        from repro.obs.incidents import TRIGGER_CRASH, load_incident

        def dying_stage_tasks(self, demand, epoch):
            if epoch != 1:
                return []
            return [
                StageTask(
                    name=f"die:{epoch}",
                    fn=_DIE_ONCE,
                    kwargs={"marker": str(tmp_path / f"epoch{epoch}.marker")},
                )
            ]

        monkeypatch.setattr(SchedulingService, "_stage_tasks", dying_stage_tasks)
        service = SchedulingService(
            make_controller(),
            make_arrivals(),
            ServiceConfig(
                n_epochs=3,
                n_workers=2,
                incidents_dir=tmp_path / "incidents",
            ),
        )
        report = asyncio.run(service.run())
        crash_bundles = [
            path for path in report.incident_bundles if TRIGGER_CRASH in path
        ]
        assert len(crash_bundles) == 1
        bundle = load_incident(crash_bundles[0])
        assert bundle["epoch"] == 1
        (death,) = bundle["frames"][-1]["worker_deaths"]
        assert death["reason"] == "crashed"
        assert death["task"] == "die:1"
        assert isinstance(death["respawned_pid"], int)


class TestEpochClose:
    """Both drivers close every epoch through one path."""

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_latency_spans_offer(self, driver):
        # The latency clock starts just before ``offer``.
        controller = make_controller()
        inner = controller.offer

        def slow_offer(arrivals):
            time.sleep(0.05)
            return inner(arrivals)

        controller.offer = slow_offer
        service = SchedulingService(
            controller, make_arrivals(), ServiceConfig(n_epochs=2, n_workers=0)
        )
        report = _run(service, driver)
        assert all(o.epoch_latency_s >= 0.05 for o in report.outcomes)

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_beat_keeps_healthz_fresh_without_journal(self, tmp_path, driver):
        # An epoch that outlasts a beat interval: with no journal, the beat
        # must still touch the telemetry plane mid-epoch, or /healthz goes
        # stale during a healthy epoch.
        controller = make_controller()
        inner = controller.run_epoch
        touched = []

        def long_run_epoch(epoch):
            telemetry = service.telemetry
            entered = time.monotonic()
            while time.monotonic() - entered < 5.0:
                idle = telemetry.health()[1]["heartbeat_idle_s"]
                if idle < time.monotonic() - entered - 0.01:
                    touched.append(telemetry.health()[0])
                    break
                time.sleep(0.02)
            return inner(epoch)

        controller.run_epoch = long_run_epoch
        service = SchedulingService(
            controller,
            make_arrivals(),
            ServiceConfig(n_epochs=1, n_workers=0, incidents_dir=tmp_path),
        )
        _run(service, driver)
        assert touched == [200]

    def test_status_snapshot_is_what_watch_reads(self, tmp_path):
        journal = RunJournal(tmp_path / "service.jsonl")
        service = SchedulingService(
            make_controller(journal=journal),
            make_arrivals(),
            ServiceConfig(
                n_epochs=3, n_workers=0, incidents_dir=tmp_path / "incidents"
            ),
        )
        report = service.run_sync()
        status = service.status()
        last = report.outcomes[-1]
        assert status["epoch"] == 2 and status["epochs_done"] == 3
        assert status["backlog_mb"] == last.report.backlog_after
        assert status["epoch_latency_s"] == last.epoch_latency_s
        assert status["slo_violations"] == report.slo_violations
        assert set(status["slo_burn_rate"]) == {"1m", "10m"}
        assert status["incidents"]["bundles_written"] == 0
        assert status["draining"] is False
        # A beat writes the snapshot as the heartbeat's extras, and
        # ``obs watch`` reads the same keys back out of it.
        write_heartbeat(
            heartbeat_dir(journal.path),
            "service",
            phase="running",
            experiment="service",
            extra=service._beat(),
        )
        watched = collect_state(journal.path).service
        assert [getattr(watched, key) for key in SERVICE_STATUS_KEYS] == [
            status[key] for key in SERVICE_STATUS_KEYS
        ]


def test_service_report_defaults():
    report = ServiceReport()
    assert report.n_epochs == 0
    assert report.reports == []
    assert report.drained
