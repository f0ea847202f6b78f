"""Tests for the observability layer (``repro.obs``).

Covers the tracer and metrics primitives, the null-backend defaults, the
fork-worker span shipping, the scheduler/engine/runner instrumentation,
the CLI flags, and the two load-bearing properties: an instrumented run
is bit-identical to an uninstrumented one across random demand matrices,
fault plans and the seeded Figure 5 demand, and with observability off
its hooks cost under 2 % of the pipeline's wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import obs
from repro.analysis.figures import DEFAULT_SEED, params_for
from repro.cli import main
from repro.core.scheduler import CpSwitchScheduler
from repro.faults import FaultPlan
from repro.hybrid.eclipse import EclipseScheduler
from repro.hybrid.solstice import SolsticeScheduler
from repro.obs.metrics import MetricsRegistry
from repro.obs.summarize import load_trace, render_summary
from repro.obs.tracer import JsonlTracer, NULL_TRACER
from repro.runner import SweepConfig, SweepRunner, TrialSpec
from repro.runner.isolation import run_in_subprocess
from repro.sim import simulate_cp, simulate_hybrid
from repro.switch.params import SwitchParams
from repro.utils.rng import spawn_rngs
from repro.workloads.skewed import SkewedWorkload

N = 6
PARAMS = SwitchParams(n_ports=N, eps_rate=10.0, ocs_rate=100.0, reconfig_delay=0.02)


def demands():
    return st.tuples(
        arrays(np.float64, (N, N), elements=st.floats(0.0, 30.0, allow_nan=False, width=32)),
        arrays(np.bool_, (N, N)),
    ).map(lambda pair: pair[0] * pair[1])


def plans():
    rates = st.floats(0.0, 1.0, allow_nan=False)
    return st.builds(
        FaultPlan,
        seed=st.integers(min_value=0, max_value=2**16),
        reconfig_failure_rate=rates,
        reconfig_straggle_rate=rates,
        straggle_factor=st.floats(1.0, 8.0, allow_nan=False),
        circuit_failure_rate=rates,
        o2m_outage_rate=rates,
        m2o_outage_rate=rates,
        eps_degradation_rate=rates,
        eps_degradation_factor=st.floats(0.1, 1.0, allow_nan=False),
    )


# ---------------------------------------------------------------------- #
# tracer primitives
# ---------------------------------------------------------------------- #


class TestTracer:
    def test_nesting_parents(self):
        tracer = JsonlTracer()
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        tracer.event("ping", value=1)
        tracer.end(inner)
        tracer.end(outer)
        records = tracer.records()
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        assert by_name["ping"]["span"] == by_name["inner"]["id"]

    def test_span_context_manager(self):
        tracer = JsonlTracer()
        with tracer.span("block") as span:
            span.set(items=3)
        (record,) = tracer.records()
        assert record["attrs"]["items"] == 3
        assert record["end"] >= record["start"]

    def test_end_closes_orphans(self):
        tracer = JsonlTracer()
        outer = tracer.begin("outer")
        tracer.begin("leaked")
        tracer.end(outer)  # must close "leaked" too
        assert {r["name"] for r in tracer.records()} == {"outer", "leaked"}
        assert tracer.current_span_id is None

    def test_numpy_attrs_are_json_safe(self, tmp_path):
        tracer = JsonlTracer()
        with tracer.span("s") as span:
            span.set(count=np.int64(3), volume=np.float64(1.5), flag=np.bool_(True))
        path = tracer.dump(tmp_path / "t.jsonl")
        for line in path.read_text().splitlines():
            json.loads(line)  # every record round-trips

    def test_dump_roundtrip_and_open_span_flag(self, tmp_path):
        tracer = JsonlTracer()
        tracer.begin("still-open")
        with tracer.span("closed"):
            tracer.event("e")
        path = tracer.dump(tmp_path / "t.jsonl", meta={"command": "test"})
        data = load_trace(path)
        assert data.meta["command"] == "test"
        assert {s["name"] for s in data.spans} == {"still-open", "closed"}
        open_spans = [s for s in data.spans if s.get("open")]
        assert [s["name"] for s in open_spans] == ["still-open"]
        assert len(data.events) == 1

    def test_absorb_remaps_and_grafts(self):
        worker = JsonlTracer()
        w_outer = worker.begin("w.outer")
        worker.begin("w.inner")
        worker.event("w.event")
        worker.end(w_outer)  # closes inner too
        parent = JsonlTracer()
        trial = parent.begin("trial")
        parent.absorb(worker.drain())
        parent.end(trial)
        data = {r["name"]: r for r in parent.records()}
        assert data["w.outer"]["parent"] == data["trial"]["id"]
        assert data["w.inner"]["parent"] == data["w.outer"]["id"]
        assert data["w.event"]["span"] == data["w.inner"]["id"]
        ids = [r["id"] for r in parent.records() if r["kind"] == "span"]
        assert len(ids) == len(set(ids))

    def test_null_tracer_is_inert(self):
        handle = NULL_TRACER.begin("x")
        handle.set(anything=1)
        NULL_TRACER.end(handle)
        NULL_TRACER.event("y")
        assert NULL_TRACER.drain() == []
        assert NULL_TRACER.enabled is False


# ---------------------------------------------------------------------- #
# metrics primitives
# ---------------------------------------------------------------------- #


class TestMetrics:
    def test_counter_labels_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").labels(kind="a").inc()
        registry.counter("hits_total").labels(kind="a").inc(2)
        registry.counter("hits_total").labels(kind="b").inc()
        values = {
            tuple(sorted(v["labels"].items())): v["value"]
            for v in registry.snapshot()["hits_total"]["values"]
        }
        assert values[(("kind", "a"),)] == 3.0
        assert values[(("kind", "b"),)] == 1.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            h.observe(value)
        (entry,) = registry.snapshot()["lat"]["values"]
        assert entry["count"] == 3
        assert entry["bucket_counts"] == [1, 1, 1]
        assert entry["sum"] == pytest.approx(5.55)

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n_total").inc(2)
        b.counter("n_total").inc(3)
        b.gauge("level").set(7.0)
        b.histogram("lat", buckets=(1.0,)).observe(0.5)
        a.merge(b.snapshot())
        snapshot = a.snapshot()
        assert snapshot["n_total"]["values"][0]["value"] == 5.0
        assert snapshot["level"]["values"][0]["value"] == 7.0
        assert snapshot["lat"]["values"][0]["count"] == 1

    def test_null_registry_is_inert(self):
        registry = obs.get_metrics()
        assert registry.enabled is False
        registry.counter("anything").labels(a=1).inc()
        assert registry.snapshot() == {}


# ---------------------------------------------------------------------- #
# defaults + helpers
# ---------------------------------------------------------------------- #


class TestObsDefaults:
    def test_defaults_are_null(self):
        assert obs.get_tracer().enabled is False
        assert obs.get_metrics().enabled is False
        assert obs.active() is False

    def test_observability_installs_and_restores(self):
        tracer, registry = JsonlTracer(), MetricsRegistry()
        with obs.observability(tracer=tracer, metrics=registry):
            assert obs.get_tracer() is tracer
            assert obs.get_metrics() is registry
            assert obs.active()
        assert not obs.active()

    def test_profiled_records_span_and_histogram(self):
        tracer, registry = JsonlTracer(), MetricsRegistry()
        with obs.observability(tracer=tracer, metrics=registry):
            with obs.profiled("work.unit", n=4) as span:
                span.set(status="ok")
        (record,) = tracer.records()
        assert record["name"] == "work.unit"
        assert record["attrs"] == {"n": 4, "status": "ok"}
        (entry,) = registry.snapshot()["phase_seconds"]["values"]
        assert entry["labels"] == {"name": "work.unit"}
        assert entry["count"] == 1

    def test_profiled_is_noop_when_off(self):
        with obs.profiled("anything") as span:
            span.set(ignored=True)  # null handle accepts everything


# ---------------------------------------------------------------------- #
# instrumentation sites
# ---------------------------------------------------------------------- #


def _demand(seed=0):
    rng = np.random.default_rng(seed)
    demand = rng.uniform(0.0, 40.0, (N, N))
    np.fill_diagonal(demand, 0.0)
    return demand


class TestInstrumentation:
    def test_engine_and_solstice_spans(self):
        demand = _demand()
        tracer, registry = JsonlTracer(), MetricsRegistry()
        with obs.observability(tracer=tracer, metrics=registry):
            schedule = SolsticeScheduler().schedule(demand, PARAMS)
            simulate_hybrid(demand, schedule, PARAMS)
        names = {r["name"] for r in tracer.records()}
        assert "solstice.schedule" in names
        assert "solstice.stuffing" in names
        assert "engine.phase" in names
        snapshot = registry.snapshot()
        assert snapshot["engine_phases_total"]["values"][0]["value"] > 0
        assert snapshot["solstice_slices_total"]["values"][0]["value"] > 0

    def test_cp_pipeline_spans(self):
        demand = _demand(1)
        tracer = JsonlTracer()
        with obs.observability(tracer=tracer):
            CpSwitchScheduler(SolsticeScheduler()).schedule(demand, PARAMS)
        by_name = {r["name"]: r for r in tracer.records()}
        for stage in ("cpsched.reduce", "cpsched.inner", "cpsched.interpret"):
            assert stage in by_name
        # The inner h-Switch scheduler's span nests under cpsched.inner.
        assert by_name["solstice.schedule"]["parent"] == by_name["cpsched.inner"]["id"]

    def test_eclipse_watchdog_event(self):
        demand = _demand(2)
        tracer, registry = JsonlTracer(), MetricsRegistry()
        with obs.observability(tracer=tracer, metrics=registry):
            EclipseScheduler(max_steps=0).schedule(demand, PARAMS)
        events = [r for r in tracer.records() if r["kind"] == "event"]
        watchdog = [e for e in events if e["name"] == "scheduler.watchdog"]
        assert watchdog and watchdog[0]["attrs"]["event"] == "step-cap"
        assert watchdog[0]["attrs"]["scheduler"] == "eclipse"
        (entry,) = registry.snapshot()["scheduler_watchdog_trips_total"]["values"]
        assert entry["labels"] == {"scheduler": "eclipse", "event": "step-cap"}
        assert entry["value"] == 1.0

    def test_composite_release_event(self):
        from repro.sim.engine import FluidEngine

        demand = np.zeros((N, N))
        demand[0, 1:4] = 10.0
        engine = FluidEngine(demand, PARAMS)
        filtered = np.zeros_like(demand)
        filtered[0, 1:4] = 10.0
        engine.assign_composite(filtered)
        tracer, registry = JsonlTracer(), MetricsRegistry()
        with obs.observability(tracer=tracer, metrics=registry):
            released = engine.release_composite("o2m", 0)
        assert released == pytest.approx(30.0)
        (event,) = [r for r in tracer.records() if r["kind"] == "event"]
        assert event["name"] == "engine.composite_release"
        assert event["attrs"]["released_mb"] == pytest.approx(30.0)
        snapshot = registry.snapshot()
        assert snapshot["engine_composite_released_mb_total"]["values"][0][
            "value"
        ] == pytest.approx(30.0)


# ---------------------------------------------------------------------- #
# runner integration
# ---------------------------------------------------------------------- #


def _trial_fn(volume: float = 10.0) -> dict:
    demand = np.zeros((N, N))
    demand[0, 1] = volume
    schedule = SolsticeScheduler().schedule(demand, PARAMS)
    result = simulate_hybrid(demand, schedule, PARAMS)
    return {"completion": result.completion_time}


class TestRunnerObservability:
    def test_inline_trial_spans_join_journal_keys(self):
        specs = [
            TrialSpec(experiment="exp", key=f"exp:{i}", fn="tests.test_obs:_trial_fn")
            for i in range(2)
        ]
        tracer, registry = JsonlTracer(), MetricsRegistry()
        with obs.observability(tracer=tracer, metrics=registry):
            result = SweepRunner(config=SweepConfig(isolation="inline")).run(specs)
        assert len(result.completed) == 2
        trials = [r for r in tracer.records() if r["name"] == "runner.trial"]
        assert {t["attrs"]["key"] for t in trials} == {"exp:0", "exp:1"}
        assert all(t["attrs"]["status"] == "ok" for t in trials)
        # Inline trials run in-process: engine spans nest under the trial.
        engine_spans = [r for r in tracer.records() if r["name"] == "engine.phase"]
        trial_ids = {t["id"] for t in trials}
        assert engine_spans and all(s["parent"] in trial_ids for s in engine_spans)
        (entry,) = registry.snapshot()["runner_trials_total"]["values"]
        assert entry["labels"] == {"status": "ok"} and entry["value"] == 2.0

    def test_subprocess_trial_ships_spans_back(self):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        spec = TrialSpec(experiment="exp", key="exp:0", fn="tests.test_obs:_trial_fn")
        tracer, registry = JsonlTracer(), MetricsRegistry()
        with obs.observability(tracer=tracer, metrics=registry):
            with obs.profiled("runner.trial", key=spec.key):
                outcome = run_in_subprocess(spec, timeout_s=60.0)
        assert outcome.ok
        records = tracer.records()
        by_name = {r["name"]: r for r in records}
        # The worker's scheduler/engine spans were absorbed and grafted
        # under the parent's trial span.
        assert by_name["engine.phase"]["parent"] == by_name["runner.trial"]["id"]
        assert by_name["solstice.schedule"]["parent"] == by_name["runner.trial"]["id"]
        # And its counters merged into the parent registry.
        snapshot = registry.snapshot()
        assert snapshot["engine_phases_total"]["values"][0]["value"] > 0

    def test_quarantine_counter(self, tmp_path):
        specs = [
            TrialSpec(
                experiment="exp", key="exp:bad", fn="tests.test_obs:_no_such_fn"
            )
        ]
        registry = MetricsRegistry()
        config = SweepConfig(isolation="inline", sleep=lambda s: None)
        with obs.observability(metrics=registry):
            result = SweepRunner(config=config).run(specs)
        assert result.n_failed == 1
        snapshot = registry.snapshot()
        assert snapshot["runner_quarantined_total"]["values"][0]["value"] == 1.0
        assert snapshot["runner_retries_total"]["values"][0]["value"] == 2.0
        (entry,) = [
            v
            for v in snapshot["runner_trials_total"]["values"]
            if v["labels"].get("status") == "failed"
        ]
        assert entry["value"] == 1.0


# ---------------------------------------------------------------------- #
# bit-identity: instrumented == uninstrumented
# ---------------------------------------------------------------------- #


def _assert_identical(plain, traced):
    np.testing.assert_array_equal(plain.finish_times, traced.finish_times)
    assert plain.completion_time == traced.completion_time or (
        np.isnan(plain.completion_time) and np.isnan(traced.completion_time)
    )
    assert plain.n_configs == traced.n_configs
    assert plain.makespan == traced.makespan
    assert plain.served_ocs_direct == traced.served_ocs_direct
    assert plain.served_composite == traced.served_composite
    assert plain.served_eps == traced.served_eps
    assert plain.released_composite == traced.released_composite
    assert len(plain.segments) == len(traced.segments)


def _solstice_pipeline(demand, params, plan=None):
    """One h + cp schedule/simulate pair under Solstice; both results."""
    scheduler = SolsticeScheduler()
    h_schedule = scheduler.schedule(demand, params)
    cp_schedule = CpSwitchScheduler(scheduler).schedule(demand, params)
    return (
        simulate_hybrid(demand, h_schedule, params, faults=plan),
        simulate_cp(demand, cp_schedule, params, faults=plan),
    )


def _figure5_demand():
    """The seeded radix-32 Figure 5 demand (fast OCS, root seed 2016)."""
    params = params_for("fast", 32)
    (rng,) = spawn_rngs(DEFAULT_SEED, 1)
    return SkewedWorkload.for_params(params).generate(32, rng).demand, params


class TestBitIdentity:
    @staticmethod
    def _check(demand, params, plan=None):
        h_plain, cp_plain = _solstice_pipeline(demand, params, plan)
        with obs.observability(tracer=JsonlTracer(), metrics=MetricsRegistry()):
            h_traced, cp_traced = _solstice_pipeline(demand, params, plan)
        _assert_identical(h_plain, h_traced)
        _assert_identical(cp_plain, cp_traced)

    @given(demand=demands(), plan=plans())
    @settings(max_examples=25, deadline=None)
    def test_instrumented_run_is_bit_identical(self, demand, plan):
        self._check(demand, PARAMS, plan)

    def test_instrumented_figure5_run_is_bit_identical(self):
        self._check(*_figure5_demand())


class TestOffPathOverhead:
    """With observability off, its hooks cost < 2 % of the pipeline.

    A wall-clock A/B of the same pipeline is noise-bound on a shared host
    (run-to-run spread is itself a few percent), so the bound is computed:
    count every null-path hook the pipeline hits (``active()`` guards and
    ``profiled()`` blocks), microbenchmark each hook's per-call cost, and
    compare the product with the pipeline's wall time.  Both factors are
    nearly noise-free.
    """

    BUDGET = 0.02

    @staticmethod
    def _per_call_seconds(fn, calls: int = 200_000) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    @staticmethod
    def _null_profiled_once() -> None:
        with obs.profiled("test.null"):
            pass

    def test_null_path_hooks_stay_under_budget(self, monkeypatch):
        demand, params = _figure5_demand()
        assert not obs.active()
        wall = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _solstice_pipeline(demand, params)
            wall = min(wall, time.perf_counter() - start)

        counts = {"active": 0, "profiled": 0}
        real_active, real_profiled = obs.active, obs.profiled

        def counting_active():
            counts["active"] += 1
            return real_active()

        @contextmanager
        def counting_profiled(name, **attrs):
            counts["profiled"] += 1
            with real_profiled(name, **attrs) as span:
                yield span

        with monkeypatch.context() as patch:
            patch.setattr(obs, "active", counting_active)
            patch.setattr(obs, "profiled", counting_profiled)
            _solstice_pipeline(demand, params)
        assert counts["active"] > 0 and counts["profiled"] > 0

        overhead = counts["active"] * self._per_call_seconds(
            obs.active
        ) + counts["profiled"] * self._per_call_seconds(self._null_profiled_once)
        assert overhead < self.BUDGET * wall, (
            f"null-path hooks ({counts}) cost {overhead * 1e3:.3f} ms, "
            f"{overhead / wall:.2%} of the {wall * 1e3:.1f} ms pipeline"
        )


# ---------------------------------------------------------------------- #
# CLI end to end
# ---------------------------------------------------------------------- #


class TestCli:
    def test_compare_trace_and_summarize(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "compare",
                "--radix", "8",
                "--trials", "2",
                "--workload", "skewed",
                "--no-journal",
                "--isolation", "inline",
                "--trace", str(trace),
                "--metrics", str(metrics),
            ]
        )
        assert code == 0
        assert trace.exists() and metrics.exists()
        snapshot = json.loads(metrics.read_text())
        assert snapshot["runner_trials_total"]["values"][0]["value"] == 2.0
        data = load_trace(trace)
        names = {s["name"] for s in data.spans}
        assert {"repro.compare", "runner.trial", "engine.phase"} <= names
        assert data.metrics  # snapshot embedded in the trace
        capsys.readouterr()

        code = main(["obs", "summarize", str(trace), "--top", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro.compare" in out
        assert "runner.trial" in out
        assert "engine_phases_total" in out

    def test_summarize_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["obs", "summarize", str(tmp_path / "nope.jsonl")])

    def test_trace_off_by_default(self, tmp_path, capsys):
        code = main(
            [
                "compare",
                "--radix", "8",
                "--trials", "1",
                "--no-journal",
                "--isolation", "inline",
            ]
        )
        assert code == 0
        assert not obs.active()
        capsys.readouterr()


# ---------------------------------------------------------------------- #
# cross-process merge edge cases
# ---------------------------------------------------------------------- #


class TestAbsorbCollisions:
    def test_absorb_remaps_collision_heavy_ids(self):
        """Two workers whose id spaces fully overlap graft without clashing."""
        parent = JsonlTracer()
        trial = parent.begin("runner.trial")

        def worker_records(label):
            worker = JsonlTracer()
            outer = worker.begin(f"{label}.outer")
            with worker.span(f"{label}.inner"):
                worker.event(f"{label}.tick")
            worker.end(outer)
            return worker.drain()

        a, b = worker_records("a"), worker_records("b")
        # Both workers used ids 1..2 — the collision-heavy case.
        assert {r["id"] for r in a if r["kind"] == "span"} == {
            r["id"] for r in b if r["kind"] == "span"
        }
        parent.absorb(a)
        parent.absorb(b)
        parent.end(trial)

        records = parent.records()
        spans = [r for r in records if r["kind"] == "span"]
        ids = [r["id"] for r in spans]
        assert len(ids) == len(set(ids)) == 5  # 2 per worker + the trial span
        by_name = {r["name"]: r for r in spans}
        trial_id = by_name["runner.trial"]["id"]
        # Parentless worker roots graft under the open trial span...
        assert by_name["a.outer"]["parent"] == trial_id
        assert by_name["b.outer"]["parent"] == trial_id
        # ...and intra-worker parent links follow the remap, never the raw id.
        assert by_name["a.inner"]["parent"] == by_name["a.outer"]["id"]
        assert by_name["b.inner"]["parent"] == by_name["b.outer"]["id"]
        events = {r["name"]: r for r in records if r["kind"] == "event"}
        assert events["a.tick"]["span"] == by_name["a.inner"]["id"]
        assert events["b.tick"]["span"] == by_name["b.inner"]["id"]

    def test_absorbed_trace_keeps_valid_paths(self):
        """group_paths on an absorbed trace resolves every span."""
        from repro.obs.summarize import TraceData, group_paths

        parent = JsonlTracer()
        trial = parent.begin("runner.trial")
        for _ in range(2):
            worker = JsonlTracer()
            with worker.span("engine.run"):
                with worker.span("engine.phase"):
                    pass
            parent.absorb(worker.drain())
        parent.end(trial)
        groups = group_paths(TraceData(spans=parent.records()))
        assert groups["runner.trial/engine.run"].count == 2
        assert groups["runner.trial/engine.run/engine.phase"].count == 2


class TestMergeLabelConflicts:
    def test_merge_conflicting_label_sets(self):
        """Same counter name, disjoint label sets: children stay separate."""
        parent = MetricsRegistry()
        parent.counter("trials_total").labels(status="ok").inc(2)
        parent.counter("trials_total").inc(1)  # unlabeled parent value too

        worker = MetricsRegistry()
        worker.counter("trials_total").labels(status="failed").inc(1)
        worker.counter("trials_total").labels(host="w1", status="ok").inc(3)

        parent.merge(worker.snapshot())
        values = {
            tuple(sorted((entry["labels"] or {}).items())): entry["value"]
            for entry in parent.snapshot()["trials_total"]["values"]
        }
        assert values[(("status", "ok"),)] == 2.0
        assert values[(("status", "failed"),)] == 1.0
        assert values[(("host", "w1"), ("status", "ok"))] == 3.0
        assert values[()] == 1.0

    def test_merge_histogram_label_conflict_and_foreign_buckets(self):
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(1.0, 2.0)).labels(stage="x").observe(0.5)
        worker_snapshot = {
            "h": {
                "type": "histogram",
                "description": "",
                "values": [
                    # Same name, different label set.
                    {"labels": {"stage": "y"}, "count": 1, "sum": 1.5,
                     "buckets": [1.0, 2.0], "bucket_counts": [0, 1, 0]},
                    # Foreign bucket layout: totals survive, shape dropped.
                    {"labels": {"stage": "x"}, "count": 2, "sum": 9.0,
                     "buckets": [5.0], "bucket_counts": [1, 1]},
                ],
            }
        }
        parent.merge(worker_snapshot)
        entries = {
            entry["labels"]["stage"]: entry
            for entry in parent.snapshot()["h"]["values"]
        }
        assert entries["y"]["count"] == 1
        assert entries["x"]["count"] == 3
        assert entries["x"]["sum"] == pytest.approx(9.5)
        # Foreign layout's 2 observations landed in the +Inf overflow slot.
        assert entries["x"]["bucket_counts"][-1] == 2


# ---------------------------------------------------------------------- #
# summarize satellites: metrics-only artifacts, malformed JSONL, defaults
# ---------------------------------------------------------------------- #


class TestSummarizeSatellites:
    def test_metrics_only_snapshot_renders(self, tmp_path, capsys):
        registry = MetricsRegistry()
        registry.counter("engine_phases_total", "phases").inc(7)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(registry.snapshot()))
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot — 1 metric(s), no span records" in out
        assert "engine_phases_total" in out
        assert "span tree" not in out  # no empty tree section

    def test_span_free_trace_renders(self, tmp_path, capsys):
        tracer = JsonlTracer()
        tracer.event("lonely.event")
        path = tmp_path / "trace.jsonl"
        tracer.dump(path, meta={"command": "unit"})
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 spans, 1 events" in out
        assert "lonely.event" in out

    def test_malformed_mid_file_raises_actionable(self, tmp_path):
        from repro.obs.summarize import TraceParseError

        path = tmp_path / "corrupt.jsonl"
        path.write_text(
            json.dumps({"kind": "meta", "format": 1}) + "\n"
            + "{this is not json\n"
            + json.dumps({"kind": "event", "name": "after", "t": 0.0}) + "\n"
        )
        with pytest.raises(TraceParseError, match="corrupted, not merely torn"):
            load_trace(path)
        with pytest.raises(SystemExit, match="re-record the trace"):
            main(["obs", "summarize", str(path)])

    def test_torn_trailing_line_tolerated(self, tmp_path, capsys):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            json.dumps({"kind": "meta", "format": 1}) + "\n"
            + json.dumps(
                {"kind": "span", "id": 1, "parent": None, "name": "x",
                 "start": 0.0, "end": 1.0}
            ) + "\n"
            + '{"kind": "span", "id": 2, "na'  # killed writer
        )
        data = load_trace(path)
        assert data.torn_lines == 1
        assert len(data.spans) == 1
        assert main(["obs", "summarize", str(path)]) == 0
        assert "torn trailing line" in capsys.readouterr().out

    def test_not_a_trace_raises(self, tmp_path):
        path = tmp_path / "readme.txt"
        path.write_text("hello\nworld\n")
        with pytest.raises(SystemExit):
            main(["obs", "summarize", str(path)])


class TestObsPathDefaults:
    def test_bare_trace_flag_defaults_into_run_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path))
        code = main(
            [
                "compare",
                "--radix", "8",
                "--trials", "1",
                "--no-journal",
                "--isolation", "inline",
                "--trace",
                "--metrics",
            ]
        )
        assert code == 0
        assert (tmp_path / "compare-trace.jsonl").exists()
        assert (tmp_path / "compare-metrics.json").exists()
        capsys.readouterr()

    def test_run_dir_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "env"))
        explicit = tmp_path / "flag"
        code = main(
            [
                "compare",
                "--radix", "8",
                "--trials", "1",
                "--no-journal",
                "--isolation", "inline",
                "--run-dir", str(explicit),
                "--trace",
            ]
        )
        assert code == 0
        assert (explicit / "compare-trace.jsonl").exists()
        assert not (tmp_path / "env").exists()
        capsys.readouterr()

    def test_explicit_path_still_wins(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "env"))
        trace = tmp_path / "explicit.jsonl"
        code = main(
            [
                "compare",
                "--radix", "8",
                "--trials", "1",
                "--no-journal",
                "--isolation", "inline",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        assert trace.exists()
        capsys.readouterr()
