"""The benchmark's workloads: set-up, the measured loop, and output checks.

Every workload draws its inputs from ``SkewedWorkload.for_params`` on
fast-OCS parameters, seeded by the benchmark's ``--seed``.  An *operation*
is one comparison trial on the sweeps and one epoch on the service
workloads; ``Outcome.samples`` holds one time per operation (per distinct
demand on the sweeps) and ``Outcome.windows`` the interval each operation
occupied, which the traced run uses to attribute spans.

The checks use references independent of the code under test: volume
conservation recomputed from the input demand, the analytic lower bounds
of :mod:`repro.analysis.bounds`, the pure-Python oracle kernels, and the
externally measured epoch cycle.
"""

from __future__ import annotations

import asyncio
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import repro.sim
from repro.analysis.bounds import cp_bound, hybrid_bound
from repro.analysis.controller import EpochController
from repro.analysis.figures import params_for
from repro.core.scheduler import CpSwitchScheduler
from repro.faults.plan import FaultPlan
from repro.hybrid.base import make_scheduler
from repro.matching import kernels
from repro.runner.pool import WorkerPool
from repro.service.loop import SchedulingService, ServiceConfig
from repro.utils.rng import spawn_rngs
from repro.workloads.arrivals import WorkloadArrivals
from repro.workloads.skewed import SkewedWorkload

from speed import REFERENCE_S, kernel_seconds

#: Service runs last at least this many epochs, so at least ten epoch
#: cycles lie beyond the reported p90.
MIN_EPOCHS = 110
#: The pooled service's run is split into this many episodes, each with
#: its own worker pool.
POOL_EPISODES = 6
#: Reference-kernel runs before each service episode (see :mod:`speed`).
KERNELS_PER_EPISODE = 4
#: ``served_frac`` of a service run covers its first epochs only, so it is
#: the same for every run with the same seed.
SCORED_EPOCHS = 100
#: Every this-many-th scored epoch's arrival batch is replayed through
#: h- and cp-Switch for ``cct_ratio``.  Batches rather than VOQ snapshots:
#: a soak snapshot's ratio swings with the backlog it carries, so twenty of
#: them still left the mean far apart between seeds.
REPLAY_EVERY = 5
#: Relative slack for comparing volumes and bounds computed in another order.
VOLUME_RTOL = 1e-6
BOUND_RTOL = 1e-9
#: The service starts its epoch clock just before it calls ``offer``, where
#: the measured cycle starts; a collector pause between the two can put the
#: reported latency tens of microseconds above the cycle.
LATENCY_SLACK_S = 1e-3


@dataclass
class Outcome:
    """What one measured run produced."""

    samples: "list[float]" = field(default_factory=list)
    windows: "list[tuple[float, float]]" = field(default_factory=list)
    attempted: int = 0
    failed_ops: "set[int]" = field(default_factory=set)
    errors: "list[str]" = field(default_factory=list)
    cct_ratios: "list[float]" = field(default_factory=list)
    served_mb: float = 0.0
    offered_mb: float = 0.0
    epochs: list = field(default_factory=list)
    worker_deaths: int = 0
    peak_rss_mb: float = 0.0
    #: Reference-kernel times taken between operations (see :mod:`speed`).
    kernel_s: "list[float]" = field(default_factory=list)

    def fail(self, op: int, message: str) -> None:
        self.failed_ops.add(op)
        self.errors.append(f"operation {op}: {message}")

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def correct(self) -> bool:
        return not self.errors and self.attempted > 0

    @property
    def speed_scale(self) -> float:
        """Factor that turns this run's times into reference-speed times."""
        return REFERENCE_S / statistics.median(self.kernel_s)

    def end_to_end(self) -> "dict[str, float]":
        """Throughput, latency and quality over the operations, with times
        at the reference speed."""
        scale = self.speed_scale
        samples = [t * scale for t in self.samples]
        return {
            "ops_per_s": len(samples) / sum(samples),
            "op_p50_ms": statistics.median(samples) * 1e3,
            "op_p90_ms": statistics.quantiles(samples, n=10)[8] * 1e3,
            "cct_ratio": statistics.fmean(self.cct_ratios),
            "served_frac": self.served_mb / self.offered_mb,
            "peak_rss_mb": self.peak_rss_mb,
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_result(result, demand: np.ndarray, bound: "float | None") -> "list[str]":
    """Problems with one simulation of ``demand``.

    Served plus undelivered volume must equal the demand's volume.  With a
    ``bound`` the run went to completion: every demanded entry must have
    finished, and the completion time may not beat that lower bound.
    """
    problems = []
    offered = float(demand.sum())
    residual = float(result.residual.sum()) if result.residual is not None else 0.0
    served = result.served_ocs_direct + result.served_composite + result.served_eps
    if abs(served + residual - offered) > VOLUME_RTOL * max(1.0, offered):
        problems.append(
            f"conservation: served {served:.9g} + residual {residual:.9g} "
            f"!= demand {offered:.9g} Mb"
        )
    if bound is not None:
        finish = result.finish_times[demand > 0]
        if finish.size and not np.isfinite(finish).all():
            problems.append("a demanded entry never finished")
        elif result.completion_time < bound * (1.0 - BOUND_RTOL):
            problems.append(
                f"completion {result.completion_time:.9g} ms beats the "
                f"lower bound {bound:.9g} ms"
            )
    return problems


def compare_switches(demand, params, inner, cp_scheduler):
    """One comparison trial: h-Switch then cp-Switch, both to completion."""
    h = repro.sim.simulate_hybrid(demand, inner.schedule(demand, params), params)
    cp = repro.sim.simulate_cp(demand, cp_scheduler.schedule(demand, params), params)
    return h, cp


def check_trial(h, cp, demand, params) -> "list[str]":
    return [
        *(f"h-Switch {p}" for p in check_result(h, demand, hybrid_bound(demand, params))),
        *(f"cp-Switch {p}" for p in check_result(cp, demand, cp_bound(demand, params))),
    ]


# ---------------------------------------------------------------------- #
# offline comparison sweeps
# ---------------------------------------------------------------------- #


@dataclass
class SweepInputs:
    params: object
    demands: "list[np.ndarray]"
    inner: object
    cp_scheduler: CpSwitchScheduler


class Sweep:
    """Figure 5/6 comparison trials over a fixed set of seeded demands.

    A run cycles through the demands until ``seconds`` have passed, and
    always completes at least one pass.  Its samples are the median trial
    time of each distinct demand, so a partial last pass biases nothing.
    """

    def __init__(self, scheduler: str, radix: int, n_demands: int) -> None:
        self.scheduler = scheduler
        self.radix = radix
        self.n_demands = n_demands

    def setup(self, seed: int) -> SweepInputs:
        params = params_for("fast", self.radix)
        workload = SkewedWorkload.for_params(params)
        demands = [
            workload.generate(params.n_ports, rng).demand
            for rng in spawn_rngs(seed, self.n_demands)
        ]
        inner = make_scheduler(self.scheduler)
        return SweepInputs(params, demands, inner, CpSwitchScheduler(inner))

    def run(self, inputs: SweepInputs, seconds: float) -> Outcome:
        out = Outcome()
        params, demands = inputs.params, inputs.demands
        times: "list[list[float]]" = [[] for _ in demands]
        first_pass: "dict[int, tuple[float, float]]" = {}
        reference = None
        stop = time.perf_counter() + seconds
        op = 0
        while op < len(demands) or time.perf_counter() < stop:
            index = op % len(demands)
            demand = demands[index]
            out.kernel_s.append(kernel_seconds())
            out.attempted += 1
            try:
                start = time.perf_counter()
                h, cp = compare_switches(demand, params, inputs.inner, inputs.cp_scheduler)
                end = time.perf_counter()
            except Exception as exc:  # noqa: BLE001 — a failed trial is counted
                out.fail(op, f"raised {exc!r}")
                op += 1
                continue
            out.windows.append((start, end))
            times[index].append(end - start)
            for problem in check_trial(h, cp, demand, params):
                out.fail(op, problem)
            completions = (h.completion_time, cp.completion_time)
            if index not in first_pass:
                first_pass[index] = completions
                if index == 0:
                    reference = (h, cp)
                out.cct_ratios.append(cp.completion_time / h.completion_time)
                out.offered_mb += 2.0 * float(demand.sum())
                out.served_mb += sum(
                    r.served_ocs_direct + r.served_composite + r.served_eps
                    for r in (h, cp)
                )
            elif completions != first_pass[index]:
                out.fail(op, "a repeated trial gave another completion time")
            op += 1
        out.peak_rss_mb = peak_rss_mb()
        out.samples = [statistics.median(t) for t in times if t]
        if reference is not None:
            self._oracle_check(inputs, reference, out)
        return out

    def _oracle_check(self, inputs: SweepInputs, kernel_results, out: Outcome) -> None:
        """Re-run the first trial on the pure-Python oracle kernels; its
        finish times must be bit-identical to the kernel backend's."""
        with kernels.use_backend("oracle"):
            inner = make_scheduler(self.scheduler)
            oracle = compare_switches(
                inputs.demands[0], inputs.params, inner, CpSwitchScheduler(inner)
            )
        for side, ours, theirs in zip(("h-Switch", "cp-Switch"), kernel_results, oracle):
            if not np.array_equal(ours.finish_times, theirs.finish_times, equal_nan=True):
                out.fail(0, f"{side} finish times differ from the oracle backend")


# ---------------------------------------------------------------------- #
# the scheduling service
# ---------------------------------------------------------------------- #


class EpochProbe:
    """Times epoch cycles and checks each epoch, from outside the service.

    It shadows ``offer`` and ``run_epoch`` on the controller *instance*
    and calls the class attributes, so the traced run's class-level
    wrappers still see every call.  A cycle runs from one ``offer`` entry
    to the next; once ``seconds`` have passed since the first, the probe
    asks the service to stop.
    """

    def __init__(self, service: SchedulingService, seconds: float, keep: int) -> None:
        self.service = service
        self.seconds = seconds
        self.keep = keep
        self.starts: "list[float]" = []
        self.offered: "list[float]" = []
        self.batches: "list[np.ndarray]" = []
        self.problems: "list[tuple[int, str]]" = []
        controller = service.controller
        self.run_to_completion = controller.epoch_duration is None
        controller.offer = self._offer
        controller.run_epoch = self._run_epoch

    def remove(self) -> None:
        del self.service.controller.offer
        del self.service.controller.run_epoch

    def _offer(self, arrivals: np.ndarray) -> float:
        now = time.perf_counter()
        if self.starts and now - self.starts[0] >= self.seconds:
            self.service.request_stop()
        if len(self.starts) % REPLAY_EVERY == 0 and len(self.batches) < self.keep:
            self.batches.append(arrivals.copy())
        self.starts.append(now)
        self.offered.append(float(arrivals.sum()))
        controller = self.service.controller
        return type(controller).offer(controller, arrivals)

    def _run_epoch(self, epoch: int = 0):
        controller = self.service.controller
        demand = controller.voqs.occupancy.copy()
        bound = cp_bound(demand, controller.params) if self.run_to_completion else None
        report, result = type(controller).run_epoch(controller, epoch)
        for problem in check_result(result, demand, bound):
            self.problems.append((epoch, problem))
        return report, result


@dataclass
class ServiceInputs:
    params: object
    seed: int
    service: SchedulingService


def episode_seed(seed: int, episode: int) -> int:
    """An independent root seed for one soak episode."""
    return int(np.random.SeedSequence((seed, episode)).generate_state(1)[0])


class Serve:
    """The scheduling service at radix 128, cp-Solstice, one closed-loop
    client (the next batch is drawn once the bounded queue has room).

    A run is a series of independent *episodes*, each a fresh service and
    controller with arrivals (and faults) seeded by ``episode_seed``, until
    ``seconds`` have passed and ``MIN_EPOCHS`` epochs were offered.

    ``pooled`` runs the asyncio loop (``run()``) with the library's default
    :class:`ServiceConfig` (warm worker pool, advisory arms) and the
    controller ``repro serve`` builds by default (drain-to-completion
    epochs).  An episode is stopped after ``seconds / POOL_EPISODES``: the
    epoch time of one pool spawn holds steady, but differs from the next
    spawn's by up to a quarter, so a run pools several spawns.

    Otherwise it runs ``run_sync()`` on a faulted, near-saturated
    soak with bounded epochs and fast reroute, in episodes of
    ``episode_epochs`` epochs.  Composite-port outages are permanent, so a
    long soak grows ever more expensive, and one episode's cost depends
    mostly on when its outages strike; many short episodes keep every
    measured epoch from the same mix.  Per second of run, ten-epoch
    episodes steadied the epoch-time quantiles between seeds more than
    twenty- or fifty-epoch ones.
    """

    def __init__(self, pooled: bool, episode_epochs: "int | None" = None) -> None:
        self.pooled = pooled
        self.episode_epochs = episode_epochs

    def setup(self, seed: int) -> ServiceInputs:
        params = params_for("fast", 128)
        service = self._service(params, seed, 0)
        config = service.config
        if config.n_workers > 0 and (config.arms or config.shard_backups):
            # The run spawns its own pool inside run(); spawning one here with
            # the same settings puts that cost into the set-up figure.
            WorkerPool(
                config.n_workers,
                retries=config.stage_retries,
                timeout_s=config.stage_timeout_s,
            ).close()
        return ServiceInputs(params, seed, service)

    def _service(self, params, seed: int, episode: int) -> SchedulingService:
        workload = SkewedWorkload.for_params(params)
        seed = episode_seed(seed, episode)
        if self.pooled:
            arrivals = WorkloadArrivals(workload, params.n_ports, seed=seed)
            controller = EpochController(
                params=params,
                scheduler=make_scheduler("solstice"),
                use_composite_paths=True,
            )
            return SchedulingService(controller, arrivals, ServiceConfig())
        arrivals = WorkloadArrivals(workload, params.n_ports, seed=seed, intensity=0.8)
        controller = EpochController(
            params=params,
            scheduler=make_scheduler("solstice"),
            use_composite_paths=True,
            epoch_duration=1.0,
            fault_plan=FaultPlan(
                seed=seed,
                o2m_outage_rate=0.02,
                m2o_outage_rate=0.02,
                reconfig_straggle_rate=0.05,
            ),
            fast_reroute=True,
        )
        config = ServiceConfig(n_epochs=self.episode_epochs, n_workers=0)
        return SchedulingService(controller, arrivals, config)

    def run(self, inputs: ServiceInputs, seconds: float) -> Outcome:
        out = Outcome()
        offered: "list[float]" = []
        batches: "list[np.ndarray]" = []
        stop = time.perf_counter() + seconds
        limit = seconds / POOL_EPISODES if self.pooled else math.inf
        service, episode = inputs.service, 0
        while True:
            out.kernel_s += [kernel_seconds() for _ in range(KERNELS_PER_EPISODE)]
            keep = SCORED_EPOCHS // REPLAY_EVERY - len(batches)
            probe = self._episode(service, limit, keep, out)
            offered += probe.offered
            batches += probe.batches
            episode += 1
            if out.errors or (
                time.perf_counter() >= stop and out.attempted >= MIN_EPOCHS
            ):
                break
            service = self._service(inputs.params, inputs.seed, episode)
        out.peak_rss_mb = peak_rss_mb()
        scored = out.epochs[:SCORED_EPOCHS]
        out.served_mb = sum(o.report.served_volume for o in scored)
        out.offered_mb = sum(offered[: len(scored)])
        self._replay(inputs.params, batches, out)
        return out

    def _episode(
        self, service: SchedulingService, seconds: float, keep: int, out: Outcome
    ) -> EpochProbe:
        """One service run, stopped after ``seconds``; its epochs, cycles and
        check failures go to ``out``, and up to ``keep`` arrival batches
        stay on the probe."""
        first = out.attempted
        probe = EpochProbe(service, seconds, keep)
        try:
            if self.pooled:
                report = asyncio.run(service.run())
            else:
                report = service.run_sync()
        except Exception as exc:  # noqa: BLE001 — the whole run failed
            out.attempted += max(1, len(probe.starts))
            for op in range(first, out.attempted):
                out.fail(op, f"service raised {exc!r}")
            return probe
        finally:
            end = time.perf_counter()
            probe.remove()
        starts = probe.starts
        windows = list(zip(starts, [*starts[1:], end]))
        out.windows += windows
        out.samples += [stop - start for start, stop in windows]
        out.attempted += len(starts)
        out.epochs += report.outcomes
        out.worker_deaths += report.worker_deaths
        for epoch, problem in probe.problems:
            out.fail(first + epoch, problem)
        if report.n_epochs != len(starts):
            out.fail(out.attempted - 1, f"{report.n_epochs} epochs reported for {len(starts)} offered")
        for epoch, (outcome, (start, stop)) in enumerate(zip(report.outcomes, windows)):
            if outcome.epoch_latency_s > stop - start + LATENCY_SLACK_S:
                out.fail(
                    first + epoch,
                    f"reported latency {outcome.epoch_latency_s * 1e3:.3f} ms exceeds "
                    f"the measured cycle {(stop - start) * 1e3:.3f} ms",
                )
        try:
            service.controller.check_conservation()
        except AssertionError as exc:
            for op in range(first, out.attempted):
                out.fail(op, f"controller ledger: {exc}")
        return probe

    @staticmethod
    def _replay(params, batches, out: Outcome) -> None:
        """``cct_ratio`` on the service's own traffic: arrival batches of
        the scored epochs through h- and cp-Solstice, both to completion."""
        inner = make_scheduler("solstice")
        cp_scheduler = CpSwitchScheduler(inner)
        for index, demand in enumerate(batches):
            h, cp = compare_switches(demand, params, inner, cp_scheduler)
            for problem in check_trial(h, cp, demand, params):
                out.fail(index * REPLAY_EVERY, f"replay {problem}")
            out.cct_ratios.append(cp.completion_time / h.completion_time)


#: Workload name -> workload.  Demand counts were sized on a 2-core x86 host
#: so one pass over a sweep's demands takes about 20 s.
WORKLOADS = {
    "sweep-solstice-256": Sweep("solstice", 256, n_demands=56),
    "sweep-eclipse-128": Sweep("eclipse", 128, n_demands=105),
    "serve-pool-128": Serve(pooled=True),
    "soak-faults-128": Serve(pooled=False, episode_epochs=10),
}
