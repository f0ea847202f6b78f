"""Warm worker-process pool for sharding per-epoch heavy stages.

The sweep runner forks one subprocess per trial attempt because a trial is
long (seconds) and must be killable.  The scheduling service has the
opposite profile: every epoch it fans out a handful of *short* heavy
stages (independent-scheduler arms, backup planning) and fork-per-stage
would dominate the epoch budget.  :class:`WorkerPool`
keeps ``K`` worker processes alive across epochs — each is a long-lived
loop around the same ``(fn_path, kwargs)`` protocol as
:mod:`repro.runner.isolation`, so stage functions are addressed by
importable ``"module:function"`` paths and results come back over a pipe.

Contract:

* **Warm** — workers persist across :meth:`WorkerPool.map` calls; the
  service reuses the same pids epoch after epoch
  (``test_workers_stay_warm_across_maps`` asserts this).
* **Crash-tolerant** — a worker that dies mid-task is respawned and the
  task is retried (up to ``retries`` extra attempts); only then does the
  stage report ``crashed``.
* **Observable** — each task ships a spans/metrics blob back with its
  result; callers absorb the blobs on their own thread via
  :func:`absorb_observations` (the pool never touches the tracer from a
  worker-management thread).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait

from repro import obs
from repro.runner.isolation import START_METHOD, error_dict, obs_blob, resolve_fn


@dataclass(frozen=True)
class StageTask:
    """One unit of pool work: a picklable call, addressed like a trial.

    Attributes
    ----------
    name:
        Caller-chosen label (unique within one ``map`` batch is not
        required; results are returned positionally).
    fn:
        ``"module:function"`` path, resolved inside the worker.
    kwargs:
        Keyword arguments; must be picklable (pipes carry pickles, so —
        unlike journal specs — numpy arrays and dataclasses are fine).
    """

    name: str
    fn: str
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StageResult:
    """Result of one :class:`StageTask`, normalized like a trial outcome."""

    name: str
    status: str  # "ok" | "error" | "crashed"
    payload: "object | None" = None
    error: "dict | None" = None
    pid: "int | None" = None
    attempts: int = 1
    elapsed_s: float = 0.0
    obs: "dict | None" = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def absorb_observations(results: "list[StageResult]") -> None:
    """Fold worker span/metric blobs into this process's backends.

    Call from the thread that owns the tracer (the service's event-loop
    thread), not from inside the pool.
    """
    if not obs.active():
        return
    tracer = obs.get_tracer()
    metrics = obs.get_metrics()
    for result in results:
        if result.obs:
            tracer.absorb(result.obs.get("spans") or [])
            metrics.merge(result.obs.get("metrics") or {})


def _pool_worker_main(conn) -> None:
    """Child-side loop: recv ``(task_id, fn, kwargs)``, send the result.

    A ``None`` message (or a closed pipe) is the shutdown signal.  Like
    the one-shot trial worker, inherited observability records are cleared
    on startup and each task's own spans/metrics ship back in its result
    tuple.
    """
    obs.reset_for_fork()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        task_id, fn_path, kwargs = message
        try:
            payload = resolve_fn(fn_path)(**kwargs)
            status, body = "ok", payload
        except Exception as exc:  # noqa: BLE001 — containment is the job
            status, body = "error", error_dict(exc)
        blob = obs_blob()
        # obs_blob() drains the tracer but *snapshots* the metrics; a warm
        # worker must ship per-task deltas, so clear the registry after
        # every blob or the parent would double-count across tasks.
        obs.get_metrics().reset()
        try:
            conn.send((task_id, status, body, os.getpid(), blob))
        except (BrokenPipeError, OSError):
            break
    conn.close()


class _Worker:
    """Parent-side handle: process + duplex pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn

    @property
    def pid(self) -> "int | None":
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():
                self.process.kill()
        self.process.join(timeout=2.0)


class WorkerPool:
    """``K`` persistent subprocess workers executing :class:`StageTask`s.

    Parameters
    ----------
    n_workers:
        Pool size (>= 1).
    retries:
        Extra attempts granted to a task whose worker died mid-run
        (a task that *raises* is not retried — exceptions are
        deterministic, crashes are not).
    timeout_s:
        Per-task wall-clock budget; a worker that exceeds it is killed
        (and the task retried like any other crash).  ``None`` disables.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        retries: int = 1,
        timeout_s: "float | None" = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self._ctx = multiprocessing.get_context(START_METHOD)
        self.retries = retries
        self.timeout_s = timeout_s
        self.worker_deaths = 0
        self.tasks_retried = 0
        #: Structured crash records, one per buried worker — the service's
        #: flight recorder reads per-epoch deltas off the tail.  Appended
        #: from whichever thread runs ``map()``; readers take len-slices
        #: (list appends are atomic under the GIL).
        self.death_log: "list[dict]" = []
        self._closed = False
        self._workers: "list[_Worker]" = [self._spawn() for _ in range(n_workers)]

    # ------------------------------------------------------------------ #

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pool_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _bury(
        self, worker: _Worker, *, reason: str = "crashed", task: "str | None" = None
    ) -> _Worker:
        """Retire a dead/wedged worker and return its warm replacement."""
        self.worker_deaths += 1
        pid = worker.pid
        worker.kill()
        self._workers.remove(worker)
        replacement = self._spawn()
        self._workers.append(replacement)
        self.death_log.append(
            {
                "pid": pid,
                "reason": reason,
                "task": task,
                "respawned_pid": replacement.pid,
                "mono": time.monotonic(),
            }
        )
        return replacement

    def liveness(self) -> dict:
        """Pool liveness snapshot for the service's ``/status`` endpoint."""
        workers = list(self._workers)
        return {
            "pids": sorted(w.pid for w in workers if w.pid is not None),
            "alive": sum(1 for w in workers if w.alive()),
            "deaths": self.worker_deaths,
            "tasks_retried": self.tasks_retried,
            "closed": self._closed,
        }

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    @property
    def pids(self) -> "list[int]":
        """Live worker pids (stable across ``map`` calls — that is the point)."""
        return [w.pid for w in self._workers if w.pid is not None]

    # ------------------------------------------------------------------ #

    def map(self, tasks: "list[StageTask]") -> "list[StageResult]":
        """Run every task, return results in task order.

        Blocks until all tasks resolve.  Worker death triggers respawn +
        retry (bounded by ``retries``); a task out of retry budget
        reports ``crashed``.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if not tasks:
            return []
        results: "dict[int, StageResult]" = {}
        attempts = [0] * len(tasks)
        pending = deque(range(len(tasks)))
        idle: "list[_Worker]" = list(self._workers)
        busy: "dict[object, tuple[_Worker, int, float]]" = {}

        def dispatch() -> None:
            while pending and idle:
                index = pending.popleft()
                worker = idle.pop()
                attempts[index] += 1
                task = tasks[index]
                try:
                    worker.conn.send((index, task.fn, dict(task.kwargs)))
                except (BrokenPipeError, OSError):
                    replacement = self._bury(worker, reason="dispatch-failed", task=task.name)
                    idle.append(replacement)
                    attempts[index] -= 1  # the attempt never started
                    pending.appendleft(index)
                    continue
                busy[worker.conn] = (worker, index, time.perf_counter())

        def fail_or_retry(index: int, started: float, reason: str) -> None:
            if attempts[index] <= self.retries:
                self.tasks_retried += 1
                pending.append(index)
                return
            results[index] = StageResult(
                name=tasks[index].name,
                status="crashed",
                error={"type": "WorkerDied", "message": reason, "traceback": ""},
                attempts=attempts[index],
                elapsed_s=time.perf_counter() - started,
            )

        while len(results) < len(tasks):
            dispatch()
            if not busy:
                # Every worker died while dispatching and nothing is in
                # flight — loop back and dispatch to the respawns.
                continue
            wait_timeout = None
            if self.timeout_s is not None:
                oldest = min(started for (_, _, started) in busy.values())
                wait_timeout = max(0.0, self.timeout_s - (time.perf_counter() - oldest))
            ready = _connection_wait(list(busy), timeout=wait_timeout)
            now = time.perf_counter()
            if not ready and self.timeout_s is not None:
                for conn in [
                    c for c, (_, _, t0) in busy.items() if now - t0 >= self.timeout_s
                ]:
                    worker, index, started = busy.pop(conn)
                    self._bury(worker, reason="timeout", task=tasks[index].name)
                    idle.append(self._workers[-1])
                    fail_or_retry(
                        index,
                        started,
                        f"stage exceeded {self.timeout_s}s wall-clock budget",
                    )
                continue
            for conn in ready:
                worker, index, started = busy.pop(conn)
                try:
                    task_id, status, body, pid, blob = conn.recv()
                except (EOFError, OSError):
                    self._bury(worker, reason="crashed", task=tasks[index].name)
                    idle.append(self._workers[-1])
                    fail_or_retry(
                        index,
                        started,
                        "pool worker exited without reporting a result",
                    )
                    continue
                idle.append(worker)
                results[task_id] = StageResult(
                    name=tasks[task_id].name,
                    status=status,
                    payload=body if status == "ok" else None,
                    error=body if status != "ok" else None,
                    pid=pid,
                    attempts=attempts[task_id],
                    elapsed_s=time.perf_counter() - started,
                    obs=blob,
                )
        return [results[i] for i in range(len(tasks))]

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut every worker down cleanly (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            worker.kill()
        self._workers.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
