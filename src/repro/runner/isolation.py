"""Per-trial isolation: execute one trial in a subprocess with a timeout.

A sweep must survive anything one trial can do to it — an unbounded
scheduler loop (hang), a segfault in a native library (crash), an OOM kill
(SIGKILL) — so the unit of isolation is an OS process.  The trial function
is addressed by an importable ``"module:function"`` path and called with
JSON-serializable keyword arguments, which keeps specs journal-friendly
and works under any multiprocessing start method.

Outcomes are normalized to a :class:`TrialOutcome`:

* ``ok`` — the function returned; ``payload`` holds its return value;
* ``error`` — it raised; ``error`` holds type/message/traceback;
* ``timeout`` — it exceeded the wall-clock budget and was killed;
* ``crashed`` — the worker died without reporting (segfault, SIGKILL).
"""

from __future__ import annotations

import importlib
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field

from repro import obs

#: Multiprocessing start method of every worker process, one-shot trials and
#: the warm :class:`~repro.runner.pool.WorkerPool` alike: ``fork`` where
#: available (cheap on Linux), else the platform default.
START_METHOD: str = (
    "fork"
    if "fork" in multiprocessing.get_all_start_methods()
    else multiprocessing.get_all_start_methods()[0]
)


@dataclass(frozen=True)
class TrialSpec:
    """One unit of sweep work, fully described by JSON-serializable data.

    Attributes
    ----------
    experiment:
        Human-readable experiment label (grouping key in reports).
    key:
        Unique checkpoint key within the sweep — completed keys are
        skipped on resume.  Conventionally ``"<experiment>:<trial>"``.
    fn:
        ``"module:function"`` path of the trial function.  It is called as
        ``fn(**kwargs)`` and must return a JSON-serializable payload.
    kwargs:
        Keyword arguments (JSON-serializable — they are persisted in the
        journal header so a resume can rebuild the spec).
    demand_fn:
        Optional ``"module:function"`` path that regenerates the trial's
        demand matrix from the same ``kwargs`` — used to quarantine a
        reproducible ``.npz`` when the trial exhausts its retries.
    """

    experiment: str
    key: str
    fn: str
    kwargs: dict = field(default_factory=dict)
    demand_fn: "str | None" = None

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "key": self.key,
            "fn": self.fn,
            "kwargs": self.kwargs,
            "demand_fn": self.demand_fn,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TrialSpec":
        return cls(
            experiment=payload["experiment"],
            key=payload["key"],
            fn=payload["fn"],
            kwargs=dict(payload.get("kwargs", {})),
            demand_fn=payload.get("demand_fn"),
        )


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one execution attempt of one trial."""

    status: str  # "ok" | "error" | "timeout" | "crashed"
    payload: "object | None" = None
    error: "dict | None" = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def resolve_fn(path: str):
    """Import and return the callable behind a ``"module:function"`` path."""
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise ValueError(f"trial fn path must be 'module:function', got {path!r}")
    module = importlib.import_module(module_name)
    fn = module
    for part in attr.split("."):
        fn = getattr(fn, part)
    if not callable(fn):
        raise TypeError(f"{path!r} resolved to a non-callable {type(fn).__name__}")
    return fn


def error_dict(exc: BaseException) -> dict:
    """Normalize an exception into the journal-friendly error envelope.

    Shared by the one-shot subprocess worker below and the warm
    :class:`~repro.runner.pool.WorkerPool` workers.
    """
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }


def run_inline(spec: TrialSpec) -> TrialOutcome:
    """Execute the trial in-process (no isolation, no timeout)."""
    start = time.perf_counter()
    try:
        payload = resolve_fn(spec.fn)(**spec.kwargs)
    except Exception as exc:  # noqa: BLE001 — the whole point is containment
        return TrialOutcome(
            status="error",
            error=error_dict(exc),
            elapsed_s=time.perf_counter() - start,
        )
    return TrialOutcome(
        status="ok", payload=payload, elapsed_s=time.perf_counter() - start
    )


def obs_blob() -> "dict | None":
    """The worker's observations, to ship back over the result pipe.

    Draining the tracer means repeated calls (a warm pool worker blobbing
    once per task) each ship only the spans closed since the last call.
    """
    if not obs.active():
        return None
    return {
        "spans": obs.get_tracer().drain(),
        "metrics": obs.get_metrics().snapshot(),
    }


def _subprocess_worker(conn, fn_path: str, kwargs: dict, heartbeat=None) -> None:
    """Child-side entry point: run the trial, report through the pipe.

    Under the ``fork`` start method the worker inherits the parent's
    installed observability backends: it clears the inherited records
    first (so nothing is double-reported) and ships its own spans/metrics
    back alongside the result for the parent to absorb.  Under ``spawn``
    the module state is rebuilt with the null backends and the blob is
    simply ``None``.

    ``heartbeat`` is an optional ``(dir, key, experiment, attempt)`` tuple;
    when given, a daemon :class:`~repro.runner.heartbeat.HeartbeatTicker`
    refreshes the trial's heartbeat file while the trial runs, so a
    ``repro obs watch`` on the journal can tell alive from hung.
    """
    obs.reset_for_fork()
    ticker = None
    if heartbeat is not None:
        from repro.runner.heartbeat import HeartbeatTicker

        hb_dir, key, experiment, attempt = heartbeat
        ticker = HeartbeatTicker(
            hb_dir, key, experiment=experiment, attempt=attempt
        ).start()
    try:
        payload = resolve_fn(fn_path)(**kwargs)
        conn.send(("ok", payload, obs_blob()))
    except Exception as exc:  # noqa: BLE001
        conn.send(("error", error_dict(exc), obs_blob()))
    finally:
        if ticker is not None:
            ticker.stop()
        conn.close()


def run_in_subprocess(
    spec: TrialSpec,
    *,
    timeout_s: "float | None" = None,
    heartbeat: "tuple | None" = None,
) -> TrialOutcome:
    """Execute the trial in a worker process with a wall-clock budget.

    Parameters
    ----------
    timeout_s:
        Kill the worker and report ``timeout`` after this many seconds;
        ``None`` waits forever.
    heartbeat:
        Optional ``(dir, key, experiment, attempt)`` tuple; the worker
        keeps the trial's heartbeat file fresh while it runs.
    """
    ctx = multiprocessing.get_context(START_METHOD)
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_subprocess_worker,
        args=(child_conn, spec.fn, spec.kwargs, heartbeat),
    )
    start = time.perf_counter()
    process.start()
    child_conn.close()  # the parent only reads

    message = None
    timed_out = False
    try:
        if parent_conn.poll(timeout_s):
            try:
                message = parent_conn.recv()
            except EOFError:
                message = None  # worker died before sending
        else:
            timed_out = True
    finally:
        parent_conn.close()
    elapsed = time.perf_counter() - start

    if timed_out:
        # Timeout: escalate terminate -> kill so even a wedged worker dies.
        process.terminate()
        process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
        process.join()
        return TrialOutcome(
            status="timeout",
            error={
                "type": "TrialTimeout",
                "message": f"trial exceeded {timeout_s}s wall-clock budget",
                "traceback": "",
            },
            elapsed_s=elapsed,
        )

    process.join()
    if message is None:
        return TrialOutcome(
            status="crashed",
            error={
                "type": "WorkerDied",
                "message": (
                    "trial worker exited without reporting a result "
                    f"(exitcode {process.exitcode})"
                ),
                "traceback": "",
            },
            elapsed_s=elapsed,
        )
    status, body, *rest = message
    blob = rest[0] if rest else None
    if blob:
        # Graft the worker's spans under whatever span is open here (the
        # runner's trial span) and fold its counters into ours.
        obs.get_tracer().absorb(blob.get("spans") or [])
        obs.get_metrics().merge(blob.get("metrics") or {})
    if status == "ok":
        return TrialOutcome(status="ok", payload=body, elapsed_s=elapsed)
    return TrialOutcome(status="error", error=body, elapsed_s=elapsed)
