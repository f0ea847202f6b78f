"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-solstice-256 --seed 1 \\
        --seconds 20 --trace 0

The library is imported from the checkout's ``src/``.  With ``--trace 0``
the run prints every end-to-end metric, its times scaled to the reference
speed of :mod:`speed`; with ``--trace 1`` it measures the
workload twice, untraced and then with a span around every layer of
:mod:`layers`, prints the per-layer metrics and the tracing overhead, and
writes the spans to ``perfbench/out/spans-<workload>.json``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Failed checks are listed on
standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The set-up is built this many times; ``setup_s`` uses the median.
SETUP_REPEATS = 5
#: Fresh interpreters that time the imports, besides this one; ``setup_s``
#: uses the median import time.
IMPORT_PROBES = 4
IMPORT_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path[:0] = [{src!r}, {here!r}]\n"
    "import layers, workloads\n"
    "print(time.perf_counter() - start)\n"
)

#: End-to-end metric -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cct_ratio": "ratio",
    "served_frac": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_result(outcomes, metrics: "dict[str, tuple[float, str]]") -> None:
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for outcome in outcomes:
        for error in outcome.errors[:20]:
            print(f"check failed: {error}", file=sys.stderr)
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit}")
    print(f"{'failed_frac':<{width}}  {failed / max(1, attempted):>14.6g} ({failed}/{attempted})")
    result = {
        "correct": all(o.correct for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))


def import_seconds() -> float:
    """Median time to import the library and the benchmark, in this
    interpreter (which must not have imported them yet) and fresh ones."""
    start = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import layers  # noqa: F401
    import workloads  # noqa: F401

    samples = [time.perf_counter() - start]
    code = IMPORT_CODE.format(src=str(SRC), here=str(HERE))
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    import_s = import_seconds()
    import layers
    from spans import SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    builds = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        inputs = workload.setup(args.seed)
        builds.append(time.perf_counter() - started)
    setup_s = import_s + statistics.median(builds)

    if not args.trace:
        outcome = workload.run(inputs, args.seconds)
        if not outcome.samples:
            print("error: no operation completed", file=sys.stderr)
            return 1
        print(f"speed_scale {outcome.speed_scale:.4f} (times below are measured times x this)")
        values = {"setup_s": setup_s * outcome.speed_scale, **outcome.end_to_end()}
        print_result([outcome], {k: (values[k], u) for k, u in E2E_UNITS.items()})
        return 0

    untraced = workload.run(inputs, args.seconds)
    recorder = SpanRecorder()
    layers.install(recorder)
    try:
        traced = workload.run(workload.setup(args.seed), args.seconds)
    finally:
        recorder.restore()
    if not (untraced.samples and traced.samples):
        print("error: no operation completed", file=sys.stderr)
        return 1
    recorder.dump(HERE / "out" / f"spans-{args.workload}.json")
    # Both runs at the reference speed, so host drift between them cancels.
    overhead_pct = 100.0 * (
        statistics.fmean(traced.samples) * traced.speed_scale
        / (statistics.fmean(untraced.samples) * untraced.speed_scale)
        - 1.0
    )
    print(layers.table(recorder, traced.windows))
    values = layers.metrics(recorder, traced, overhead_pct)
    print_result(
        [untraced, traced], {k: (values[k], u) for k, u in layers.UNITS.items()}
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
