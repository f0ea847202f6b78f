"""Schedule-byte goldens: every scheduler's output pinned by digest.

The simulation goldens (``test_regression_golden.py``,
``test_reference_pipeline.py``) pin what a schedule does once it runs;
these pin the schedules themselves.  Each case digests, entry by entry,
the matching's bytes, the duration, the composite grants and the
``composite_served`` matrix, and then the cp schedule's
``filtered_residual``.  The cases cover Solstice and Eclipse under both
kernel backends and TDM, each taken as an h-Switch, a cp-Switch and a
k = 2 schedule at radix 32 and 64 (fast OCS, seeded skewed and typical
demand), plus the deadline ladder's L1, L2 and L3 schedules under a
:class:`~repro.service.deadline.TickClock` budget.  Where a demand has at
most one composite port per direction (the skewed cases, Eclipse, TDM),
the second path carries nothing and the k = 2 schedule is the k = 1 one.

Re-derive a golden by printing ``_schedule_digest`` of the case's
schedule; a change that is meant to alter schedules says so when it does.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.base import make_scheduler
from repro.matching import kernels
from repro.service.deadline import (
    FALLBACK_TDM,
    FALLBACK_TRUNCATED,
    FALLBACK_WARM_REUSE,
    AnytimeScheduler,
    TickClock,
)
from repro.switch.params import fast_ocs_params
from repro.utils.rng import spawn_rngs
from repro.workloads.combined import CombinedWorkload
from repro.workloads.skewed import SkewedWorkload

#: Root seed of the Figure 5/6 benchmark demands.
SEED = 2016

WORKLOADS = {
    "skewed": SkewedWorkload.for_params,
    "typical": CombinedWorkload.typical,
}


def _demand(workload: str, n: int, trial: int = 0) -> np.ndarray:
    params = fast_ocs_params(n)
    rng = spawn_rngs(SEED, trial + 1)[trial]
    return WORKLOADS[workload](params).generate(n, rng).demand


def _grants(*ports: "tuple[int, ...]"):
    """An entry's grants as digested: a direction with one grant as its
    port and with none as ``None`` (the one-path form these goldens were
    first recorded in), with several as the tuple in path order."""
    return tuple(
        None if not grants else grants[0] if len(grants) == 1 else grants
        for grants in ports
    )


def _schedule_digest(schedule) -> str:
    """Digest of a schedule's configurations and, for a cp schedule, its
    filtered residual."""
    digest = hashlib.sha256()
    for entry in schedule.entries:
        digest.update(np.ascontiguousarray(entry.matching).tobytes())
        digest.update(np.float64(entry.duration).tobytes())
        if hasattr(entry, "o2m_ports"):
            digest.update(repr(_grants(entry.o2m_ports, entry.m2o_ports)).encode())
        if hasattr(entry, "composite_served"):
            digest.update(np.ascontiguousarray(entry.composite_served).tobytes())
    if hasattr(schedule, "filtered_residual"):
        digest.update(np.ascontiguousarray(schedule.filtered_residual).tobytes())
    return digest.hexdigest()[:16]


def _schedules(workload: str, n: int, scheduler: str, backend: str):
    """The (h, cp, k = 2) schedules of one case."""
    params = fast_ocs_params(n)
    demand = _demand(workload, n)
    with kernels.use_backend(backend):
        return (
            make_scheduler(scheduler).schedule(demand, params),
            CpSwitchScheduler(make_scheduler(scheduler)).schedule(demand, params),
            CpSwitchScheduler(make_scheduler(scheduler), n_paths=2).schedule(
                demand, params
            ),
        )


#: (workload, radix, scheduler, backend) -> (h, cp, k = 2) digests.
SCHEDULE_GOLDENS = {
    ("skewed", 32, "solstice", "oracle"): (
        "6236a32940f77200", "f565e607e1f3dd9a", "f565e607e1f3dd9a"
    ),
    ("skewed", 32, "solstice", "kernel"): (
        "6236a32940f77200", "f565e607e1f3dd9a", "f565e607e1f3dd9a"
    ),
    ("skewed", 32, "eclipse", "oracle"): (
        "5eefc12d7f3ccb26", "2a05f92e8220a891", "2a05f92e8220a891"
    ),
    ("skewed", 32, "eclipse", "kernel"): (
        "5eefc12d7f3ccb26", "2a05f92e8220a891", "2a05f92e8220a891"
    ),
    ("skewed", 32, "tdm", "kernel"): (
        "31b5175a3dc327d7", "432247a637fe8845", "432247a637fe8845"
    ),
    ("skewed", 64, "solstice", "oracle"): (
        "0c74196ca950373f", "e73e881f97e5636c", "e73e881f97e5636c"
    ),
    ("skewed", 64, "solstice", "kernel"): (
        "0c74196ca950373f", "e73e881f97e5636c", "e73e881f97e5636c"
    ),
    ("skewed", 64, "eclipse", "oracle"): (
        "7621f37089521d23", "404a9a3958cf1a94", "404a9a3958cf1a94"
    ),
    ("skewed", 64, "eclipse", "kernel"): (
        "7621f37089521d23", "404a9a3958cf1a94", "404a9a3958cf1a94"
    ),
    ("skewed", 64, "tdm", "kernel"): (
        "d3baa7cc0023fc19", "ade454da77e6bbfa", "ade454da77e6bbfa"
    ),
    ("typical", 32, "solstice", "oracle"): (
        "072650ae67b72f2f", "afbf4f55ffc0c17b", "07e342be1834e174"
    ),
    ("typical", 32, "solstice", "kernel"): (
        "072650ae67b72f2f", "afbf4f55ffc0c17b", "07e342be1834e174"
    ),
    ("typical", 32, "eclipse", "oracle"): (
        "9713b2989f47d747", "5e578210baa8f7ca", "5e578210baa8f7ca"
    ),
    ("typical", 32, "eclipse", "kernel"): (
        "9713b2989f47d747", "5e578210baa8f7ca", "5e578210baa8f7ca"
    ),
    ("typical", 32, "tdm", "kernel"): (
        "8a78d9fb40f46880", "c4d539972710f415", "c4d539972710f415"
    ),
    ("typical", 64, "solstice", "oracle"): (
        "277ef565a69ee283", "c71ae532ccb0c696", "0570730cf7d7a392"
    ),
    ("typical", 64, "solstice", "kernel"): (
        "277ef565a69ee283", "c71ae532ccb0c696", "0570730cf7d7a392"
    ),
    ("typical", 64, "eclipse", "oracle"): (
        "d8295d3796fad8c6", "1cfb02bc9378b127", "1cfb02bc9378b127"
    ),
    ("typical", 64, "eclipse", "kernel"): (
        "d8295d3796fad8c6", "1cfb02bc9378b127", "1cfb02bc9378b127"
    ),
    ("typical", 64, "tdm", "kernel"): (
        "f35ae4d477e3561f", "0147ca22a07eac0a", "0147ca22a07eac0a"
    ),
}


def _ladder_l1():
    anytime = AnytimeScheduler(
        CpSwitchScheduler(make_scheduler("solstice")),
        deadline_s=6.5,
        clock=TickClock(step=1.0),
    )
    schedule = anytime.schedule(_demand("typical", 32), fast_ocs_params(32))
    return anytime.last_outcome.fallback_level, schedule


def _ladder_l2():
    # A full schedule on a frozen clock, then a budget that runs out
    # before the first slice: the remembered reduced-space schedule is
    # re-interpreted against the next trial's demand.
    clock = TickClock(step=0.0)
    anytime = AnytimeScheduler(
        CpSwitchScheduler(make_scheduler("solstice")), deadline_s=2.5, clock=clock
    )
    params = fast_ocs_params(32)
    anytime.schedule(_demand("typical", 32), params)
    clock.step = 1.0
    schedule = anytime.schedule(_demand("typical", 32, trial=1), params)
    return anytime.last_outcome.fallback_level, schedule


def _ladder_l3():
    anytime = AnytimeScheduler(
        CpSwitchScheduler(make_scheduler("solstice")),
        deadline_s=2.5,
        clock=TickClock(step=1.0),
    )
    schedule = anytime.schedule(_demand("typical", 32), fast_ocs_params(32))
    return anytime.last_outcome.fallback_level, schedule


#: rung -> (case, expected fallback level, digest).
LADDER_GOLDENS = {
    "L1": (_ladder_l1, FALLBACK_TRUNCATED, "d9f225dca5946c35"),
    "L2": (_ladder_l2, FALLBACK_WARM_REUSE, "d7e5d2b65bb66180"),
    "L3": (_ladder_l3, FALLBACK_TDM, "9c758637758d3bfc"),
}

_CASES = [
    (workload, n, scheduler, backend)
    for workload in WORKLOADS
    for n in (32, 64)
    for scheduler, backends in (
        ("solstice", (kernels.ORACLE, kernels.KERNEL)),
        ("eclipse", (kernels.ORACLE, kernels.KERNEL)),
        ("tdm", (kernels.KERNEL,)),
    )
    for backend in backends
]


class TestScheduleGoldens:
    def test_every_case_has_a_golden(self):
        assert sorted(SCHEDULE_GOLDENS) == sorted(_CASES)

    @pytest.mark.parametrize("case", _CASES, ids=["-".join(map(str, c)) for c in _CASES])
    def test_schedules_match_golden(self, case):
        digests = tuple(_schedule_digest(s) for s in _schedules(*case))
        assert digests == SCHEDULE_GOLDENS[case]

    @pytest.mark.parametrize("rung", sorted(LADDER_GOLDENS))
    def test_ladder_schedule_matches_golden(self, rung):
        run, level, digest = LADDER_GOLDENS[rung]
        measured_level, schedule = run()
        assert measured_level == level
        assert len(schedule.entries) > 0
        assert _schedule_digest(schedule) == digest
