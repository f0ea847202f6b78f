"""Schedule-byte goldens: every scheduler's output pinned by digest.

The simulation goldens (``test_regression_golden.py``,
``test_reference_pipeline.py``) pin what a schedule does once it runs;
these pin the schedules themselves.  Each case digests, entry by entry,
the matching's bytes, the duration and the composite grants, and then
the cp schedule's ``filtered_residual`` (which sums up what the grants
served).  The cases cover Solstice and Eclipse under both kernel
backends and TDM, each taken as an h-Switch, a cp-Switch and a k = 2
schedule at radix 32 and 64 (fast OCS, seeded skewed, typical and
two-skewed-port demand), plus the deadline ladder's L1, L2 and L3
schedules under a :class:`~repro.service.deadline.TickClock` budget.
Where a demand has at most one composite port per direction (the skewed
cases, typical Eclipse and TDM), the second path carries nothing and the
k = 2 schedule is the k = 1 one; the two-skewed-port demand (§3.5) puts
a port on each path, so there every k = 2 schedule differs.

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
from repro.workloads.varying import VaryingSkewWorkload

#: Root seed of the Figure 5/6 benchmark demands.
SEED = 2016

WORKLOADS = {
    "skewed": SkewedWorkload.for_params,
    "typical": CombinedWorkload.typical,
    "two-skewed": lambda params: VaryingSkewWorkload.for_params(
        params, n_skewed_ports=2
    ),
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
    ('skewed', 32, 'solstice', 'oracle'): (
        "6236a32940f77200", "566cc0354fa968ac", "566cc0354fa968ac"
    ),
    ('skewed', 32, 'solstice', 'kernel'): (
        "6236a32940f77200", "566cc0354fa968ac", "566cc0354fa968ac"
    ),
    ('skewed', 32, 'eclipse', 'oracle'): (
        "5eefc12d7f3ccb26", "bcaf10a924ea1d4b", "bcaf10a924ea1d4b"
    ),
    ('skewed', 32, 'eclipse', 'kernel'): (
        "5eefc12d7f3ccb26", "bcaf10a924ea1d4b", "bcaf10a924ea1d4b"
    ),
    ('skewed', 32, 'tdm', 'kernel'): (
        "31b5175a3dc327d7", "1b6a2f99f446865b", "1b6a2f99f446865b"
    ),
    ('skewed', 64, 'solstice', 'oracle'): (
        "0c74196ca950373f", "66d79d098a66e130", "66d79d098a66e130"
    ),
    ('skewed', 64, 'solstice', 'kernel'): (
        "0c74196ca950373f", "66d79d098a66e130", "66d79d098a66e130"
    ),
    ('skewed', 64, 'eclipse', 'oracle'): (
        "7621f37089521d23", "326667a367346473", "326667a367346473"
    ),
    ('skewed', 64, 'eclipse', 'kernel'): (
        "7621f37089521d23", "326667a367346473", "326667a367346473"
    ),
    ('skewed', 64, 'tdm', 'kernel'): (
        "d3baa7cc0023fc19", "67cd7dc44f289ac3", "67cd7dc44f289ac3"
    ),
    ('typical', 32, 'solstice', 'oracle'): (
        "072650ae67b72f2f", "0c49bbb85a4e8f8f", "c80cfd7ba8342168"
    ),
    ('typical', 32, 'solstice', 'kernel'): (
        "072650ae67b72f2f", "0c49bbb85a4e8f8f", "c80cfd7ba8342168"
    ),
    ('typical', 32, 'eclipse', 'oracle'): (
        "9713b2989f47d747", "96421b54a90d42ce", "96421b54a90d42ce"
    ),
    ('typical', 32, 'eclipse', 'kernel'): (
        "9713b2989f47d747", "96421b54a90d42ce", "96421b54a90d42ce"
    ),
    ('typical', 32, 'tdm', 'kernel'): (
        "8a78d9fb40f46880", "407c2b5530124596", "407c2b5530124596"
    ),
    ('typical', 64, 'solstice', 'oracle'): (
        "277ef565a69ee283", "6cdfea429d28bab5", "bada2f2cd54614c9"
    ),
    ('typical', 64, 'solstice', 'kernel'): (
        "277ef565a69ee283", "6cdfea429d28bab5", "bada2f2cd54614c9"
    ),
    ('typical', 64, 'eclipse', 'oracle'): (
        "d8295d3796fad8c6", "76552c67c809773c", "76552c67c809773c"
    ),
    ('typical', 64, 'eclipse', 'kernel'): (
        "d8295d3796fad8c6", "76552c67c809773c", "76552c67c809773c"
    ),
    ('typical', 64, 'tdm', 'kernel'): (
        "f35ae4d477e3561f", "d6ba083c76e8540a", "d6ba083c76e8540a"
    ),
    ('two-skewed', 32, 'solstice', 'oracle'): (
        "2d2db18d8e3f8d7f", "ee711264c708a8cf", "38026221551d2ae4"
    ),
    ('two-skewed', 32, 'solstice', 'kernel'): (
        "2d2db18d8e3f8d7f", "ee711264c708a8cf", "38026221551d2ae4"
    ),
    ('two-skewed', 32, 'eclipse', 'oracle'): (
        "2943544736aca955", "ae6493c5ae6ce019", "eaaff914c63018f2"
    ),
    ('two-skewed', 32, 'eclipse', 'kernel'): (
        "2943544736aca955", "ae6493c5ae6ce019", "eaaff914c63018f2"
    ),
    ('two-skewed', 32, 'tdm', 'kernel'): (
        "fb7b8540e74cd779", "9b30753497b4703e", "6bc6056e487e93aa"
    ),
    ('two-skewed', 64, 'solstice', 'oracle'): (
        "01affe0b7bea6a66", "bd47f4f7cdfe36c7", "8a46ae5b9361c6f4"
    ),
    ('two-skewed', 64, 'solstice', 'kernel'): (
        "01affe0b7bea6a66", "bd47f4f7cdfe36c7", "8a46ae5b9361c6f4"
    ),
    ('two-skewed', 64, 'eclipse', 'oracle'): (
        "f8a0ff4c04f501d8", "9930cc9f56fe030b", "cfc3b910924ebabf"
    ),
    ('two-skewed', 64, 'eclipse', 'kernel'): (
        "f8a0ff4c04f501d8", "9930cc9f56fe030b", "cfc3b910924ebabf"
    ),
    ('two-skewed', 64, 'tdm', 'kernel'): (
        "9bfdbbcce08e656b", "b85e1d56af25cbb1", "cb0bd9d7483a106b"
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
    "L1": (_ladder_l1, FALLBACK_TRUNCATED, "ea85e9c08d1668a0"),
    "L2": (_ladder_l2, FALLBACK_WARM_REUSE, "f9e3700559b282b1"),
    "L3": (_ladder_l3, FALLBACK_TDM, "8a88239f73f0acfd"),
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

    def test_two_skewed_ports_use_both_paths(self):
        # Where two ports per direction have a composite aggregate, the
        # k = 2 golden must pin a schedule of its own, not the k = 1 one.
        cases = [case for case in _CASES if case[0] == "two-skewed"]
        assert len(cases) == 10
        for case in cases:
            _, cp, two_paths = SCHEDULE_GOLDENS[case]
            assert two_paths != cp, case

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
