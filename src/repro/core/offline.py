"""§4 extension — offline execution (permutation reordering).

The schedulers emit permutations in a greedy order and §3 executes them in
that order ("online execution").  §4 observes that reordering cannot change
the total completion time or the windowed OCS utilization (the set of
configurations is unchanged), but it *can* move specific coflows earlier:
in particular, pulling composite-path configurations to the front of a
cp-Switch schedule serves the delay-sensitive one-to-many / many-to-one
coflows first, while for the h-Switch the same traffic stays gated by its
many reconfigurations regardless of order.

This module provides named reordering policies for both schedule types;
:func:`reorder` applies one by name.  The
``benchmarks/bench_ablation_offline.py`` study quantifies the effect.
"""

from __future__ import annotations

from typing import Callable

from repro.core.scheduler import CpSchedule
from repro.hybrid.schedule import Schedule

#: Signature of a reordering policy: schedule -> execution order (indices).
Policy = Callable[["Schedule | CpSchedule"], "list[int]"]


def online_order(schedule) -> "list[int]":
    """The scheduler's own emission order (§3's 'online execution')."""
    return list(range(len(schedule.entries)))


def reversed_order(schedule) -> "list[int]":
    """Reverse emission order — Solstice's shortest slices first."""
    return list(range(len(schedule.entries)))[::-1]


def longest_first(schedule) -> "list[int]":
    """Longest configurations first (big-flow traffic first)."""
    return sorted(
        range(len(schedule.entries)),
        key=lambda i: -schedule.entries[i].duration,
    )


def shortest_first(schedule) -> "list[int]":
    """Shortest configurations first (small residuals first)."""
    return sorted(
        range(len(schedule.entries)),
        key=lambda i: schedule.entries[i].duration,
    )


def composite_first(schedule: CpSchedule) -> "list[int]":
    """Composite-path configurations first, longest first within each class.

    Only meaningful for cp-Switch schedules: serves the skewed coflows as
    early as possible.
    """
    def key(index: int):
        entry = schedule.entries[index]
        has_composite = bool(
            getattr(entry, "o2m_ports", ()) or getattr(entry, "m2o_ports", ())
        )
        return (not has_composite, -entry.duration)

    return sorted(range(len(schedule.entries)), key=key)


POLICIES: "dict[str, Policy]" = {
    "online": online_order,
    "reversed": reversed_order,
    "longest-first": longest_first,
    "shortest-first": shortest_first,
    "composite-first": composite_first,
}


def reorder(schedule, policy: str):
    """Return ``schedule`` reordered by the named policy.

    Works on both :class:`~repro.hybrid.schedule.Schedule` and
    :class:`~repro.core.scheduler.CpSchedule` (``composite-first`` is a
    no-op permutation on plain schedules, whose entries carry no composite
    grants).
    """
    try:
        order = POLICIES[policy](schedule)
    except KeyError:
        raise ValueError(
            f"unknown reordering policy {policy!r}; available: {sorted(POLICIES)}"
        ) from None
    return schedule.reordered(order)
