"""Arrival processes for closed-loop (multi-epoch) operation.

The :class:`~repro.analysis.controller.EpochController` consumes an
*arrival process* — a callable mapping the epoch index to a demand-matrix
increment.  :class:`WorkloadArrivals` builds one on the §3 workload
generators: one workload draw per epoch, with deterministic per-epoch
seeding, so runs are reproducible and comparable across controllers.

For the online :class:`~repro.service.loop.SchedulingService`, the same
process feeds an *async* stream (:func:`arrival_stream`): the demand for
epoch ``e`` is still drawn from the ``(seed, e)`` stream, so the service's
synchronous driver and a plain controller loop see identical arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AsyncIterator, Callable

import numpy as np

from repro.utils.validation import check_nonnegative
from repro.workloads.base import Workload


@dataclass(frozen=True)
class WorkloadArrivals:
    """One workload draw per epoch.

    Parameters
    ----------
    workload:
        Any :class:`~repro.workloads.base.Workload`.
    n_ports:
        Switch radix the matrices are drawn for.
    seed:
        Root seed; epoch ``e`` uses the independent stream ``(seed, e)``,
        so two controllers replaying the same process see identical
        arrivals.
    intensity:
        Volume multiplier applied to every draw (load knob).
    """

    workload: Workload
    n_ports: int
    seed: int = 0
    intensity: float = 1.0

    def __post_init__(self) -> None:
        check_nonnegative("intensity", self.intensity)

    def __call__(self, epoch: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, epoch)))
        spec = self.workload.generate(self.n_ports, rng)
        return spec.demand * self.intensity


async def arrival_stream(
    process: "Callable[[int], np.ndarray]",
    n_epochs: "int | None" = None,
) -> "AsyncIterator[tuple[int, np.ndarray]]":
    """Adapt an arrival process into an async ``(epoch, demand)`` stream.

    The demand for epoch ``e`` is exactly ``process(e)`` — the stream adds
    cancellability, never randomness — so a service consuming this stream
    sees the same arrivals as a synchronous
    :meth:`~repro.analysis.controller.EpochController.run` loop.  It yields
    as fast as the consumer accepts; backpressure comes from the consumer's
    bounded queue.

    Parameters
    ----------
    n_epochs:
        Stop after this many epochs; ``None`` streams forever (the
        consumer cancels).
    """
    epoch = 0
    while n_epochs is None or epoch < n_epochs:
        yield epoch, process(epoch)
        epoch += 1
