"""A fixed reference kernel that tracks the host's speed during a run.

On a shared 2-core host the same code ran up to a third slower for minutes
at a time while other tenants were busy, which buried every change smaller
than that.  A run therefore times this kernel between its operations, and
the timing metrics are scaled to the speed at which the kernel takes
:data:`REFERENCE_S`: ``scaled = measured * REFERENCE_S / median(kernel)``.
The kernel mixes interpreter work and small NumPy calls like the library
does, but uses nothing of the library, so no change to it can move the
kernel.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time that defines the reference speed (about its median on a
#: 2-core x86 host at its usual speed).
REFERENCE_S = 0.010


def kernel_seconds() -> float:
    """Run the reference kernel once; its wall time in seconds."""
    start = time.perf_counter()
    table: "dict[int, int]" = {}
    for i in range(6000):
        key = i % 97
        table[key] = table.get(key, 0) + i
    values = np.arange(8192, dtype=np.float64)
    for _ in range(12):
        order = np.argsort(values[::-1], kind="stable")
        values = np.cumsum(values[order]) % 1013.0
    return time.perf_counter() - start
