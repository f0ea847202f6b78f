"""The paper's demand models (§3.2–§3.5).

All generators produce a :class:`~repro.workloads.base.DemandSpec`: the
demand matrix plus the mask of entries that belong to the skewed
one-to-many / many-to-one coflows, so experiments can report coflow
completion for the skewed subset exactly as the paper's figures do.

Volume scaling: the paper uses 100× larger volumes with the slow OCS
(skewed entries U[1, 1.3] Mb → U[100, 130] Mb; elephants 30 Mb → 3 Gb;
mice 3 Mb → 300 Mb), captured by a single ``volume_scale`` parameter
(1.0 = fast OCS, 100.0 = slow OCS).
"""

from repro.workloads.arrivals import arrival_stream
from repro.workloads.background import TypicalBackgroundWorkload
from repro.workloads.base import DemandSpec, Workload, volume_scale_for
from repro.workloads.combined import CombinedWorkload
from repro.workloads.skewed import SkewedWorkload
from repro.workloads.varying import VaryingSkewWorkload

__all__ = [
    "CombinedWorkload",
    "DemandSpec",
    "SkewedWorkload",
    "TypicalBackgroundWorkload",
    "VaryingSkewWorkload",
    "Workload",
    "arrival_stream",
    "volume_scale_for",
]
