"""Shared utilities: unit conversions, RNG handling, input validation."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.units import (
    GBPS,
    MICROSECONDS,
    MILLISECONDS,
    SECONDS,
    gbps_to_mb_per_ms,
    mb_per_ms_to_gbps,
    ms_to_us,
    us_to_ms,
)
from repro.utils.validation import (
    check_demand_matrix,
    check_matching,
    check_nonnegative,
    check_positive,
    matching_from_permutation,
)

__all__ = [
    "GBPS",
    "MICROSECONDS",
    "MILLISECONDS",
    "SECONDS",
    "check_demand_matrix",
    "check_matching",
    "check_nonnegative",
    "check_positive",
    "ensure_rng",
    "gbps_to_mb_per_ms",
    "matching_from_permutation",
    "mb_per_ms_to_gbps",
    "ms_to_us",
    "spawn_rngs",
    "us_to_ms",
]
