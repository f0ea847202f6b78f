"""The ``REPRO_KERNELS`` backend switch and the recycled-CSR matching call.

The h-Switch hot path (Solstice's BigSlice threshold search, Eclipse's
greedy duration scan) is dominated by bipartite-matching calls.
:func:`scipy_matching_csr` is the kernel form of that call: the same scipy
Hopcroft–Karp as :func:`repro.matching.hopcroft_karp.maximum_matching_mask`,
but fed caller-built CSR index arrays through one recycled container that
skips scipy's Python-level constructor validation (the dominant per-call
cost at Solstice's probe frequency).  The compiled routine sees
byte-identical CSR arrays, so the returned matching is bit-identical to
the plain wrapper's.

Backend selection
-----------------
``REPRO_KERNELS=kernel`` (the default) routes the schedulers through the
kernels; ``REPRO_KERNELS=oracle`` forces the original pure-Python/seed
code paths, which stay in the tree as correctness oracles.  The CI gate
records an ``obs baseline`` under the oracle backend and ``obs check``-s
the kernel backend against it: any schedule-quality drift — one slice
count, one composite grant — fails the build.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

#: Environment variable naming the active backend.
BACKEND_ENV: str = "REPRO_KERNELS"

#: The fast path: sparse/warm-start kernels (default).
KERNEL: str = "kernel"

#: The reference path: the original pure-Python/seed implementations.
ORACLE: str = "oracle"

_VALID_BACKENDS: "tuple[str, ...]" = (KERNEL, ORACLE)

#: Process-local override taking precedence over the environment.
_override: "str | None" = None


def backend() -> str:
    """The active kernel backend: :data:`KERNEL` or :data:`ORACLE`."""
    if _override is not None:
        return _override
    raw = os.environ.get(BACKEND_ENV, KERNEL).strip().lower()
    if raw not in _VALID_BACKENDS:
        raise ValueError(
            f"{BACKEND_ENV}={raw!r} is not a valid backend; "
            f"expected one of {_VALID_BACKENDS}"
        )
    return raw


def set_backend(name: "str | None") -> None:
    """Set (or with ``None`` clear) the process-local backend override."""
    global _override
    if name is not None:
        name = name.strip().lower()
        if name not in _VALID_BACKENDS:
            raise ValueError(
                f"unknown backend {name!r}; expected one of {_VALID_BACKENDS}"
            )
    _override = name


@contextmanager
def use_backend(name: str):
    """Context manager pinning the backend for a ``with`` block."""
    global _override
    previous = _override
    set_backend(name)
    try:
        yield
    finally:
        _override = previous


def kernels_active() -> bool:
    """Whether the fast kernel backend is selected."""
    return backend() == KERNEL


# ---------------------------------------------------------------------- #
# recycled-CSR scipy matching
# ---------------------------------------------------------------------- #


class _CsrScratch:
    """A reusable CSR container fed fresh index arrays on every call.

    ``scipy.sparse.csr_matrix((data, indices, indptr))`` spends most of its
    time in Python-level validation (``check_format``, index-dtype
    resolution, pruning) that is pure overhead when the caller constructs
    canonical CSR arrays itself.  This scratch builds one csr_matrix and
    thereafter swaps its ``data``/``indices``/``indptr`` attributes in
    place — the compiled csgraph routine reads exactly those arrays, so
    results are identical to a fresh construction.
    """

    def __init__(self) -> None:
        self._graph = None
        self._ones = np.ones(0, dtype=np.int8)

    def matching_csr(
        self,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: "tuple[int, int]",
    ) -> np.ndarray:
        """Matching from caller-built canonical CSR index arrays.

        ``indices`` must be int32 column ids in row-major order (sorted
        within each row) and ``indptr`` the int32 row pointer — exactly
        what ``csr_matrix(mask)`` would hold, so the compiled matcher sees
        byte-identical inputs.
        """
        if self._ones.size < indices.size:
            self._ones = np.ones(max(indices.size, 256), dtype=np.int8)
        data = self._ones[: indices.size]
        if self._graph is None:
            self._graph = csr_matrix((data, indices, indptr), shape=shape)
        else:
            graph = self._graph
            graph.data = data
            graph.indices = indices
            graph.indptr = indptr
            graph._shape = (int(shape[0]), int(shape[1]))
        return np.asarray(
            maximum_bipartite_matching(self._graph, perm_type="column"),
            dtype=np.int64,
        )


_scratch = _CsrScratch()


def scipy_matching_csr(
    indices: np.ndarray, indptr: np.ndarray, n: int
) -> "tuple[np.ndarray, int]":
    """Maximum matching of an n×n biadjacency given as canonical CSR arrays.

    Same contract as :meth:`_CsrScratch.matching_csr`: the caller supplies
    the exact index arrays ``csr_matrix(mask)`` would hold, so the result
    is bit-identical to
    :func:`~repro.matching.hopcroft_karp.maximum_matching_mask` on that
    mask — without ever materialising the dense mask.  Callers that track
    the nonzero structure of a shrinking matrix (BigSlice) build these in
    O(nnz).
    """
    match_left = _scratch.matching_csr(indices, indptr, (n, n))
    return match_left, int((match_left != -1).sum())
