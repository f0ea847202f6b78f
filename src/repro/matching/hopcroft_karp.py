"""Hopcroft–Karp maximum-cardinality bipartite matching.

This is the feasibility oracle inside Solstice's *BigSlice* step: given a
stuffed demand matrix and a candidate threshold ``r``, BigSlice asks whether
the bipartite graph with an edge (sender i, receiver j) wherever
``E[i, j] >= r`` admits a perfect matching.  Hopcroft–Karp answers in
``O(E * sqrt(V))``.

The implementation is a standard BFS-layering + DFS-augmentation version
operating on adjacency lists, with left vertices ``0..n_left-1`` and right
vertices ``0..n_right-1``.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

#: Sentinel for "unmatched" in the matching arrays.
UNMATCHED: int = -1


def hopcroft_karp(adjacency: "list[list[int]]", n_right: int) -> "tuple[np.ndarray, np.ndarray, int]":
    """Maximum-cardinality matching of a bipartite graph.

    Parameters
    ----------
    adjacency:
        ``adjacency[u]`` lists the right-side neighbours of left vertex
        ``u``.
    n_right:
        Number of right-side vertices.

    Returns
    -------
    match_left, match_right, size:
        ``match_left[u]`` is the right vertex matched to ``u`` (or
        :data:`UNMATCHED`); ``match_right`` is the inverse map; ``size`` is
        the matching cardinality.
    """
    n_left = len(adjacency)
    match_left = np.full(n_left, UNMATCHED, dtype=np.int64)
    match_right = np.full(n_right, UNMATCHED, dtype=np.int64)
    inf = n_left + n_right + 1
    dist = np.zeros(n_left, dtype=np.int64)

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(n_left):
            if match_left[u] == UNMATCHED:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        found_free = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                nxt = match_right[v]
                if nxt == UNMATCHED:
                    found_free = True
                elif dist[nxt] == inf:
                    dist[nxt] = dist[u] + 1
                    queue.append(nxt)
        return found_free

    def dfs(root: int) -> bool:
        # Explicit-stack DFS: the recursive formulation recurses once per
        # augmenting-path hop, and at radix >= ~500 a single path can blow
        # Python's default 1000-frame recursion limit.  Frames are
        # ``[u, next_neighbour_index, edge_taken]`` and are visited in the
        # exact order of the recursive version, so results are bit-identical.
        stack: "list[list[int]]" = [[root, 0, -1]]
        while stack:
            frame = stack[-1]
            u, idx = frame[0], frame[1]
            neighbours = adjacency[u]
            descended = False
            while idx < len(neighbours):
                v = neighbours[idx]
                idx += 1
                nxt = match_right[v]
                if nxt == UNMATCHED:
                    # Augmenting path found: flip the edge here, then the
                    # pending edge of every frame on the way back up.
                    match_left[u] = v
                    match_right[v] = u
                    stack.pop()
                    while stack:
                        parent = stack.pop()
                        match_left[parent[0]] = parent[2]
                        match_right[parent[2]] = parent[0]
                    return True
                if dist[nxt] == dist[u] + 1:
                    frame[1] = idx
                    frame[2] = v
                    stack.append([nxt, 0, -1])
                    descended = True
                    break
            if not descended:
                dist[u] = inf
                stack.pop()
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            if match_left[u] == UNMATCHED and dfs(u):
                size += 1
    return match_left, match_right, size


def _adjacency_from_mask(mask: np.ndarray) -> "list[list[int]]":
    """Adjacency lists of the bipartite graph encoded by a boolean matrix."""
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
    rows, cols = np.nonzero(mask)
    adjacency: list[list[int]] = [[] for _ in range(mask.shape[0])]
    for r, c in zip(rows.tolist(), cols.tolist()):
        adjacency[r].append(c)
    return adjacency


def maximum_matching_mask(mask: np.ndarray, *, use_scipy: bool = True) -> "tuple[np.ndarray, int]":
    """Maximum matching of the graph given as a boolean adjacency matrix.

    Returns ``(match_left, size)`` with ``match_left`` as in
    :func:`hopcroft_karp`.  The default backend is scipy's C implementation
    of Hopcroft–Karp (this call sits in Solstice's inner loop); the
    pure-Python implementation above (``use_scipy=False``) is its test
    oracle.
    """
    mask = np.asarray(mask, dtype=bool)
    if use_scipy:
        # Build the CSR triplet directly: scipy's dense-matrix constructor
        # routes through a COO intermediate whose Python-level validation
        # dominates this call at Solstice's probe frequency.  The resulting
        # indices/indptr are exactly the canonical dense→CSR conversion, so
        # the matching is unchanged.
        n_rows, n_cols = mask.shape
        indices = np.flatnonzero(mask).astype(np.int32)
        indptr = np.zeros(n_rows + 1, dtype=np.int32)
        np.cumsum(mask.sum(axis=1, dtype=np.int32), out=indptr[1:])
        indices %= n_cols
        graph = csr_matrix(
            (np.ones(indices.size, dtype=np.int8), indices, indptr),
            shape=(n_rows, n_cols),
        )
        match_left = np.asarray(
            maximum_bipartite_matching(graph, perm_type="column"), dtype=np.int64
        )
        return match_left, int((match_left != UNMATCHED).sum())
    adjacency = _adjacency_from_mask(mask)
    match_left, _match_right, size = hopcroft_karp(adjacency, mask.shape[1])
    return match_left, size


def has_perfect_matching(mask: np.ndarray) -> bool:
    """Whether the boolean adjacency matrix admits a perfect matching."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape[0] != mask.shape[1]:
        return False
    # Cheap necessary condition before running HK: no empty row/column.
    if not (mask.any(axis=1).all() and mask.any(axis=0).all()):
        return False
    _match, size = maximum_matching_mask(mask)
    return size == mask.shape[0]


def perfect_matching_mask(mask: np.ndarray) -> "np.ndarray | None":
    """Perfect matching of a boolean adjacency matrix, if one exists.

    Returns ``match_left`` (length-n array mapping each row to its matched
    column) or ``None`` when no perfect matching exists.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape[0] != mask.shape[1]:
        return None
    match_left, size = maximum_matching_mask(mask)
    return match_left if size == mask.shape[0] else None


def matching_to_permutation(match_left: np.ndarray, n: int) -> np.ndarray:
    """Convert a ``match_left`` array to a 0/1 permutation matrix.

    Unmatched rows produce all-zero rows (a *partial* permutation).
    """
    perm = np.zeros((n, n), dtype=np.int8)
    for u, v in enumerate(match_left.tolist()):
        if v != UNMATCHED:
            perm[u, v] = 1
    return perm
