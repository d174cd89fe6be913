"""Spanning-tree counts of graphlets (§3.3, "Spanning trees").

Two quantities drive the sampling estimators:

``σ_i``
    The total number of spanning trees of graphlet ``H_i`` — motivo gets it
    from Kirchhoff's matrix-tree theorem in O(k^3).  Implemented here with
    a fraction-free Bareiss determinant, so the result is an exact integer.
``σ_ij``
    The number of spanning trees of ``H_i`` isomorphic to the free treelet
    shape ``T_j`` — needed by AGS.  Motivo computes it with an *in-memory
    run of the build-up phase* on the graphlet itself and caches the
    results on disk because they are expensive for k ≥ 7.  Both behaviors
    are reproduced.  :func:`spanning_tree_shape_counts_batch` runs the
    repo's own build-up (:func:`~repro.colorcoding.buildup.build_table`)
    once over the disjoint union of many graphlets: node ``i`` of each
    graphlet gets color ``i``, so every spanning tree is colorful and the
    zero-rooted size-``k`` counts at each graphlet's node 0 are its
    spanning trees, bucketed by rooted treelet and hence by free shape.
    One build serves a whole batch (all 853 graphlets at k = 7 fit one),
    and :class:`SigmaCache` keeps the tables in process and on disk.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.plans import compile_plans
from repro.errors import GraphletError
from repro.graph.graph import Graph
from repro.graphlets.encoding import (
    GraphletEncoding,
    adjacency_sets,
    decode_graphlet,
)
from repro.treelets.registry import TreeletRegistry
from repro.util.instrument import Instrumentation

__all__ = [
    "spanning_tree_count",
    "spanning_tree_shape_counts",
    "spanning_tree_shape_counts_batch",
    "SigmaCache",
]


@lru_cache(maxsize=65536)
def spanning_tree_count(bits: GraphletEncoding, k: int) -> int:
    """Exact number of spanning trees via Kirchhoff / Bareiss.

    Deletes the last row/column of the Laplacian and evaluates the
    determinant with fraction-free Gaussian elimination — exact integers
    throughout, matching the paper's O(k^3) computation.  Memoized per
    ``(bits, k)``: the naive estimator asks for σ of every hit graphlet
    on every call.
    """
    if k < 1:
        raise GraphletError("graphlet size must be positive")
    if k == 1:
        return 1
    adjacency = adjacency_sets(bits, k)
    size = k - 1
    matrix: List[List[int]] = [[0] * size for _ in range(size)]
    for v in range(size):
        matrix[v][v] = len(adjacency[v])
        for u in adjacency[v]:
            if u < size:
                matrix[v][u] = -1
    return _bareiss_determinant(matrix)


def _bareiss_determinant(matrix: List[List[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss algorithm)."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    previous_pivot = 1
    for step in range(n - 1):
        if m[step][step] == 0:
            for swap in range(step + 1, n):
                if m[swap][step] != 0:
                    m[step], m[swap] = m[swap], m[step]
                    sign = -sign
                    break
            else:
                return 0
        for row in range(step + 1, n):
            for col in range(step + 1, n):
                numerator = (
                    m[row][col] * m[step][step] - m[row][step] * m[step][col]
                )
                m[row][col] = numerator // previous_pivot
            m[row][step] = 0
        previous_pivot = m[step][step]
    return sign * m[n - 1][n - 1]


#: Count-matrix bytes one union build may hold, as its key universes
#: times its vertices times 8; a larger batch runs as several builds.
#: Measured peaks run about twice this (product and contraction
#: temporaries).  Every graphlet up to k = 7 fits one build; at k = 8
#: a build takes 264 of them.
_UNION_BUILD_BYTES = 32 << 20


def spanning_tree_shape_counts(
    bits: GraphletEncoding,
    k: int,
    registry: Optional[TreeletRegistry] = None,
    cache: "Optional[SigmaCache]" = None,
) -> Dict[int, int]:
    """Spanning trees of the graphlet, bucketed by free treelet shape.

    Returns ``{canonical_free encoding of T_j: σ_ij}``; shapes with zero
    spanning trees are omitted.  ``sum(result.values())`` equals
    :func:`spanning_tree_count` (property-tested).  A one-graphlet call of
    :func:`spanning_tree_shape_counts_batch`.
    """
    return spanning_tree_shape_counts_batch([bits], k, registry, cache)[bits]


def spanning_tree_shape_counts_batch(
    graphlets: Iterable[GraphletEncoding],
    k: int,
    registry: Optional[TreeletRegistry] = None,
    cache: "Optional[SigmaCache]" = None,
) -> Dict[GraphletEncoding, Dict[int, int]]:
    """σ_ij tables of several graphlets from one build-up pass.

    Returns ``{graphlet: {shape: σ_ij}}`` in input order (duplicates
    collapse).  Graphlets found in ``cache`` are not recomputed; the
    others are computed together — the paper's in-memory build-up run on
    the disjoint union of their graphs (see the module docstring), split
    into several runs only past ``_UNION_BUILD_BYTES`` — and put into
    ``cache`` afterwards.
    """
    order = list(dict.fromkeys(graphlets))
    tables: Dict[GraphletEncoding, Dict[int, int]] = {}
    if cache is not None:
        for bits in order:
            cached = cache.get(bits, k)
            if cached is not None:
                tables[bits] = cached
    missing = [bits for bits in order if bits not in tables]
    if missing:
        registry = registry or _default_registry(k)
        keys = sum(len(plan.keys) for plan in compile_plans(registry).values())
        per_build = max(1, _UNION_BUILD_BYTES // (8 * k * keys))
        for start in range(0, len(missing), per_build):
            part = missing[start:start + per_build]
            for bits, table in zip(part, _union_shape_counts(part, k, registry)):
                tables[bits] = table
                if cache is not None:
                    cache.put(bits, k, table)
    return {bits: tables[bits] for bits in order}


def _union_shape_counts(
    graphlets: List[GraphletEncoding], k: int, registry: TreeletRegistry
) -> List[Dict[int, int]]:
    """One zero-rooted build over the disjoint union of the graphlets.

    Graphlet ``g`` occupies vertices ``g·k .. g·k + k − 1``, so its
    spanning trees are the size-``k`` counts at vertex ``g·k``.  The
    build gets a private :class:`Instrumentation`: σ work adds nothing
    to any caller's build counters.
    """
    edges = [
        (base + i, base + j)
        for base, bits in zip(range(0, k * len(graphlets), k), graphlets)
        for i, j in decode_graphlet(bits, k)
    ]
    graph = Graph.from_edges(
        np.asarray(edges, dtype=np.int64).reshape(-1, 2), n=k * len(graphlets)
    )
    coloring = ColoringScheme.fixed(np.tile(np.arange(k), len(graphlets)), k)
    table = build_table(
        graph, coloring, registry, zero_rooting=True,
        instrumentation=Instrumentation(),
    )
    layer = table.layer(k)
    roots = np.arange(len(graphlets)) * k
    full_mask = (1 << k) - 1
    shape_counts: List[Dict[int, int]] = [{} for _ in graphlets]
    for treelet in registry.treelets_of_size(k):
        row = layer.counts_for(treelet, full_mask)
        if row is None:
            continue
        at_root = row[roots]
        shape = registry.shape_of_rooted[treelet]
        for g in np.flatnonzero(at_root).tolist():
            counts = shape_counts[g]
            counts[shape] = counts.get(shape, 0) + int(at_root[g])
    return shape_counts


_REGISTRY_CACHE: Dict[int, TreeletRegistry] = {}


def _default_registry(k: int) -> TreeletRegistry:
    registry = _REGISTRY_CACHE.get(k)
    if registry is None:
        registry = TreeletRegistry(k)
        _REGISTRY_CACHE[k] = registry
    return registry


class SigmaCache:
    """In-memory + optional on-disk cache of σ_ij tables (§3.3).

    The paper: "motivo caches the σij and stores them to disk for later
    reuse.  In some cases (e.g. k = 8 on Facebook) this accelerates
    sampling by an order of magnitude."  The disk format is one JSON file
    per ``k`` mapping graphlet encodings to their shape-count dictionaries.
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory
        self._memory: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._dirty = False
        self._loaded_ks: set = set()

    def get(self, bits: GraphletEncoding, k: int) -> Optional[Dict[int, int]]:
        """Fetch a cached table, consulting disk on first use of each k."""
        self._ensure_loaded(k)
        return self._memory.get((k, bits))

    def put(self, bits: GraphletEncoding, k: int, table: Dict[int, int]) -> None:
        """Insert a table; call :meth:`flush` to persist."""
        self._memory[(k, bits)] = dict(table)
        self._dirty = True

    def flush(self) -> None:
        """Write all cached tables to disk (no-op without a directory)."""
        if self.directory is None or not self._dirty:
            return
        os.makedirs(self.directory, exist_ok=True)
        by_k: Dict[int, Dict[str, Dict[str, int]]] = {}
        for (k, bits), table in self._memory.items():
            by_k.setdefault(k, {})[str(bits)] = {
                str(shape): count for shape, count in table.items()
            }
        for k, payload in by_k.items():
            path = os.path.join(self.directory, f"sigma_k{k}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
        self._dirty = False

    def _ensure_loaded(self, k: int) -> None:
        if self.directory is None or k in self._loaded_ks:
            return
        self._loaded_ks.add(k)
        path = os.path.join(self.directory, f"sigma_k{k}.json")
        if not os.path.exists(path):
            return
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        for bits_text, table in payload.items():
            self._memory[(k, int(bits_text))] = {
                int(shape): count for shape, count in table.items()
            }

    def __len__(self) -> int:
        return len(self._memory)
