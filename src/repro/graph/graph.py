"""Compressed sparse row (CSR) undirected simple graph.

Mirrors motivo's input representation (§3.3): each adjacency list is a
sorted static array, lists of consecutive vertices are contiguous in memory,
iteration over a vertex's neighbors is a slice, and edge-membership queries
cost ``O(log d)`` via binary search — exactly what the sampling phase needs
to turn a sampled treelet into an induced graphlet.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.errors import GraphError

__all__ = ["Graph", "change_rows", "exact_int", "normalize_updates"]

#: Accepted spellings of the two edge-update operations.
_INSERT_OPS = {"+", "add", "insert", 1, +1}
_DELETE_OPS = {"-", "remove", "delete", "del", -1}

_INT64 = np.iinfo(np.int64)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by one sort: the same ascending array, and
    several times faster on int64 ids than NumPy's hashing path."""
    ordered = np.sort(values, axis=None)
    if ordered.size:
        keep = np.empty(ordered.size, dtype=bool)
        keep[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
        ordered = ordered[keep]
    return ordered


def exact_int(value) -> Optional[int]:
    """``value`` as an ``int`` when it is an integer (bools excluded).

    The trust-boundary check for integer fields: strings, floats (even
    integral ones), bools and containers give ``None`` instead of being
    coerced, so ``1.5`` is never silently truncated to ``1``.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    return None


def normalize_updates(updates) -> np.ndarray:
    """Canonicalize a batch of edge updates to an ``(N, 3)`` int64 array.

    Each entry is ``(op, u, v)`` with ``op`` ``+1`` (insert) or ``-1``
    (delete).  Accepts triples whose op is a signed int or one of the
    string spellings ``+/-``, ``add/insert``, ``remove/delete/del``, or
    an already-normalized integer array.  Endpoints must be integers
    that fit int64 (:func:`exact_int`); anything else raises
    :class:`~repro.errors.GraphError`.  Order is preserved — within a
    batch the *last* operation on an edge wins.
    """
    if isinstance(updates, np.ndarray) and updates.dtype.kind in "iu":
        ops = np.asarray(updates, dtype=np.int64)
        if ops.size == 0:
            return ops.reshape(0, 3)
        if ops.ndim != 2 or ops.shape[1] != 3:
            raise GraphError("updates array must be (op, u, v) triples")
        if not np.isin(ops[:, 0], (-1, 1)).all():
            raise GraphError("update ops must be +1 (insert) or -1 (delete)")
        return ops
    try:
        entries = iter(updates)
    except TypeError:
        raise GraphError(
            f"updates must be a sequence of (op, u, v) triples, got "
            f"{updates!r}"
        ) from None
    rows = []
    for entry in entries:
        try:
            op, u, v = entry
        except (TypeError, ValueError):
            raise GraphError(
                f"update entries must be (op, u, v) triples, got {entry!r}"
            ) from None
        try:
            insert, delete = op in _INSERT_OPS, op in _DELETE_OPS
        except TypeError:  # an unhashable op is no known spelling
            insert = delete = False
        if not (insert or delete):
            raise GraphError(f"unknown update op {op!r}")
        ends = (exact_int(u), exact_int(v))
        if any(x is None or not _INT64.min <= x <= _INT64.max for x in ends):
            raise GraphError(
                f"update endpoints must be int64 integers, got {entry!r}"
            )
        rows.append((1 if insert else -1, *ends))
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), 3)


def change_rows(added: np.ndarray, removed: np.ndarray, n: int) -> np.ndarray:
    """The ``(±1, u, v)`` rows of resolved edge changes, ``u < v``.

    ``added`` and ``removed`` are the packed ``u*n + v`` keys
    :meth:`Graph.resolve_updates` reports for a graph of ``n`` vertices;
    insertions come first.  Each edge appears once, so the rows are a
    batch whose every entry changes the graph it was resolved against.
    """
    packed = np.concatenate([added, removed]).astype(np.int64)
    ops = np.repeat(
        np.array([1, -1], dtype=np.int64), [added.size, removed.size]
    )
    return np.stack([ops, packed // n, packed % n], axis=1)


class Graph:  # repro: pool-transport
    """Immutable undirected simple graph over vertices ``0..n-1``.

    Construct with :meth:`from_edges` (the general entry point) or directly
    from validated CSR arrays.  Self-loops and duplicate edges are removed
    during construction; isolated vertices are allowed (pass ``n``).
    """

    __slots__ = (
        "_indptr", "_indices", "_n", "_m", "_csr_cache", "_edge_keys",
        "_fingerprint",
    )

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self._indptr = indptr
        self._indices = indices
        self._n = indptr.shape[0] - 1
        self._m = indices.shape[0] // 2
        self._csr_cache: Optional[sparse.csr_matrix] = None
        self._edge_keys: Optional[np.ndarray] = None
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        n: Optional[int] = None,
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Parameters
        ----------
        edges:
            Edge endpoints; order and duplicates do not matter, self-loops
            are dropped.  An ``(m, 2)`` array is taken as it is.
        n:
            Number of vertices.  Defaults to ``1 + max endpoint``.
        """
        pairs = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges),
            dtype=np.int64,
        )
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphError("edges must be (u, v) pairs")
        if pairs.size and pairs.min() < 0:
            raise GraphError("vertex ids must be non-negative")
        inferred = int(pairs.max()) + 1 if pairs.size else 0
        if n is None:
            n = inferred
        elif n < inferred:
            raise GraphError(f"n={n} but edges mention vertex {inferred - 1}")

        # Drop self-loops, normalize to u < v, deduplicate.
        keep = pairs[:, 0] != pairs[:, 1]
        pairs = pairs[keep]
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        if lo.size:
            packed = lo * np.int64(n) + hi
            packed = sorted_unique(packed)
            lo = packed // n
            hi = packed % n
        # Symmetrize and build CSR via counting sort.
        heads = np.concatenate([lo, hi])
        tails = np.concatenate([hi, lo])
        order = np.lexsort((tails, heads))
        heads = heads[order]
        tails = tails[order]
        counts = np.bincount(heads, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, tails.astype(np.int64))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """Graph on ``n`` vertices with no edges."""
        if n < 0:
            raise GraphError("vertex count cannot be negative")
        return cls(np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._m

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array (length ``n + 1``)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR concatenated sorted adjacency lists (length ``2m``)."""
        return self._indices

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        self._check_vertex(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """All vertex degrees as an array."""
        return np.diff(self._indptr)

    @property
    def max_degree(self) -> int:
        """Maximum degree Δ (appears in the Theorem 3 bound)."""
        if self._n == 0:
            return 0
        return int(self.degrees().max())

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of ``v`` (a zero-copy CSR slice)."""
        self._check_vertex(v)
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Edge-membership query in O(log d(u)) via binary search (§3.3)."""
        self._check_vertex(u)
        self._check_vertex(v)
        row = self.neighbors(u)
        position = np.searchsorted(row, v)
        return bool(position < row.size and row[position] == v)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate the undirected edges as ``(u, v)`` with ``u < v``."""
        for u in range(self._n):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, int(v))

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(m, 2)`` array, ``u < v``, sorted.

        The vectorized counterpart of :meth:`edges` for bulk consumers
        (samplers, exporters): one pass over the CSR arrays instead of a
        Python loop per edge.
        """
        heads = np.repeat(np.arange(self._n, dtype=np.int64), self.degrees())
        forward = heads < self._indices
        return np.column_stack([heads[forward], self._indices[forward]])

    def fingerprint(self) -> str:
        """Content hash of the graph structure, as ``sha256:<hex>``.

        Hashes the vertex count and the canonical CSR arrays, so two
        graphs fingerprint equal iff they have identical vertex sets and
        edge sets (construction already normalizes edge order and
        duplicates).  This is the identity that persistent table
        artifacts are keyed on: a table is only valid against the exact
        graph it was built from.  Cached after the first call.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(b"repro-graph-v1")
            digest.update(np.int64(self._n).tobytes())
            digest.update(np.ascontiguousarray(self._indptr, dtype=np.int64))
            digest.update(np.ascontiguousarray(self._indices, dtype=np.int64))
            self._fingerprint = f"sha256:{digest.hexdigest()}"
        return self._fingerprint

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise GraphError(f"vertex {v} outside [0, {self._n})")

    # ------------------------------------------------------------------
    # Edge updates
    # ------------------------------------------------------------------

    def resolve_updates(
        self, updates
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve an update batch against this graph's edge set.

        Returns ``(added, removed, touched)``: the packed ``u*n + v``
        keys (``u < v``) of edges the batch actually inserts and
        deletes, plus the sorted array of endpoint vertices whose
        adjacency changes.  Within the batch the last operation on an
        edge wins; inserting a present edge or deleting an absent one
        is a no-op and contributes to none of the three sets.
        Self-loop updates are rejected (the graph is simple).
        """
        ops = normalize_updates(updates)
        n = self._n
        if ops.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        endpoints = ops[:, 1:]
        if endpoints.min() < 0 or endpoints.max() >= n:
            raise GraphError(f"update endpoints outside [0, {n})")
        if (ops[:, 1] == ops[:, 2]).any():
            raise GraphError("updates may not insert or delete self-loops")
        lo = np.minimum(ops[:, 1], ops[:, 2])
        hi = np.maximum(ops[:, 1], ops[:, 2])
        packed = lo * np.int64(n) + hi
        # np.unique on the reversed batch keeps each edge's *last* op.
        unique, last = np.unique(packed[::-1], return_index=True)
        desired = ops[::-1][last, 0] > 0
        present = self.has_edges(unique // n, unique % n)
        changed = desired != present
        added = unique[changed & desired]
        removed = unique[changed & ~desired]
        touched_edges = unique[changed]
        touched = np.unique(
            np.concatenate([touched_edges // n, touched_edges % n])
        )
        return added, removed, touched

    def apply_updates(self, updates) -> Tuple["Graph", np.ndarray]:
        """Apply a batch of edge insertions/deletions.

        Returns ``(new_graph, touched)``: the updated graph (same vertex
        count — deleting a vertex's last edge isolates it, it does not
        shrink the graph) and the sorted endpoint vertices whose
        adjacency actually changed.  See :meth:`resolve_updates` for the
        batch semantics; the resolved changes go to
        :meth:`with_changes`.
        """
        added, removed, touched = self.resolve_updates(updates)
        return self.with_changes(added, removed), touched

    def with_changes(self, added: np.ndarray, removed: np.ndarray) -> "Graph":
        """The graph with resolved edge changes applied.

        ``added`` and ``removed`` are packed ``u*n + v`` keys (``u <
        v``) as :meth:`resolve_updates` reports them: edges absent from
        and present in this graph respectively, each once.  Callers
        that already resolved a batch pass its changes here instead of
        resolving it again through :meth:`apply_updates`.  With no
        change this graph itself is returned.

        The new graph's fingerprint is recomputed eagerly before
        returning.  It is deliberately the same *content* hash a fresh
        load of the updated edge list would produce — never a hash
        chained over the parent fingerprint and the batch — so
        content-addressed artifact keys stay identical whether a graph
        arrived by updates or from disk.

        The CSR is spliced, not rebuilt: deletions and insertions land
        at their ``searchsorted`` positions in the globally sorted
        directed edge keys, so neighbor lists stay sorted without the
        ``from_edges`` lexsort over all ``2m`` entries — the arrays are
        byte-identical to what a fresh :meth:`from_edges` build would
        produce, at memcpy cost.  This is what keeps single-edge
        incremental maintenance from paying an ``O(m log m)`` toll
        before the table work even starts.
        """
        if added.size == 0 and removed.size == 0:
            return self
        n = np.int64(self._n)
        keys = self._sorted_edge_keys()
        indices = self._indices

        def _directed(packed: np.ndarray) -> np.ndarray:
            u, v = packed // n, packed % n
            return np.sort(np.concatenate([u * n + v, v * n + u]))

        if removed.size:
            gone = np.searchsorted(keys, _directed(removed))
            keys = np.delete(keys, gone)
            indices = np.delete(indices, gone)
        if added.size:
            fresh = _directed(added)
            at = np.searchsorted(keys, fresh)
            keys = np.insert(keys, at, fresh)
            indices = np.insert(indices, at, fresh % n)
        degrees = np.diff(self._indptr)
        for packed, sign in ((added, 1), (removed, -1)):
            if packed.size:
                ends = np.concatenate([packed // n, packed % n])
                degrees = degrees + sign * np.bincount(
                    ends, minlength=self._n
                )
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        updated = Graph(indptr, np.ascontiguousarray(indices))
        updated._edge_keys = keys
        updated.fingerprint()
        return updated

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------

    def adjacency_csr(self) -> sparse.csr_matrix:
        """The adjacency matrix as a SciPy CSR matrix of float64.

        Used by the vectorized build-up: the neighbor sums of Equation (1)
        are sparse matrix–vector products.  Cached after the first call.
        """
        if self._csr_cache is None:
            data = np.ones(self._indices.shape[0], dtype=np.float64)
            self._csr_cache = sparse.csr_matrix(
                (data, self._indices, self._indptr), shape=(self._n, self._n)
            )
        return self._csr_cache

    def _sorted_edge_keys(self) -> np.ndarray:
        """Directed edges packed as ``u * n + v``, globally sorted.

        The CSR layout (heads ascending, neighbor lists sorted) makes the
        packed array sorted for free, so membership tests for any batch of
        pairs are one ``np.searchsorted`` call.  Built lazily, cached.
        """
        if self._edge_keys is None:
            heads = np.repeat(
                np.arange(self._n, dtype=np.int64), self.degrees()
            )
            self._edge_keys = heads * np.int64(self._n) + self._indices
        return self._edge_keys

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Batched edge-membership: one boolean per ``(us[i], vs[i])`` pair.

        Accepts index arrays of any (matching) shape and answers every
        query with a single ``np.searchsorted`` against the packed sorted
        edge keys — the set-at-a-time counterpart of :meth:`has_edge` that
        the batched graphlet classifier runs on ``n_samples × k(k-1)/2``
        candidate edges at once.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            raise GraphError(f"endpoint shapes differ: {us.shape} vs {vs.shape}")
        if us.size and (
            min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= self._n
        ):
            raise GraphError(f"vertices outside [0, {self._n})")
        if self._indices.size == 0:
            return np.zeros(us.shape, dtype=bool)
        keys = us * np.int64(self._n) + vs
        edge_keys = self._sorted_edge_keys()
        positions = np.searchsorted(edge_keys, keys)
        positions[positions >= edge_keys.size] = edge_keys.size - 1
        return edge_keys[positions] == keys

    def induced_adjacency(self, vertices: Sequence[int]) -> np.ndarray:
        """Dense boolean adjacency of the induced subgraph on ``vertices``.

        The sampling phase calls this to turn a sampled treelet copy into
        the induced graphlet.  All ``k(k-1)/2`` pair queries run as one
        :meth:`has_edges` call (cost O(k² log m), no Python loop over
        pairs).
        """
        verts = np.asarray(vertices, dtype=np.int64)
        k = verts.shape[0]
        out = np.zeros((k, k), dtype=bool)
        if k < 2:
            if k and (verts.min() < 0 or verts.max() >= self._n):
                raise GraphError(f"vertices outside [0, {self._n})")
            return out
        rows, cols = np.triu_indices(k, 1)
        # has_edges validates the vertex range for the k >= 2 path.
        present = self.has_edges(verts[rows], verts[cols])
        out[rows[present], cols[present]] = True
        out[cols[present], rows[present]] = True
        return out

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph, relabeled to ``0..len(vertices)-1``."""
        vertex_list = list(vertices)
        position = {v: i for i, v in enumerate(vertex_list)}
        if len(position) != len(vertex_list):
            raise GraphError("subgraph vertices must be distinct")
        edges = []
        for i, v in enumerate(vertex_list):
            for u in self.neighbors(v):
                j = position.get(int(u))
                if j is not None and i < j:
                    edges.append((i, j))
        return Graph.from_edges(edges, n=len(vertex_list))

    def connected_components(self) -> "list[list[int]]":
        """Connected components as vertex lists (BFS, iterative)."""
        seen = np.zeros(self._n, dtype=bool)
        components = []
        for start in range(self._n):
            if seen[start]:
                continue
            queue = [start]
            seen[start] = True
            component = []
            while queue:
                v = queue.pop()
                component.append(v)
                for u in self.neighbors(v):
                    u = int(u)
                    if not seen[u]:
                        seen[u] = True
                        queue.append(u)
            components.append(sorted(component))
        return components

    def is_connected(self) -> bool:
        """Whether the graph is connected (vacuously true when empty)."""
        if self._n <= 1:
            return True
        return len(self.connected_components()) == 1

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __getstate__(self):
        """Pickle only the CSR arrays — derived caches rebuild lazily.

        Keeps cross-process shipping (the ensemble engine's workers) at
        the graph's own size instead of up to ~3x with the cached sparse
        matrix and edge keys.
        """
        return (self._indptr, self._indices)

    def __setstate__(self, state) -> None:
        indptr, indices = state
        self.__init__(indptr, indices)

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._m, self._indices.tobytes()))
