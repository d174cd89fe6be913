"""Motivo's compact treelet count table (§3.1, "Motivo's count table").

Layouts.  The paper stores, for each vertex ``v`` and treelet size ``h``,
a *record*: an array of ``(packed colored-treelet key, cumulative count
η)`` pairs sorted by key, holding only the nonzero pairs — that
succinctness is what lets motivo scale past CC.  This module offers two
interchangeable in-memory layouts behind one :class:`LayerView`
protocol:

:class:`DenseLayer` (``layout="dense"``)
    The build-up phase's working format: one sorted key list (shared by
    all vertices — a key absent at a vertex simply has count 0) and a
    dense ``num_keys × n`` float64 count matrix.  A per-vertex record is
    a column.  This columnar layout is what the one-SpMM-per-layer
    build-up kernel and the blocked contractions multiply against.

:class:`SuccinctLayer` (``layout="succinct"``)
    The paper's records, CSR-style over vertices: a per-vertex
    ``indptr``, the nonzero ``key_row`` indices (ascending within each
    record) and the ``values`` — stored at the narrowest integer dtype
    that holds them exactly — plus lazily built per-vertex *cumulative*
    η arrays for key sampling.  Resident memory is O(stored pairs), not
    O(num_keys · n).

Both layouts answer the paper's operations with bit-identical results:
counts are integer-valued floats (exact in float64 below 2^53), widening
a stored integer back to float64 is exact, and every running sum is
taken over the same values in the same key order — so ``occ``,
``record``, key sampling and the whole sampling phase cannot tell the
layouts apart (the layout-equivalence tests assert exact equality).

``occ(v)``            per-vertex total of the size-k layer (precomputed);
``occ(T_C, v)``       binary search on the sorted keys, then one lookup;
``iter(T, v)``        the contiguous key range of treelet ``T``
                      (two bisections on the packed treelet ids);
``sample(v)``         draw R ≤ η_v u.a.r., binary-search the cumulative
                      record — O(k) as in the paper.

Tables are built dense (the kernels need the matrix form) and *sealed*
to the succinct layout — :meth:`CountTable.seal` — as layers retire from
the build frontier, releasing the dense matrices.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TableError
from repro.treelets.encoding import getsize

__all__ = [
    "LayerView",
    "DenseLayer",
    "SuccinctLayer",
    "Layer",
    "CountTable",
    "LAYOUTS",
]

Key = Tuple[int, int]  # (treelet encoding, color mask)

#: Paper's storage cost per stored pair: 48-bit packed key + 128-bit count.
PAPER_BITS_PER_PAIR = 176
#: CC's storage cost per pair: 64-bit pointer + 64-bit count.
CC_BITS_PER_PAIR = 128

#: Supported in-memory table layouts.
LAYOUTS = ("dense", "succinct")

#: Threshold below which float64 holds every integer exactly.
_EXACT_FLOAT = float(1 << 53)


def _uint_dtype(limit: int) -> type:
    """Narrowest unsigned dtype holding values up to ``limit``."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if limit <= int(np.iinfo(dtype).max):
            return dtype
    return np.uint64


def _pack_counts(values: np.ndarray) -> np.ndarray:
    """Store counts at the narrowest exact dtype.

    Integer-valued inputs below 2^53 (everything the build-up produces)
    downcast to the smallest unsigned type that holds the maximum;
    anything else keeps its exact float64 form.  Widening back is exact
    either way, which is what keeps the layouts bit-identical.
    """
    v = np.asarray(values)
    if v.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if v.dtype.kind in "ui":
        ints = v.astype(np.uint64)
        if float(ints.max()) >= _EXACT_FLOAT:
            raise TableError("succinct layer counts exceed 2^53")
    else:
        as_float = np.asarray(v, dtype=np.float64)
        ints = as_float.astype(np.uint64)
        if not np.array_equal(ints.astype(np.float64), as_float):
            return np.ascontiguousarray(as_float)
        if float(ints.max()) >= _EXACT_FLOAT:
            return np.ascontiguousarray(as_float)
    return ints.astype(_uint_dtype(int(ints.max())))


def _index_keys(keys: Sequence[Key]) -> Dict[Key, int]:
    """Key → row lookup, validating uniqueness."""
    key_rows = {key: row for row, key in enumerate(keys)}
    if len(key_rows) != len(keys):
        raise TableError("duplicate keys in layer")
    return key_rows


def csr_offsets(indices: np.ndarray, buckets: int) -> np.ndarray:
    """CSR offset array from bucket indices (one counting pass).

    ``offsets[b] .. offsets[b+1]`` bound bucket ``b``'s entries once the
    data is grouped by bucket — the indptr idiom shared by sealing,
    the key-major index, and the artifact codec's CSR decode.
    """
    offsets = np.zeros(buckets + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=buckets), out=offsets[1:])
    return offsets


class LayerView(ABC):
    """Protocol every table layer implements — see the module docstring.

    Shared state: ``size`` (treelet size h), ``keys`` (sorted key list),
    ``key_rows`` (key → row index).  Rows index the *shared key
    universe*; where the counts behind those rows live is the layout's
    business.  Everything downstream of the build-up — the urn's descent,
    key sampling, the estimators, artifact export — reads through these
    methods only.
    """

    __slots__ = ()

    #: Layout tag (``"dense"`` or ``"succinct"``).
    layout: str = "?"

    size: int
    keys: List[Key]
    key_rows: Dict[Key, int]

    @property
    def num_keys(self) -> int:
        """Number of distinct colored treelets stored in this layer."""
        return len(self.keys)

    @property
    @abstractmethod
    def num_vertices(self) -> int:
        """Number of vertices the layer covers."""

    def row_of(self, treelet: int, mask: int) -> Optional[int]:
        """Row index of a key, or None when the key has no stored counts."""
        return self.key_rows.get((treelet, mask))

    def counts_for(self, treelet: int, mask: int) -> Optional[np.ndarray]:
        """Count vector over all vertices for one colored treelet."""
        row = self.row_of(treelet, mask)
        return None if row is None else self.row_values(row)

    def _treelet_ids(self) -> np.ndarray:
        """Packed treelet ids per key row (sorted; built lazily)."""
        if self._tarr is None:
            self._tarr = np.asarray(
                [treelet for treelet, _mask in self.keys], dtype=np.int64
            )
        return self._tarr

    def treelet_rows(self, treelet: int) -> range:
        """Rows belonging to one (uncolored) treelet.

        Keys are sorted by ``(treelet, mask)``, so a treelet's rows are
        one contiguous range — found with two bisections on the packed
        treelet-id array, never a linear scan.
        """
        ids = self._treelet_ids()
        lo = int(np.searchsorted(ids, treelet, side="left"))
        hi = int(np.searchsorted(ids, treelet, side="right"))
        return range(lo, hi)

    # -- layout primitives ------------------------------------------------

    @abstractmethod
    def row_values(self, row: int) -> np.ndarray:
        """Dense per-vertex count vector of one key row (float64, (n,))."""

    @abstractmethod
    def values_at(self, rows: np.ndarray, verts: np.ndarray) -> np.ndarray:
        """Broadcast gather: counts at ``(rows[i], verts[j])`` — (R, V)."""

    @abstractmethod
    def pairs_at(self, rows: np.ndarray, verts: np.ndarray) -> np.ndarray:
        """Paired gather: counts at ``(rows[i], verts[i])``, elementwise.

        ``rows`` and ``verts`` have the same (arbitrary) shape; the
        result matches it, float64.  The fused descent kernel's split
        weights are built from exactly these point lookups, so both
        layouts must answer them without materializing dense rows.
        """

    @abstractmethod
    def value_at(self, row: int, v: int) -> float:
        """One count: ``c(keys[row], v)``."""

    @abstractmethod
    def max_value(self) -> float:
        """The largest stored count (0.0 on an empty layer).

        Bounds the gathered-cumulative running sums, which is how the
        fused kernel picks the narrowest exact integer dtype for them.
        """

    @abstractmethod
    def totals(self) -> np.ndarray:
        """Per-vertex total count over every key of the layer (η_v)."""

    @abstractmethod
    def nonzero_pairs(self) -> int:
        """Stored (key, vertex) pairs with a positive count.

        This is the quantity the paper's space accounting multiplies by
        176 bits (motivo) or 128 bits (CC).
        """

    @abstractmethod
    def record_arrays(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """One vertex's record: ``(key rows, counts)`` — nonzero only."""

    @abstractmethod
    def cumulative_record_arrays(
        self, v: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One vertex's record with running η sums — nonzero only."""

    @abstractmethod
    def sample_row_at(self, v: int, u: float) -> int:
        """Invert the cumulative record at ``r = u · η_v`` — one key row."""

    @abstractmethod
    def sample_rows_batch(
        self, roots: np.ndarray, us: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`sample_row_at` over many roots at once."""

    @abstractmethod
    def key_major_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero pairs in key-major order: ``(rows, verts, values)``.

        Rows ascend, vertices ascend within a row — the artifact codec's
        native stream order, so both layouts serialize to byte-identical
        succinct blobs.
        """

    @abstractmethod
    def dense_counts(self) -> np.ndarray:
        """The full ``num_keys × n`` float64 matrix (materialized if
        needed — artifact export and re-densification only)."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Bytes resident for this layer: primary arrays plus whatever
        lazy caches (cumulative records, lookup indexes) have been built.
        """


class DenseLayer(LayerView):
    """All counts of one size as a sorted-keys × vertices float64 matrix."""

    layout = "dense"

    __slots__ = (
        "size", "keys", "key_rows", "counts", "_cumulative", "_totals",
        "_tarr", "_row_totals", "_max",
    )

    def __init__(self, size: int, keys: Sequence[Key], counts: np.ndarray):
        expected = len(keys)
        if counts.ndim != 2 or counts.shape[0] != expected:
            raise TableError(
                f"counts matrix must be ({expected} x n), got {counts.shape}"
            )
        order = sorted(range(expected), key=lambda i: keys[i])
        self.size = size
        self.keys: List[Key] = [keys[i] for i in order]
        if expected and order != list(range(expected)):
            self.counts = counts[order]
        else:
            # Already key-sorted: keep the original array so memory-mapped
            # inputs (the §3.3 mmap read path) stay memory-mapped.
            self.counts = counts
        self.key_rows = _index_keys(self.keys)
        self._cumulative: Optional[np.ndarray] = None
        self._totals: Optional[np.ndarray] = None
        self._tarr: Optional[np.ndarray] = None
        self._row_totals: Optional[np.ndarray] = None
        self._max: Optional[float] = None

    @property
    def num_vertices(self) -> int:
        """Number of vertex columns."""
        return self.counts.shape[1]

    def row_values(self, row: int) -> np.ndarray:
        return self.counts[row]

    def values_at(self, rows: np.ndarray, verts: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        verts = np.asarray(verts, dtype=np.int64)
        return self.counts[rows[:, None], verts[None, :]]

    def pairs_at(self, rows: np.ndarray, verts: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        verts = np.asarray(verts, dtype=np.int64)
        return np.asarray(self.counts[rows, verts], dtype=np.float64)

    def value_at(self, row: int, v: int) -> float:
        return float(self.counts[row, v])

    def max_value(self) -> float:
        if self._max is None:
            self._max = float(self.counts.max()) if self.counts.size else 0.0
        return self._max

    def totals(self) -> np.ndarray:
        if self._totals is None:
            self._totals = self.counts.sum(axis=0)
        return self._totals

    def row_totals(self) -> np.ndarray:
        """Per-key totals over all vertices (exact: counts are integer
        floats, so sums below 2^53 carry no rounding);
        :meth:`patch_columns` keeps them current."""
        if self._row_totals is None:
            self._row_totals = self.counts.sum(axis=1)
        return self._row_totals

    def patch_columns(self, cols: np.ndarray, block: np.ndarray) -> None:
        """Overwrite the columns ``cols`` with ``block``, in place.

        The incremental maintainer's fast path: when an update batch
        leaves the key set unchanged, the support columns' new counts
        are written into the existing matrix and every derived cache is
        *patched* rather than dropped — column-local work, where a
        rebuild of ``cumulative()`` alone would rescan the whole table.
        All patched caches stay exactly what a fresh recompute would
        produce: counts are integer-valued floats, sums and cumsums of
        them are exact, and ``cumulative()`` is columnwise-independent.
        The largest count stays known unless the patch lowered it;
        then :meth:`max_value` finds it again when next asked.
        """
        if not self.counts.flags.writeable:
            raise TableError("patch_columns needs a writable counts matrix")
        if self._row_totals is not None or self._max is not None:
            old = self.counts[:, cols]
            if self._row_totals is not None:
                self._row_totals += block.sum(axis=1) - old.sum(axis=1)
            if self._max is not None and old.size:
                raised = float(block.max())
                if raised >= self._max:
                    self._max = raised
                elif old.max() >= self._max:
                    self._max = None
        self.counts[:, cols] = block
        if self._totals is not None:
            self._totals[cols] = block.sum(axis=0)
        if self._cumulative is not None:
            self._cumulative[:, cols] = np.cumsum(block, axis=0)

    def patched(self, cols: np.ndarray, block: np.ndarray) -> "DenseLayer":
        """A copy of the layer with the columns ``cols`` set to ``block``.

        The copying counterpart of :meth:`patch_columns`: one contiguous
        copy of the matrix (writable even when this one is memory-mapped),
        then :meth:`patch_columns` on the copy, so the row and vertex
        totals and the largest count known so far carry over patched
        instead of being recomputed by a scan of the successor.  The
        incremental maintainer copies only where no layer is free to
        write into: a served update writes a superseded version's layer
        (a spare) instead, once no request reads it (see
        :func:`repro.colorcoding.incremental.apply_edge_updates`).
        """
        successor = DenseLayer(
            self.size, self.keys, np.array(self.counts, dtype=np.float64)
        )
        if self._row_totals is not None:
            successor._row_totals = self._row_totals.copy()
        if self._totals is not None:
            successor._totals = self._totals.copy()
        successor._max = self._max
        successor.patch_columns(cols, block)
        return successor

    def cumulative(self) -> np.ndarray:
        """Per-vertex running sums over *all* keys (zeros included).

        Row ``r`` of the result at column ``v`` equals
        ``sum(counts[0..r, v])``; the last row is ``totals()``.  This is
        the dense key-sampling structure; the succinct layout stores the
        same running sums per record instead.
        """
        if self._cumulative is None:
            self._cumulative = np.cumsum(self.counts, axis=0)
        return self._cumulative

    def nonzero_pairs(self) -> int:
        return int(np.count_nonzero(self.counts))

    def record_arrays(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        column = self.counts[:, v]
        rows = np.flatnonzero(column)
        return rows, np.asarray(column[rows], dtype=np.float64)

    def cumulative_record_arrays(
        self, v: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        rows, values = self.record_arrays(v)
        return rows, np.cumsum(values)

    def sample_row_at(self, v: int, u: float) -> int:
        running = self.cumulative()[:, v]
        total = running[-1] if running.size else 0.0
        if total <= 0:
            raise TableError(f"vertex {v} roots no colorful k-treelets")
        r = u * total
        row = int(np.searchsorted(running, r, side="right"))
        return min(row, running.size - 1)

    def sample_rows_batch(
        self, roots: np.ndarray, us: np.ndarray
    ) -> np.ndarray:
        # The scalar rule ``searchsorted(running, u*total, side="right")``
        # equals the count of running values <= r, which vectorizes as a
        # column-wise comparison; count columns hold integer-valued
        # floats, so the comparison is exact and the paths agree.
        columns = self.cumulative()[:, roots]
        totals = columns[-1]
        if np.any(totals <= 0):
            bad = int(np.asarray(roots)[np.argmax(totals <= 0)])
            raise TableError(f"vertex {bad} roots no colorful k-treelets")
        targets = us * totals
        rows = (columns <= targets[None, :]).sum(axis=0)
        return np.minimum(rows, self.num_keys - 1)

    def key_major_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows, verts = np.nonzero(self.counts)
        return rows, verts, np.asarray(
            self.counts[rows, verts], dtype=np.float64
        )

    def dense_counts(self) -> np.ndarray:
        return self.counts

    def memory_bytes(self) -> int:
        total = self.counts.nbytes
        for cache in (
            self._cumulative, self._totals, self._tarr, self._row_totals
        ):
            if cache is not None:
                total += cache.nbytes
        return total


class SuccinctLayer(LayerView):
    """The paper's per-vertex records: CSR over vertices.

    ``indptr`` (int64, n+1) bounds vertex ``v``'s record at
    ``[indptr[v], indptr[v+1])``; ``key_row`` holds the nonzero key rows
    of each record in ascending order, ``values`` the matching counts at
    the narrowest exact dtype (see :func:`_pack_counts`).  Lazy caches:
    the per-record cumulative η array (key sampling), the packed
    ``vertex·num_keys + key_row`` index (batched point lookups), and the
    per-vertex totals.  All of them are included in
    :meth:`memory_bytes`, so the table's accounting reports what is
    actually resident.
    """

    layout = "succinct"

    __slots__ = (
        "size", "keys", "key_rows", "indptr", "key_row", "values",
        "_cum", "_aug", "_totals", "_tarr", "_kmaj", "_max",
    )

    def __init__(
        self,
        size: int,
        keys: Sequence[Key],
        indptr: np.ndarray,
        key_row: np.ndarray,
        values: np.ndarray,
    ):
        self.size = size
        self.keys = list(keys)
        if any(
            self.keys[i] >= self.keys[i + 1]
            for i in range(len(self.keys) - 1)
        ):
            raise TableError("succinct layer keys must be sorted and unique")
        self.key_rows = _index_keys(self.keys)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        key_row = np.asarray(key_row)
        values = np.asarray(values)
        if (
            indptr.ndim != 1
            or indptr.size < 1
            or int(indptr[0]) != 0
            or key_row.ndim != 1
            or values.shape != key_row.shape
            or int(indptr[-1]) != key_row.size
            or not np.all(indptr[1:] >= indptr[:-1])
        ):
            raise TableError("succinct layer CSR arrays do not line up")
        if key_row.size and int(key_row.max()) >= len(self.keys):
            raise TableError("succinct layer references rows out of range")
        if key_row.size:
            # Key rows must strictly ascend within each vertex record —
            # the invariant every binary-search lookup depends on.
            is_start = np.zeros(key_row.size, dtype=bool)
            starts = indptr[:-1]
            is_start[starts[starts < key_row.size]] = True
            if not np.all((key_row[1:] > key_row[:-1]) | is_start[1:]):
                raise TableError(
                    "succinct layer records must have strictly ascending "
                    "key rows"
                )
        self.indptr = indptr
        row_limit = max(len(self.keys) - 1, 0)
        self.key_row = key_row.astype(_uint_dtype(row_limit))
        self.values = _pack_counts(values)
        self._cum: Optional[np.ndarray] = None
        self._aug: Optional[np.ndarray] = None
        self._totals: Optional[np.ndarray] = None
        self._tarr: Optional[np.ndarray] = None
        self._kmaj: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._max: Optional[float] = None

    @classmethod
    def from_dense(cls, layer: DenseLayer) -> "SuccinctLayer":
        """Seal a dense layer: extract the nonzero pairs, vertex-major."""
        counts = np.asarray(layer.counts)
        # nonzero over the transpose iterates vertex-major, so key rows
        # ascend within each vertex record — the paper's sort order.
        verts, rows = np.nonzero(counts.T)
        values = counts[rows, verts]
        indptr = csr_offsets(verts, counts.shape[1])
        return cls(layer.size, layer.keys, indptr, rows, values)

    def spliced(
        self,
        keys: Sequence[Key],
        remap: Optional[np.ndarray],
        cols: np.ndarray,
        block: np.ndarray,
    ) -> "SuccinctLayer":
        """The layer with the records of ``cols`` replaced by ``block``.

        ``keys`` is the successor's sorted key list, ``block`` its
        ``len(keys) × len(cols)`` counts at the ascending columns
        ``cols``, and ``remap`` maps this layer's key rows onto
        ``keys`` (``None`` when the key list is unchanged).  Every other
        record is carried over with its key rows remapped, so ``remap``
        must be monotone over the rows those records hold.

        The successor's ``indptr`` is the running sum of its record
        lengths — the old ones off ``cols``, the block's nonzeros per
        column on them — and the carried records move through two masks,
        off-``cols`` repeated over the old and the new lengths: no sort
        and no search over the stored pairs.  The arrays equal what
        :meth:`from_dense` seals from the successor's full matrix.
        """
        n = self.num_vertices
        # The records of ``cols`` in vertex order, key rows ascending in
        # each: the nonzeros of the block's transpose in memory order.
        records = np.ascontiguousarray(block.T)
        stored = records != 0.0
        flat = np.flatnonzero(stored)
        fresh = records.ravel()[flat]
        top = float(fresh.max()) if fresh.size else 0.0
        # A level count is a sum of nonnegative integer products divided
        # by β ≤ size - 1 after accumulation, so below this bound every
        # step was exact, each fresh count is an integer, and one max
        # picks the dtype :func:`_pack_counts` would.
        if top * max(self.size - 1, 1) < _EXACT_FLOAT:
            fresh = fresh.astype(_uint_dtype(int(top)))
        else:
            fresh = _pack_counts(fresh)
        old_lengths = np.diff(self.indptr)
        lengths = old_lengths.copy()
        lengths[cols] = np.count_nonzero(stored, axis=1)
        # A flat index minus its record's start is the key row.
        fresh_rows = flat - np.repeat(
            np.arange(cols.size, dtype=np.int64) * records.shape[1],
            lengths[cols],
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        carried = np.ones(n, dtype=bool)
        carried[cols] = False
        carried_from = np.repeat(carried, old_lengths)
        carried_to = np.repeat(carried, lengths)
        key_row = np.empty(
            int(indptr[-1]), dtype=_uint_dtype(max(len(keys) - 1, 0))
        )
        old_rows = self.key_row[carried_from]
        key_row[carried_to] = old_rows if remap is None else remap[old_rows]
        key_row[~carried_to] = fresh_rows
        values = np.empty(
            key_row.size,
            dtype=np.promote_types(self.values.dtype, fresh.dtype),
        )
        values[carried_to] = self.values[carried_from]
        values[~carried_to] = fresh
        return SuccinctLayer._assembled(
            self.size, keys, indptr, key_row, values
        )

    @classmethod
    def _assembled(
        cls,
        size: int,
        keys: Sequence[Key],
        indptr: np.ndarray,
        key_row: np.ndarray,
        values: np.ndarray,
    ) -> "SuccinctLayer":
        """A layer over arrays that are valid by construction.

        :meth:`spliced` builds a sorted ``keys`` list, an int64
        ``indptr``, strictly ascending records and ``key_row`` at its
        narrowest dtype, so none of the constructor's checks or copies
        apply.  Only ``values`` still narrows to the dtype a fresh seal
        picks: unsigned counts by one ``max``, anything else through
        :func:`_pack_counts`.  Arrays read from disk go through the
        validating constructor instead.
        """
        layer = cls.__new__(cls)
        layer.size = size
        layer.keys = list(keys)
        layer.key_rows = {key: row for row, key in enumerate(layer.keys)}
        layer.indptr = indptr
        layer.key_row = key_row
        layer._max = None
        if values.dtype.kind == "u" and values.size:
            top = int(values.max())
            values = values.astype(_uint_dtype(top), copy=False)
            layer._max = float(top)
        else:
            values = _pack_counts(values)
        layer.values = values
        layer._cum = None
        layer._aug = None
        layer._totals = None
        layer._tarr = None
        layer._kmaj = None
        return layer

    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    # -- internals --------------------------------------------------------

    def _values_f64(self, idx=None) -> np.ndarray:
        selected = self.values if idx is None else self.values[idx]
        if selected.dtype == np.float64:
            return selected
        return selected.astype(np.float64)

    def _vertex_of_pair(self) -> np.ndarray:
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64),
            np.diff(self.indptr),
        )

    def _record_cum(self) -> np.ndarray:
        """Per-record running η sums, one entry per stored pair.

        Computed as one global cumsum minus each record's base offset.
        Integer-typed counts accumulate in uint64, so the global running
        sum never rounds no matter how large the layer-wide total gets;
        each record's partial sums widen to float64 at the end, which is
        exact whenever the per-vertex totals are below 2^53 — the same
        condition the dense cumulative needs.
        """
        if self._cum is None:
            lengths = np.diff(self.indptr)
            if self.values.dtype.kind == "u":
                running = np.cumsum(self.values, dtype=np.uint64)
                base = np.concatenate(
                    (np.zeros(1, dtype=np.uint64), running)
                )[self.indptr[:-1]]
                self._cum = (
                    running - np.repeat(base, lengths)
                ).astype(np.float64)
            else:
                values = self._values_f64()
                running = np.cumsum(values)
                base = np.concatenate(([0.0], running))[self.indptr[:-1]]
                self._cum = running - np.repeat(base, lengths)
        return self._cum

    def _key_major(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lazy key-major view: ``(pair permutation, per-key offsets)``.

        ``permutation[offsets[r]:offsets[r+1]]`` indexes row ``r``'s
        stored pairs in vertex order — the transpose index that makes
        per-key reads O(nnz(row)) instead of a full-layer scan.
        """
        if self._kmaj is None:
            order = np.argsort(self.key_row, kind="stable")
            offsets = csr_offsets(
                self.key_row.astype(np.int64), self.num_keys
            )
            self._kmaj = (order, offsets)
        return self._kmaj

    def _augmented(self) -> np.ndarray:
        """Globally sorted ``vertex · num_keys + key_row`` pair index."""
        if self._aug is None:
            self._aug = (
                self._vertex_of_pair() * np.int64(self.num_keys)
                + self.key_row.astype(np.int64)
            )
        return self._aug

    # -- protocol ---------------------------------------------------------

    def row_values(self, row: int) -> np.ndarray:
        out = np.zeros(self.num_vertices, dtype=np.float64)
        order, offsets = self._key_major()
        idx = order[offsets[row]:offsets[row + 1]]
        if idx.size:
            verts = np.searchsorted(self.indptr, idx, side="right") - 1
            out[verts] = self._values_f64(idx)
        return out

    def values_at(self, rows: np.ndarray, verts: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        verts = np.asarray(verts, dtype=np.int64)
        queries = verts[None, :] * np.int64(self.num_keys) + rows[:, None]
        flat = queries.ravel()
        out = np.zeros(flat.size, dtype=np.float64)
        augmented = self._augmented()
        if augmented.size:
            pos = np.searchsorted(augmented, flat)
            clipped = np.minimum(pos, augmented.size - 1)
            found = (pos < augmented.size) & (augmented[clipped] == flat)
            out[found] = self._values_f64(clipped[found])
        return out.reshape(queries.shape)

    def pairs_at(self, rows: np.ndarray, verts: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        verts = np.asarray(verts, dtype=np.int64)
        queries = verts * np.int64(self.num_keys) + rows
        flat = queries.ravel()
        out = np.zeros(flat.size, dtype=np.float64)
        augmented = self._augmented()
        if augmented.size:
            pos = np.searchsorted(augmented, flat)
            clipped = np.minimum(pos, augmented.size - 1)
            found = (pos < augmented.size) & (augmented[clipped] == flat)
            out[found] = self._values_f64(clipped[found])
        return out.reshape(queries.shape)

    def value_at(self, row: int, v: int) -> float:
        start, end = int(self.indptr[v]), int(self.indptr[v + 1])
        i = start + int(np.searchsorted(self.key_row[start:end], row))
        if i < end and int(self.key_row[i]) == row:
            return float(self.values[i])
        return 0.0

    def max_value(self) -> float:
        if self._max is None:
            self._max = (
                float(self.values.max()) if self.values.size else 0.0
            )
        return self._max

    def totals(self) -> np.ndarray:
        if self._totals is None:
            self._totals = np.bincount(
                self._vertex_of_pair(),
                weights=self._values_f64(),
                minlength=self.num_vertices,
            )
        return self._totals

    def nonzero_pairs(self) -> int:
        return int(np.count_nonzero(self.values))

    def record_arrays(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        start, end = int(self.indptr[v]), int(self.indptr[v + 1])
        rows = self.key_row[start:end].astype(np.int64)
        return rows, self._values_f64(slice(start, end))

    def cumulative_record_arrays(
        self, v: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        start, end = int(self.indptr[v]), int(self.indptr[v + 1])
        rows = self.key_row[start:end].astype(np.int64)
        return rows, self._record_cum()[start:end]

    def sample_row_at(self, v: int, u: float) -> int:
        start, end = int(self.indptr[v]), int(self.indptr[v + 1])
        running = self._record_cum()[start:end]
        total = running[-1] if end > start else 0.0
        if total <= 0:
            raise TableError(f"vertex {v} roots no colorful k-treelets")
        r = u * total
        pos = int(np.searchsorted(running, r, side="right"))
        pos = min(pos, end - start - 1)
        return int(self.key_row[start + pos])

    def sample_rows_batch(
        self, roots: np.ndarray, us: np.ndarray
    ) -> np.ndarray:
        # The ragged counterpart of the dense column-wise comparison:
        # flatten every root's record slice and count, per segment, the
        # running sums <= u · η_v — same integers, same comparisons, so
        # the two layouts pick the same key for the same uniform.
        roots = np.asarray(roots, dtype=np.int64)
        starts = self.indptr[roots]
        ends = self.indptr[roots + 1]
        lengths = ends - starts
        totals = self.totals()[roots]
        if np.any(totals <= 0):
            bad = int(roots[np.argmax(totals <= 0)])
            raise TableError(f"vertex {bad} roots no colorful k-treelets")
        targets = us * totals
        offsets = np.zeros(roots.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        total_len = int(lengths.sum())
        flat = (
            np.arange(total_len, dtype=np.int64)
            - np.repeat(offsets, lengths)
            + np.repeat(starts, lengths)
        )
        below = (
            self._record_cum()[flat] <= np.repeat(targets, lengths)
        ).astype(np.int64)
        position = np.add.reduceat(below, offsets)
        position = np.minimum(position, lengths - 1)
        return self.key_row[starts + position].astype(np.int64)

    def key_major_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        order, _offsets = self._key_major()
        return (
            self.key_row[order].astype(np.int64),
            self._vertex_of_pair()[order],
            self._values_f64(order),
        )

    def dense_counts(self) -> np.ndarray:
        out = np.zeros((self.num_keys, self.num_vertices), dtype=np.float64)
        if self.values.size:
            out[
                self.key_row.astype(np.int64), self._vertex_of_pair()
            ] = self._values_f64()
        return out

    def memory_bytes(self) -> int:
        total = self.indptr.nbytes + self.key_row.nbytes + self.values.nbytes
        for cache in (self._cum, self._aug, self._totals, self._tarr):
            if cache is not None:
                total += cache.nbytes
        if self._kmaj is not None:
            total += self._kmaj[0].nbytes + self._kmaj[1].nbytes
        return total


#: Backwards-compatible name: ``Layer`` has always been the dense layer.
Layer = DenseLayer


class CountTable:
    """The complete treelet count table for sizes ``1..k``.

    Built layer by layer by the build-up phase
    (:func:`repro.colorcoding.buildup.build_table`); afterwards it is the
    read-only "urn" storage the sampling phase draws from.  Layers are
    :class:`LayerView` instances; :meth:`seal` converts dense build
    output to the succinct layout in place.
    """

    def __init__(self, k: int, num_vertices: int, zero_rooted: bool):
        if k < 2:
            raise TableError("count tables need k >= 2")
        self.k = k
        self.num_vertices = num_vertices
        #: Whether the size-k layer counts only color-0 rootings (§3.2).
        self.zero_rooted = zero_rooted
        self._layers: Dict[int, LayerView] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_layer(self, size: int, entries: Dict[Key, np.ndarray]) -> DenseLayer:
        """Install the counts for one treelet size.

        ``entries`` maps ``(treelet, mask)`` to per-vertex count vectors;
        zero vectors may be omitted entirely.
        """
        if not 1 <= size <= self.k:
            raise TableError(f"layer size {size} outside [1, {self.k}]")
        if size in self._layers:
            raise TableError(f"layer {size} already present")
        keys = list(entries)
        for treelet, _mask in keys:
            if getsize(treelet) != size:
                raise TableError(
                    f"key of size {getsize(treelet)} in layer {size}"
                )
        if keys:
            matrix = np.vstack([entries[key] for key in keys])
        else:
            matrix = np.zeros((0, self.num_vertices), dtype=np.float64)
        layer = DenseLayer(size, keys, matrix)
        self._layers[size] = layer
        return layer

    def set_layer(self, layer: LayerView) -> None:
        """Install a pre-built layer; raises if its size is present."""
        if layer.size in self._layers:
            raise TableError(f"layer {layer.size} already present")
        self._layers[layer.size] = layer

    def seal(
        self,
        layout: str = "succinct",
        sizes: Optional[Sequence[int]] = None,
    ) -> "CountTable":
        """Convert resident layers to ``layout`` in place.

        Sealing to ``"succinct"`` extracts each dense layer's nonzero
        pairs into a :class:`SuccinctLayer` and releases the dense
        matrix; ``"dense"`` re-materializes the matrices.  Layers already
        in the target layout are left untouched, so sealing is
        idempotent.  ``sizes`` restricts the pass (the build-up seals
        layers one at a time as they retire from its frontier); by
        default every resident layer converts.  Returns ``self``.
        """
        if layout not in LAYOUTS:
            raise TableError(
                f"unknown table layout {layout!r}; choose from {LAYOUTS}"
            )
        targets = sorted(self._layers) if sizes is None else list(sizes)
        for size in targets:
            layer = self.layer(size)
            if layer.layout == layout:
                continue
            if layout == "succinct":
                self._layers[size] = SuccinctLayer.from_dense(layer)
            else:
                self._layers[size] = DenseLayer(
                    size, layer.keys, layer.dense_counts()
                )
        return self

    def layout(self) -> str:
        """The resident layout: ``dense``, ``succinct``, or ``mixed``."""
        kinds = {layer.layout for layer in self._layers.values()}
        if len(kinds) == 1:
            return kinds.pop()
        return "mixed" if kinds else "dense"

    # ------------------------------------------------------------------
    # Paper operations
    # ------------------------------------------------------------------

    def layer(self, size: int) -> LayerView:
        """The layer for one treelet size; raises if absent."""
        try:
            return self._layers[size]
        except KeyError:
            raise TableError(f"no layer of size {size} in the table") from None

    def has_layer(self, size: int) -> bool:
        """Whether the layer is resident."""
        return size in self._layers

    def occ_total(self, v: int) -> float:
        """``occ(v)``: total k-treelet occurrences rooted at ``v`` — O(1)."""
        return float(self.layer(self.k).totals()[v])

    def occ(self, treelet: int, mask: int, v: int) -> float:
        """``occ(T_C, v)``: one colored-treelet count — O(k) binary search."""
        layer = self.layer(getsize(treelet))
        row = layer.row_of(treelet, mask)
        return 0.0 if row is None else layer.value_at(row, v)

    def iter_treelet(self, treelet: int, v: int) -> Iterator[Tuple[int, float]]:
        """``iter(T, v)``: (mask, count) pairs of one uncolored treelet."""
        layer = self.layer(getsize(treelet))
        for row in layer.treelet_rows(treelet):
            count = layer.value_at(row, v)
            if count:
                yield layer.keys[row][1], count

    def record(self, v: int, size: int) -> "list[tuple[Key, float]]":
        """The per-vertex record: nonzero (key, count) pairs, key-sorted."""
        layer = self.layer(size)
        rows, values = layer.record_arrays(v)
        return [
            (layer.keys[int(row)], float(value))
            for row, value in zip(rows, values)
        ]

    def cumulative_record(self, v: int, size: int) -> "list[tuple[Key, float]]":
        """The record with running η values, as stored by the paper.

        Like :meth:`record` — and like the paper's records — this holds
        only the *nonzero* pairs; a key absent at ``v`` contributes
        nothing to the running sums either way, so the η values are the
        same ones the dense cumulative matrix carries at those rows.
        """
        layer = self.layer(size)
        rows, running = layer.cumulative_record_arrays(v)
        return [
            (layer.keys[int(row)], float(eta))
            for row, eta in zip(rows, running)
        ]

    def sample_key_at(self, v: int, u: float) -> Key:
        """The paper's ``sample(v)``: draw ``(T, C)`` with probability ∝
        c(T_C, v) by inverting ``v``'s cumulative record at ``u · η_v``
        for a caller-supplied uniform ``u`` in ``[0, 1)``.

        Taking the variate from the caller makes the key choice a pure
        function of ``u``, which is what lets the batched sampling engine
        and its per-sample reference path agree bit for bit when both read
        the same uniform matrix.
        """
        layer = self.layer(self.k)
        return layer.keys[layer.sample_row_at(v, u)]

    def sample_key_rows_batch(self, roots: np.ndarray, us: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sample_key_at`: one size-k key row per root.

        For each ``(roots[i], us[i])`` pair, returns the row index into
        the size-k layer that :meth:`sample_key_at` would pick.  Each layout
        inverts its own cumulative structure — the dense layer
        column-compares the full cumulative matrix, the succinct layer
        runs a ragged ``searchsorted`` over its record slices — and the
        comparisons involve only integer-valued floats, so the layouts
        (and the per-sample path) cannot disagree.
        """
        layer = self.layer(self.k)
        if layer.num_keys == 0:
            raise TableError("the size-k layer is empty")
        return layer.sample_rows_batch(roots, us)

    def root_weights(self) -> np.ndarray:
        """Per-vertex total k-treelet counts (the alias-table weights)."""
        return self.layer(self.k).totals()

    # ------------------------------------------------------------------
    # Accounting (Table "count table size", Figure 7 right)
    # ------------------------------------------------------------------

    def total_pairs(self) -> int:
        """Stored (key, vertex) pairs with positive counts, all layers."""
        return sum(layer.nonzero_pairs() for layer in self._layers.values())

    def paper_equivalent_bytes(self) -> int:
        """Size at the paper's 176 bits/pair motivo costing."""
        return (self.total_pairs() * PAPER_BITS_PER_PAIR) // 8

    def actual_bytes(self) -> int:
        """Bytes held by the layout actually resident.

        Per layer: the primary arrays (the dense matrix, or the CSR
        ``indptr``/``key_row``/``values`` triple) plus any lazy caches
        built so far — cumulative records, totals, lookup indexes — so
        the number reflects what this process is really holding, not an
        estimate.
        """
        return sum(layer.memory_bytes() for layer in self._layers.values())

    def __repr__(self) -> str:
        layers = ", ".join(
            f"{size}:{layer.num_keys}k" for size, layer in sorted(self._layers.items())
        )
        return (
            f"CountTable(k={self.k}, n={self.num_vertices}, "
            f"layers=[{layers}])"
        )
