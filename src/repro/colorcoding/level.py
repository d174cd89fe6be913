"""One build-up level: Equation (1) at level ``h`` over a column set.

The build-up is one dynamic program, and this module is its level step.
:func:`execute_level` computes the level-``h`` counts ``c(T_C, v)`` for
the vertices ``v`` of a *column set* — every vertex for the in-memory
build (:func:`repro.colorcoding.buildup.build_table`), one vertex-range
shard for the out-of-core build
(:func:`repro.colorcoding.sharded.build_table_sharded`).  The callers
keep only what is specific to their storage: installing and sealing,
committing shards.  Edge updates do not run the step: they push sparse
changes through the same compiled plans
(:func:`repro.colorcoding.incremental.apply_edge_updates`).

The step reads two things per source layer ``s < h``: the layer's own
counts at the columns (the prime factors ``c(T'_{C'}, v)``, from a
``sources`` table whose layers cover exactly the column set) and the
neighbor sums ``Σ_{u~v} c(T''_{C''}, u)`` at the columns, from a small
provider:

:class:`ResidentSums`
    The in-memory build: one full SpMM per source layer, cached for the
    whole build.
:class:`HaloSums`
    The sharded build and the in-memory zero-rooted level: the rows of
    the column set multiplied against only the *halo* columns they
    reference, read source shard by source shard (from the store's files
    under a :class:`MemoryBudget`, or from the live dense layers of a
    table through :class:`LiveColumns`).

Mode.  Every level runs off the compiled plans
(:mod:`repro.colorcoding.plans`), *zero-rooted* when it is the size-``k``
level of a 0-rooted build (§3.2: only color-0 columns are computed, SpMMs
included).  A source layer that holds only part of its key universe — a
color missing from the graph, an edgeless graph — runs through the same
kernels: :func:`execute_level` maps the layer's universe rows onto the
rows it holds once per level, and a pair with an absent key reads the
zero sentinel row of the neighbor sums.  That is the zero term
Equation (1) gives an absent ``(T, C)`` pair, added as an exact ``+0.0``
in its place of the sequential sub-mask sum.

Bit-identity.  Every builder gets exactly the bytes of the others:

* Every per-column operation — plan contractions, selection lookups, β
  division after accumulation, the zero-rooted level's color-0
  restriction — is elementwise over the vertex axis, so a column subset
  computes exactly the bytes the full run puts there.  Pairs accumulate
  in plan enumeration order (:mod:`repro.colorcoding.plans`).
* The neighbor sums are the one cross-column step.  ``csr_matvecs`` adds
  row by row, neighbor by neighbor: restricting an SpMM to a row subset
  replays those rows' axpy sequences unchanged, and remapping columns
  onto the sorted halo is monotone.  Streamed over ascending source
  shards into one shared buffer, the additions reaching any output
  element still arrive in ascending-neighbor order (adjacency lists are
  sorted) — the one-shot SpMM's floating-point sequence, never a
  re-association.  Without scipy's private ``_sparsetools`` entry point
  the halo is gathered whole and multiplied once instead (same bits,
  more transient memory).
* Rows come back in the level's sorted key universe, so the callers'
  keep tests (``Σ_v out[key, v] > 0``, association-invariant for
  nonnegative floats) decide the same key sets.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.colorcoding.plans import (
    CompiledGroup,
    CompiledLevel,
    compile_plans,
    full_universe_keys,
    level_source_sizes,
)
from repro.errors import MemoryBudgetError
from repro.table.count_table import CountTable, LayerView
from repro.treelets.registry import TreeletRegistry
from repro.util.instrument import Instrumentation

try:  # pragma: no cover - import guard
    from scipy.sparse import _sparsetools as _scipy_sparsetools
except ImportError:  # pragma: no cover
    _scipy_sparsetools = None

__all__ = [
    "MemoryBudget",
    "execute_level",
    "ResidentSums",
    "HaloSums",
    "HaloLayout",
    "LiveColumns",
    "row_edges",
    "sorted_distinct",
]

Key = Tuple[int, int]

#: Float budget for the compiled path's contraction gathers; slot blocks
#: are sized so each ``block × L × n`` gather stays at most this many
#: float64 values (~0.8 MB — small enough to contract out of cache).
_CONTRACT_BLOCK = 100_000


class MemoryBudget:
    """Tracked byte budget: allocations fail loud past the limit.

    The sharded build routes every significant allocation through
    :meth:`allocate`/:meth:`release`; ``limit=None`` tracks peak usage
    without enforcing anything.  Exceeding the limit raises
    :class:`~repro.errors.MemoryBudgetError` *before* the allocation is
    made — a budgeted build never silently overshoots.  Worker processes
    run their own tracker with the same limit; the parent folds their
    peaks in via :meth:`fold_peak`, so :attr:`peak` reports the build's
    true high-water mark whatever the fan-out.
    """

    def __init__(self, limit: Optional[int] = None):
        if limit is not None:
            limit = int(limit)
            if limit <= 0:
                raise MemoryBudgetError("memory budget must be positive")
        self.limit = limit
        self.used = 0
        self.peak = 0

    def allocate(self, label: str, nbytes: int) -> int:
        """Charge ``nbytes``; raises when the budget would be exceeded."""
        nbytes = max(0, int(nbytes))
        if self.limit is not None and self.used + nbytes > self.limit:
            raise MemoryBudgetError(
                f"allocating {nbytes} bytes for {label} would put the "
                f"working set at {self.used + nbytes} bytes, over the "
                f"{self.limit}-byte memory budget"
            )
        self.used += nbytes
        if self.used > self.peak:
            self.peak = self.used
        return nbytes

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the budget."""
        self.used = max(0, self.used - max(0, int(nbytes)))

    @contextmanager
    def hold(self, label: str, nbytes: int):
        """Scope a charge to a ``with`` block."""
        charged = self.allocate(label, nbytes)
        try:
            yield
        finally:
            self.release(charged)

    def fold_peak(self, peak: int) -> None:
        """Merge a worker tracker's high-water mark into this one."""
        if int(peak) > self.peak:
            self.peak = int(peak)


# ----------------------------------------------------------------------
# The level step
# ----------------------------------------------------------------------


def execute_level(
    h: int,
    registry: TreeletRegistry,
    zero_rooting: bool,
    colors: np.ndarray,
    sources: CountTable,
    sums: "ResidentSums | HaloSums",
) -> np.ndarray:
    """Level ``h`` of Equation (1) over one column set.

    ``colors`` are the colors of the column set's vertices, ``sources``
    holds every source layer restricted to those columns (layer ``s``
    has ``num_keys × len(colors)`` counts), and ``sums`` provides their
    neighbor sums at the same columns and carries the budget and
    instrumentation the step charges (``merge_ops``; the providers count
    ``spmm_ops``).

    Returns the ``len(keys) × len(colors)`` count block whose rows follow
    ``compile_plans(registry)[h].keys``, the level's sorted key universe.
    Nothing is dropped: keep decisions belong to the caller.
    """
    clevel = compile_plans(registry)[h]
    held = {
        size: _held_rows(registry, sources.layer(size))
        for size in level_source_sizes(registry, h)
    }
    if zero_rooting and h == registry.k:
        return _exec_zero_rooted(clevel, colors, sources, sums, held)
    select_only = {
        g.h_second: g.select_lut is not None for g in clevel.groups
    }
    second = {
        size: sums.sums(size, select_only[size])
        for size in sorted(select_only)
    }
    sums.budget.allocate("out block", len(clevel.keys) * colors.size * 8)
    return _exec_compiled(
        clevel, colors, sources, second, held, sums.instrumentation
    )


def _held_rows(
    registry: TreeletRegistry, layer: LayerView
) -> Optional[np.ndarray]:
    """Universe row → the row ``layer`` holds, ``None`` for a full layer.

    A key the layer does not hold, and the universe's sentinel row past
    the end, map to ``layer.num_keys`` — the zero sentinel row of the
    layer's neighbor sums.
    """
    universe = (
        compile_plans(registry)[layer.size].keys if layer.size > 1
        else full_universe_keys(registry, 1)
    )
    if layer.num_keys == len(universe):
        return None
    rows = np.full(len(universe) + 1, layer.num_keys, dtype=np.int64)
    for i, key in enumerate(universe):
        rows[i] = layer.key_rows.get(key, layer.num_keys)
    return rows


def _pair_rows(
    group: CompiledGroup,
    sources: CountTable,
    held: Dict[int, Optional[np.ndarray]],
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """A contraction group's ``(prime_rows, second_rows)`` in the rows
    the source layers hold; ``None`` when the prime layer holds no keys.

    A pair whose prime or second key is absent reads row 0 of the prime
    layer against the zero sentinel row of the neighbor sums: an exact
    ``+0.0`` term in its place of the sequential sub-mask sum.
    """
    prime_map, second_map = held[group.h_prime], held[group.h_second]
    if prime_map is None and second_map is None:
        return group.prime_rows, group.second_rows
    second_rows = (
        group.second_rows if second_map is None
        else second_map[group.second_rows]
    )
    if prime_map is None:
        return group.prime_rows, second_rows
    prime_keys = sources.layer(group.h_prime).num_keys
    if prime_keys == 0:
        return None
    prime_rows = prime_map[group.prime_rows]
    missing = prime_rows == prime_keys
    prime_rows[missing] = 0
    sentinel = sources.layer(group.h_second).num_keys
    return prime_rows, np.where(missing, sentinel, second_rows)


def _exec_compiled(
    clevel: CompiledLevel,
    colors: np.ndarray,
    sources: CountTable,
    second: Dict[int, Tuple[np.ndarray, bool]],
    held: Dict[int, Optional[np.ndarray]],
    instrumentation: Instrumentation,
) -> np.ndarray:
    """Run one level off the compiled row indices."""
    out = np.empty((len(clevel.keys), colors.size), dtype=np.float64)
    for group in clevel.groups:
        instrumentation.count("merge_ops", group.prime_rows.size)
        neighbor_counts, column_major = second[group.h_second]
        if group.select_lut is not None:
            # Colors the graph lacks never index the lookup, so only the
            # second layer's held rows matter.
            second_map = held[group.h_second]
            lut = (
                group.select_lut if second_map is None
                else second_map[group.select_lut]
            )
            out[group.out_rows] = _select(
                lut, neighbor_counts, colors, column_major
            )
            continue
        rows = _pair_rows(group, sources, held)
        if rows is None:
            out[group.out_rows] = 0.0
            continue
        out[group.out_rows] = _pair_contract(
            sources.layer(group.h_prime).counts, neighbor_counts, *rows
        )
    divisors = clevel.betas > 1.0
    if divisors.any():
        out[divisors] /= clevel.betas[divisors, None]
    return out


def _exec_zero_rooted(
    clevel: CompiledLevel,
    colors: np.ndarray,
    sources: CountTable,
    sums: "ResidentSums | HaloSums",
    held: Dict[int, Optional[np.ndarray]],
) -> np.ndarray:
    """The size-``k`` level under 0-rooting, on the color-0 columns only.

    Only color-0 roots can be nonzero, so every SpMM and contraction runs
    on that column subset; all other columns stay exactly ``0.0``, the
    ``× 0`` of the unrestricted kernel.  Selection groups run one
    restricted SpMM over exactly the layer rows the color-0 lookup reads;
    contraction groups contract the color-0 prime columns against
    restricted neighbor sums.
    """
    budget, instrumentation = sums.budget, sums.instrumentation
    budget.allocate(
        "zero-rooted out block", len(clevel.keys) * colors.size * 8
    )
    out = np.zeros((len(clevel.keys), colors.size), dtype=np.float64)
    zero_local = np.flatnonzero(colors == 0)
    if zero_local.size == 0:
        return out
    zero = sums.restrict(zero_local)
    for group in clevel.groups:
        instrumentation.count("merge_ops", group.prime_rows.size)
        if group.color_slots is not None:  # a selection group
            slots, key_rows = group.color_slots[0]
            second_map = held[group.h_second]
            if second_map is not None:
                key_rows = second_map[key_rows]
                present = key_rows < sources.layer(group.h_second).num_keys
                slots, key_rows = slots[present], key_rows[present]
            if slots.size:
                values = zero.select_sums(group.h_second, key_rows)
                _place(
                    out, clevel.betas, group.out_rows[slots], zero_local,
                    values.T,
                )
                budget.release(values.nbytes)
            continue
        rows = _pair_rows(group, sources, held)
        if rows is None:
            continue
        counts = sources.layer(group.h_prime).counts
        budget.allocate(
            "zero-rooted prime columns", counts.shape[0] * zero_local.size * 8
        )
        prime = np.ascontiguousarray(counts[:, zero_local])
        neighbor_counts, _ = zero.sums(group.h_second)
        acc = _pair_contract(prime, neighbor_counts, *rows)
        _place(out, clevel.betas, group.out_rows, zero_local, acc)
        budget.release(neighbor_counts.nbytes)
    return out


def _place(
    out: np.ndarray,
    betas: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    acc: np.ndarray,
) -> None:
    """β-divide accumulated rows and scatter them into ``out[rows, cols]``."""
    divisors = betas[rows] > 1.0
    if divisors.any():
        acc[divisors] /= betas[rows][divisors, None]
    out[np.ix_(rows, cols)] = acc


def _select(
    lut: np.ndarray,
    neighbor_counts: np.ndarray,
    colors: np.ndarray,
    column_major: bool,
) -> np.ndarray:
    """A selection group's rows: ``out[s, v] = nbr[lut[s, color(v)], v]``.

    Works on either neighbor-sum layout — row-major ``(keys + 1, n)`` or
    column-major ``(n, keys + 1)`` — via a flattened-index take (~2x
    faster than pairwise advanced indexing).
    """
    n = colors.size
    vertex_ids = np.arange(n, dtype=np.int64)
    flat = np.take(lut, colors, axis=1)
    if column_major:  # (n, keys + 1)
        flat += vertex_ids * neighbor_counts.shape[1]
    else:  # (keys + 1, n)
        flat *= neighbor_counts.shape[1]
        flat += vertex_ids
    return np.take(
        neighbor_counts.ravel(), flat.ravel(), mode="clip"
    ).reshape(flat.shape[0], n)


def _pair_contract(
    prime_counts: np.ndarray,
    neighbor_counts: np.ndarray,
    prime_rows: np.ndarray,
    second_rows: np.ndarray,
) -> np.ndarray:
    """``acc[s] = Σ_j prime[prime_rows[s, j]] ∘ nbr[second_rows[s, j]]``.

    The sum over ``j`` (the color sub-masks) runs sequentially in
    enumeration order, the ``accumulated += term`` order of the exact
    oracle: einsum without ``optimize`` reduces the contracted axis with
    the same left-to-right association, and it fuses the multiply and
    the sum with no temporaries.  Slot blocks keep each ``block × L × n``
    gather within ``_CONTRACT_BLOCK`` floats so the contraction runs out
    of cache; when even one slot's ``L × n`` gather would exceed the
    budget (huge graphs), a buffered multiply-accumulate loop over ``j``
    — same summation order — bounds memory instead.
    """
    num_slots, pairs_per_slot = prime_rows.shape
    n = prime_counts.shape[1]
    acc = np.empty((num_slots, n), dtype=np.float64)
    if pairs_per_slot * n <= _CONTRACT_BLOCK:
        step = max(1, _CONTRACT_BLOCK // (pairs_per_slot * n))
        for lo in range(0, num_slots, step):
            hi = min(lo + step, num_slots)
            np.einsum(
                "sjn,sjn->sn",
                prime_counts[prime_rows[lo:hi]],
                neighbor_counts[second_rows[lo:hi]],
                out=acc[lo:hi],
                optimize=False,
            )
        return acc
    step = max(1, _CONTRACT_BLOCK // n)
    rows = min(step, num_slots)
    gather = np.empty((rows, n), dtype=np.float64)
    product = np.empty((rows, n), dtype=np.float64)
    for lo in range(0, num_slots, step):
        hi = min(lo + step, num_slots)
        count = hi - lo
        block = acc[lo:hi]
        np.take(
            prime_counts, prime_rows[lo:hi, 0], axis=0,
            out=gather[:count], mode="clip",
        )
        np.take(
            neighbor_counts, second_rows[lo:hi, 0], axis=0,
            out=product[:count], mode="clip",
        )
        np.multiply(gather[:count], product[:count], out=block)
        for j in range(1, pairs_per_slot):
            np.take(
                prime_counts, prime_rows[lo:hi, j], axis=0,
                out=gather[:count], mode="clip",
            )
            np.take(
                neighbor_counts, second_rows[lo:hi, j], axis=0,
                out=product[:count], mode="clip",
            )
            gather[:count] *= product[:count]
            block += gather[:count]
    return acc


# ----------------------------------------------------------------------
# Neighbor-sum providers
# ----------------------------------------------------------------------


def _spmm(adjacency, dense_T: np.ndarray) -> np.ndarray:
    """``adjacency @ dense_T`` for a C-contiguous ``(n, vecs)`` operand.

    Calls the same ``csr_matvecs`` routine scipy's ``dot`` dispatches to
    (bit-identical result), skipping the per-call wrapper overhead; falls
    back to the public API if the private module moves.
    """
    if _scipy_sparsetools is not None:
        rows = adjacency.shape[0]
        vecs = dense_T.shape[1]
        result = np.zeros((rows, vecs), dtype=np.float64)
        _scipy_sparsetools.csr_matvecs(
            rows, adjacency.shape[1], vecs,
            adjacency.indptr, adjacency.indices, adjacency.data,
            dense_T.ravel(), result.ravel(),
        )
        return result
    return adjacency.dot(dense_T)


def _augmented(sums: np.ndarray) -> np.ndarray:
    """Row-major ``(keys + 1, rows)`` neighbor sums, zero sentinel last.

    Row ``r < keys`` holds the neighbor sums of key ``r``; the trailing
    all-zero row lets the selection lookups point "no such key" at it
    for free.
    """
    augmented = np.empty(
        (sums.shape[1] + 1, sums.shape[0]), dtype=np.float64
    )
    augmented[:-1] = sums.T
    augmented[-1] = 0.0
    return augmented


class ResidentSums:
    """Neighbor sums over every column of a resident table.

    One full SpMM per source layer, cached for the whole build: the
    in-memory build runs each layer's SpMM at most once (a succinct
    build drops a layer's sums with :meth:`evict` when it seals the
    layer).  Sizes some *contraction* group consumes are kept row-major;
    selection-only sizes keep the SpMM's natural column-major layout,
    with the sentinel as a zero input column the SpMM maps to zero for
    free — skipping a strided transpose per layer.
    """

    def __init__(
        self,
        table: CountTable,
        adjacency,
        registry: TreeletRegistry,
        instrumentation: Instrumentation,
    ):
        self.table = table
        self.adjacency = adjacency
        self.budget = MemoryBudget()
        self.instrumentation = instrumentation
        self._contract = {
            g.h_second
            for level in compile_plans(registry).values()
            for g in level.groups
            if g.select_lut is None
        }
        self._row_major: Dict[int, np.ndarray] = {}
        self._column_major: Dict[int, np.ndarray] = {}

    def sums(
        self, size: int, select_only: bool = False
    ) -> Tuple[np.ndarray, bool]:
        """``(sums, column_major)``: the cached full neighbor sums."""
        column_major = select_only and size not in self._contract
        cache = self._column_major if column_major else self._row_major
        if size not in cache:
            self.instrumentation.count("spmm_ops")
            counts = self.table.layer(size).counts
            if column_major:
                operand = np.zeros(
                    (counts.shape[1], counts.shape[0] + 1), dtype=np.float64
                )
                operand[:, :-1] = counts.T
                cache[size] = _spmm(self.adjacency, operand)
            else:
                cache[size] = _augmented(
                    _spmm(self.adjacency, np.ascontiguousarray(counts.T))
                )
        return cache[size], column_major

    def restrict(self, local: np.ndarray) -> "HaloSums":
        """Neighbor sums over the columns ``local``: cached sums are
        sliced, the rest gathered from the halo of the live layers."""
        return HaloSums(
            self.adjacency, local, self.table, LiveColumns(self.table),
            self.budget, self.instrumentation, cached=self._row_major,
        )

    def evict(self, size: int) -> None:
        """Drop the cached sums of ``size``."""
        for cache in (self._row_major, self._column_major):
            cache.pop(size, None)


def sorted_distinct(values: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of the index array ``values``.

    ``slot`` is scratch covering the values' range, its contents
    irrelevant: each value's slot keeps one entry's position, so one
    entry per value survives and only the distinct values are sorted —
    not the repeats, as ``np.unique`` would.
    """
    order = np.arange(values.size, dtype=np.int64)
    slot[values] = order
    return np.sort(values[slot[values] == order])


def row_edges(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The CSR rows ``rows`` as ``(local indptr, entry positions)``.

    ``positions`` index the parent's ``indices``/``data`` arrays, row
    after row in ``rows`` order, each row's entries in stored order.
    """
    starts = indptr[rows].astype(np.int64)
    lengths = indptr[rows + 1].astype(np.int64) - starts
    local_ptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=local_ptr[1:])
    positions = np.repeat(starts - local_ptr[:-1], lengths) + np.arange(
        int(local_ptr[-1]), dtype=np.int64
    )
    return local_ptr, positions


class LiveColumns:
    """Column reads from the resident dense layers of a table.

    The :class:`HaloSums` column source of the in-memory zero-rooted
    level: a single source shard spanning every vertex, read in place
    (every source layer is still dense while the size-``k`` level runs).
    """

    def __init__(self, table: CountTable):
        self.table = table
        self.bounds = np.asarray([0, table.num_vertices], dtype=np.int64)

    def read(
        self,
        size: int,
        shard: int,
        verts: np.ndarray,
        key_rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Layer ``size`` at the ascending vertices ``verts``: float64,
        all key rows or only ``key_rows`` by ``len(verts)``."""
        counts = self.table.layer(size).counts
        if key_rows is not None:
            return counts[np.ix_(key_rows, verts)]
        return counts[:, verts]


class HaloLayout:
    """The edges of a row set against their sorted halo, split by shard.

    ``halo`` holds the sorted neighbor columns the ``rows`` reference,
    and ``pieces`` one ``(shard, lo, hi, indptr, indices, data)`` CSR
    block per source shard the halo reaches: the rows against halo
    columns ``lo:hi``, indices relative to ``lo`` (int32 when every
    index fits, as SciPy would store them).  A layout depends only on
    the adjacency, the rows and the shard bounds, so the sharded build
    computes each shard's once per build and keeps it on disk
    (:meth:`save`/:meth:`load`).
    """

    def __init__(self, halo: np.ndarray, rows: int, pieces: list):
        self.halo = halo
        self.rows = rows
        self.pieces = pieces

    @classmethod
    def build(
        cls, adjacency, rows: np.ndarray, bounds: np.ndarray
    ) -> "HaloLayout":
        """The layout of ``rows`` (ascending) over source shards
        ``bounds``."""
        local_ptr, positions = row_edges(adjacency.indptr, rows)
        neighbors = adjacency.indices[positions]
        column = np.empty(adjacency.shape[1], dtype=np.int64)
        halo = sorted_distinct(neighbors, column)
        column[halo] = np.arange(halo.size, dtype=np.int64)
        index = (
            np.int32 if max(positions.size, halo.size) < 2**31 else np.int64
        )
        halo_cols = column[neighbors].astype(index)
        del neighbors
        data = adjacency.data[positions]
        del positions
        cuts = np.searchsorted(halo, bounds)
        pieces = []
        for shard in range(cuts.size - 1):
            lo, hi = int(cuts[shard]), int(cuts[shard + 1])
            if lo == hi:
                continue
            selected = np.flatnonzero((halo_cols >= lo) & (halo_cols < hi))
            pieces.append((
                shard, lo, hi,
                np.searchsorted(selected, local_ptr).astype(index),
                halo_cols[selected] - index(lo),
                data[selected],
            ))
        return cls(halo.astype(np.int64), int(rows.size), pieces)

    def save(self, path: str) -> None:
        """Write the layout as one flat binary file."""
        index = self.pieces[0][3].dtype if self.pieces else np.dtype(np.int64)
        head = [self.halo.size, self.rows, len(self.pieces), index.itemsize]
        for shard, lo, hi, _indptr, indices, _data in self.pieces:
            head += [shard, lo, hi, indices.size]
        with open(path, "wb") as handle:
            handle.write(np.asarray(head, dtype=np.int64).data)
            handle.write(self.halo.data)
            for _shard, _lo, _hi, indptr, indices, data in self.pieces:
                for array in (indptr, indices, data):
                    handle.write(np.ascontiguousarray(array).data)

    @classmethod
    def load(cls, path: str) -> "HaloLayout":
        """Read back a layout :meth:`save` wrote."""
        with open(path, "rb") as handle:
            halo_size, rows, count, itemsize = np.fromfile(
                handle, dtype=np.int64, count=4
            ).tolist()
            head = np.fromfile(
                handle, dtype=np.int64, count=4 * count
            ).reshape(count, 4).tolist()
            index = np.int32 if itemsize == 4 else np.int64
            halo = np.fromfile(handle, dtype=np.int64, count=halo_size)
            pieces = [
                (
                    shard, lo, hi,
                    np.fromfile(handle, dtype=index, count=rows + 1),
                    np.fromfile(handle, dtype=index, count=nnz),
                    np.fromfile(handle, dtype=np.float64, count=nnz),
                )
                for shard, lo, hi, nnz in head
            ]
        return cls(halo, rows, pieces)


class HaloSums:
    """Neighbor sums of a row set, gathered from the halo of each layer.

    ``rows`` (ascending vertex ids) are the level's columns; their
    adjacency rows reference a *halo* of neighbor columns, and only
    those are read from a source layer.  ``columns`` partitions the
    vertex axis into source shards (``columns.bounds``) and reads a
    layer's values at ascending vertices of one shard
    (``columns.read(size, shard, verts, key_rows)``).  Each source
    shard's halo block is multiplied against that shard's slice of the
    rows and accumulated into one shared buffer, so at most one source
    shard is in flight — the sharded build's bounded halo exchange,
    every transient charged to ``budget``.  ``sources`` supplies the
    source layers' key counts; ``cached`` optionally holds full
    row-major sums (a :class:`ResidentSums` cache) to slice instead of
    multiplying.  ``layout`` optionally supplies the rows'
    :class:`HaloLayout` (a zero-argument callable, called when a sum
    first needs it); by default the first sum builds it, and every
    layer's SpMM shares it.
    """

    def __init__(
        self,
        adjacency,
        rows: np.ndarray,
        sources: CountTable,
        columns,
        budget: MemoryBudget,
        instrumentation: Instrumentation,
        cached: Optional[Dict[int, np.ndarray]] = None,
        layout: Optional[Callable[[], HaloLayout]] = None,
    ):
        self.adjacency = adjacency
        self.rows = np.asarray(rows, dtype=np.int64)
        self.sources = sources
        self.columns = columns
        self.budget = budget
        self.instrumentation = instrumentation
        self._cached = cached if cached is not None else {}
        self._layout_source = layout
        self._layout: Optional[HaloLayout] = None

    def restrict(self, local: np.ndarray) -> "HaloSums":
        """The same sums over the column subset ``local``."""
        return HaloSums(
            self.adjacency, self.rows[local], self.sources, self.columns,
            self.budget, self.instrumentation, cached=self._cached,
        )

    def sums(
        self, size: int, select_only: bool = False
    ) -> Tuple[np.ndarray, bool]:
        """``(sums, False)``: row-major augmented sums at the rows."""
        width = self.rows.size
        if size in self._cached:
            full = self._cached[size]
            self.budget.allocate(
                f"layer-{size} augmented sums", full.shape[0] * width * 8
            )
            return np.ascontiguousarray(full[:, self.rows]), False
        self.instrumentation.count("spmm_ops")
        raw = self._halo_spmm(size)
        self.budget.allocate(
            f"layer-{size} augmented sums", (raw.shape[1] + 1) * width * 8
        )
        augmented = _augmented(raw)
        self.budget.release(raw.nbytes)
        return augmented, False

    def select_sums(self, size: int, key_rows: np.ndarray) -> np.ndarray:
        """``(len(rows), len(key_rows))`` sums of the chosen layer rows."""
        self.instrumentation.count("spmm_ops")
        return self._halo_spmm(size, key_rows)

    def _halo(self) -> HaloLayout:
        if self._layout is None:
            source = self._layout_source
            self._layout = (
                source() if source is not None
                else HaloLayout.build(
                    self.adjacency, self.rows, self.columns.bounds
                )
            )
        return self._layout

    def _halo_spmm(
        self, size: int, key_rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``(len(rows), vecs)`` neighbor sums of layer ``size`` (all key
        rows, or ``key_rows``), streamed source shard by source shard."""
        num_keys = self.sources.layer(size).num_keys
        num_vecs = num_keys if key_rows is None else int(key_rows.size)
        width = self.rows.size
        budget = self.budget
        budget.allocate(f"layer-{size} neighbor sums", width * num_vecs * 8)
        result = np.zeros((width, num_vecs), dtype=np.float64)
        layout = self._halo()
        halo = layout.halo
        bounds = self.columns.bounds
        gathered = None
        if _scipy_sparsetools is None:  # pragma: no cover
            budget.allocate(
                f"layer-{size} whole halo", halo.size * num_vecs * 8
            )
            gathered = np.empty((halo.size, num_vecs), dtype=np.float64)
        for shard, lo, hi, indptr, indices, data in layout.pieces:
            shard_width = int(bounds[shard + 1] - bounds[shard])
            transient = (num_keys * shard_width + (hi - lo) * num_vecs) * 8
            with budget.hold(f"layer-{size} halo shard", transient):
                operand = np.ascontiguousarray(
                    self.columns.read(size, shard, halo[lo:hi], key_rows).T
                )
                if gathered is not None:  # pragma: no cover
                    gathered[lo:hi] = operand
                    continue
                _scipy_sparsetools.csr_matvecs(
                    width, hi - lo, num_vecs, indptr, indices, data,
                    operand.ravel(), result.ravel(),
                )
        if gathered is not None:  # pragma: no cover - no _sparsetools
            if layout.pieces:
                # The pieces side by side are the rows against the whole
                # sorted halo, each row's entries still in neighbor order.
                whole = sparse.hstack(
                    [
                        sparse.csr_matrix(
                            (data, indices, indptr), shape=(width, hi - lo)
                        )
                        for _shard, lo, hi, indptr, indices, data
                        in layout.pieces
                    ],
                    format="csr",
                )
                result[:] = whole.dot(gathered)
            budget.release(gathered.nbytes)
        return result
