"""Incremental maintenance of count tables under edge updates.

Today's pipeline treats the count table as write-once: any edge change
invalidates :meth:`~repro.graph.graph.Graph.fingerprint` and forces a
full color-coding rebuild.  This module instead maintains the table as a
**materialized view** of the Equation (1) dynamic program: a batch of
edge insertions/deletions is pushed through each level as a sparse
change, and the result is bit-identical to a fresh rebuild on the
updated graph under the same coloring.

The delta rule.  Each level is bilinear in its two source layers,

    c(T_C, v) = (1/β) Σ_{C''} c(T'_{C \\ C''}, v) · S(T''_{C''}, v),
    S(T''_{C''}, v) = Σ_{u ~ v} c(T''_{C''}, u),

so its change follows the product rule Δ(a·b) = Δa · b_new + a_old · Δb
(the incremental-view rule of DBSP):

    β Δc(T_C, v) = Σ_{C''} Δc'(v) · S''_new(v) + c'_old(v) · ΔS''(v),
    ΔS''(v) = Σ_{u ~new v} Δc''(u) ± Σ_{(u, v) changed} c''_old(u).

A level's change is carried as sparse ``(key row, vertex, Δ)`` triples
over the level's key universe (level 1, the color indicators, never
changes).  ``ΔS''`` is the lower level's triples scattered over the new
adjacency plus the changed edges' endpoint terms; the level's compiled
plans (:mod:`repro.colorcoding.plans`) are then evaluated on those
triples alone — selection and contraction groups through per-level
reverse indices, absent keys as zero rows, the β division after
accumulation, and the size-``k`` level of a 0-rooted table on color-0
vertices only.  ``S''_new`` is summed only where a prime factor changed,
``c'_old`` is point-read only where ``ΔS''`` is nonzero, and a triple
whose vertex color lies in its key's mask is dropped on the spot: no
colorful copy rooted at ``v`` can use it (every such copy contains
``v``).  A changed edge between two vertices of one color therefore
changes nothing, and the update copies no layer.

Two monotone passes.  A batch runs as its deletions, then its
insertions, each against the table the previous pass left.  Treelet
counts are monotone in the edge set, so within a pass every Δ, every
product and every partial sum has one sign, and each is bounded by
``β · c`` at the larger of the two tables (the old one for deletions,
the new one for insertions) — the same bound under which
:func:`~repro.colorcoding.buildup.build_table` computes integers
exactly.  Below ``β_max · max count < 2^53`` every step is an exact
integer operation in any order, so ``old + Δ`` is the fresh build's
float, and a key stays exactly when its nonzero count (old nonzeros
plus births minus deaths) is positive.  A level past the bound (checked
on the old maxima before deletions, and on the new values after
insertions — rounding is monotone, so an inexact step can only push a
value past it) or a pass whose expansion volume outgrows what a rebuild
reads sends the batch to :func:`build_table`, the oracle
(``delta_rebuilds``).

Patching.  Each pass computes every level's triples first, reading only
its input table, then rewrites the support columns — the vertices with a
nonzero Δ — of each changed level.  A dense level whose keys stay is
written through :meth:`~repro.table.count_table.DenseLayer.patch_columns`
into a layer the caller gave up: the table's own under ``in_place``, the
first pass's successor in the second pass, or a *spare* — a layer of a
superseded version, first caught up at its stale columns (the
Left-Right scheme of Ramalhete and Correia: the writer works on the copy
no reader uses, so a write costs twice the change, not the table).
Where none is free the layer is copied
(:meth:`~repro.table.count_table.DenseLayer.patched`); key-changing dense
levels get a new matrix, succinct ones
:meth:`~repro.table.count_table.SuccinctLayer.spliced`.  A level whose
Δ is empty keeps its layer object.  The result reports each size's
rewritten columns with their final counts (:attr:`DeltaResult.support`),
which the sampling plane copies into the dense fill sources it carries
across updates, and the next spares (:attr:`DeltaResult.spares`): every
dense layer the batch replaced, stale at the batch's support.

Telemetry: ``count.delta_updates_total`` (edge changes applied),
``count.delta_rows_touched`` (support columns summed over levels and
passes), ``count.delta_entries`` (changed ``(key, vertex)`` entries),
``count.delta_rebuilds`` (batches sent to the oracle),
``count.delta_layers_recycled`` / ``count.delta_layers_copied`` (changed
dense layers written into a spare / copied) and
``time.delta_propagate`` accumulate into the caller's instrumentation —
names deliberately distinct from the build counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.level import row_edges, sorted_distinct
from repro.colorcoding.plans import (
    CompiledGroup,
    compile_plans,
    full_universe_keys,
)
from repro.errors import BuildError
from repro.graph.graph import Graph, change_rows
from repro.table.count_table import (
    CountTable,
    DenseLayer,
    LayerView,
    csr_offsets,
)
from repro.treelets.registry import TreeletRegistry
from repro.util.instrument import Instrumentation

__all__ = [
    "DeltaResult",
    "Spare",
    "Support",
    "apply_edge_updates",
    "touched_frontiers",
]

Key = Tuple[int, int]

#: Below this float64 holds every integer exactly; see the module
#: docstring.
_EXACT_FLOAT = float(1 << 53)

#: A pass whose expansion volume (neighbor-sum terms, plan fan-out and
#: point reads) exceeds a rebuild's multiply-adds divided by this factor
#: goes to the rebuild: each delta term costs several numpy passes
#: (gathers, a sort, a scatter) where a rebuild's SpMM spends one.  At
#: this ratio single-edge updates on hub graphs and batches of 512 edges
#: on a degree-5 graph of 50k vertices at k = 7 stay deltas, while a
#: batch of 2048 there stops at level 3.
_REBUILD_RATIO = 48
#: The volume every pass may spend, however small the graph: there the
#: fixed costs dominate either way.
_MIN_VOLUME = 1 << 16


class Support(NamedTuple):
    """A changed size's rewritten columns and their final counts:
    ``counts`` is ``num_keys × len(cols)`` float64 over the successor
    layer's key rows."""

    cols: np.ndarray
    counts: np.ndarray


class Spare(NamedTuple):
    """A writable dense layer no reader uses — typically one a
    superseded version held — and its ``stale`` columns: the sorted
    vertices where it differs from the current table's layer of its
    size, whose keys it has."""

    layer: DenseLayer
    stale: np.ndarray


_NO_COLUMNS = np.zeros(0, dtype=np.int64)


@dataclass
class DeltaResult:
    """Outcome of one :func:`apply_edge_updates` batch.

    Attributes
    ----------
    table, graph:
        The maintained count table and the updated graph it now counts.
        When the batch is a pure no-op both are the *input* objects.
    touched:
        Sorted endpoint vertices whose adjacency changed.
    rows_touched:
        Support columns rewritten — vertices with a nonzero Δ at a
        level — summed over levels ``2..k`` and both passes.
    updates_applied, edges_added, edges_removed:
        Edge changes the batch actually made (no-op entries excluded).
    dirty_radii:
        One int8 label per vertex: its distance to the nearest updated
        endpoint over the union of old and new adjacency, capped at
        ``k - 1`` (``None`` for a no-op batch).  The sampling plane's
        per-size staleness hint: a gathered segment of a size-``h``
        key at ``v`` sums size-``h`` counts over ``v``'s adjacency, and
        those counts move only within distance ``h - 2`` of an
        endpoint, so the segment can be stale only where the label is
        below ``h`` (see
        :meth:`repro.colorcoding.urn.TreeletUrn.take_gathered`).  Read
        off the balls of :func:`touched_frontiers`.
    changes:
        The batch's effective edge changes as ``(±1, u, v)`` rows
        (:func:`repro.graph.graph.change_rows`) — what an artifact's
        edge log persists.
    delta_entries:
        Changed ``(key, vertex)`` entries, summed over levels and both
        passes (0 when the batch went to the rebuild).
    delta_rebuilds:
        1 when the batch left the exactness bound or outgrew a rebuild
        and the table is :func:`build_table`'s, else 0.
    support:
        Per changed size, the sorted vertices whose column of that
        layer the batch rewrote — the union of both passes' support
        columns — with their final counts (:class:`Support`).  A size
        it leaves out keeps its layer object.  ``None`` when the table
        is the rebuild's.  The sampling plane copies these columns into
        its carried fill sources (see
        :meth:`repro.colorcoding.urn.TreeletUrn.take_gathered`).
    spares:
        The spares the next batch on this table may write into
        (:class:`Spare`, by size): each dense layer the batch replaced
        by one with the same keys, stale at this batch's support, and
        every incoming spare of a size the batch left unchanged.  Empty
        after a rebuild; a read-only (memory-mapped) or key-changed
        layer yields none.
    layers_recycled, layers_copied:
        Changed dense layers written into an incoming spare, and
        changed dense layers copied (a new matrix); a layer patched
        where it lies counts as neither.
    """

    table: CountTable
    graph: Graph
    touched: np.ndarray
    rows_touched: int
    updates_applied: int
    edges_added: int
    edges_removed: int
    dirty_radii: Optional[np.ndarray] = None
    changes: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 3), dtype=np.int64)
    )
    delta_entries: int = 0
    delta_rebuilds: int = 0
    support: Optional[Dict[int, Support]] = field(default_factory=dict)
    spares: Dict[int, Spare] = field(default_factory=dict)
    layers_recycled: int = 0
    layers_copied: int = 0

    def stats(self) -> Dict[str, int]:
        """The batch's counters under the names the update APIs report
        (``MotivoCounter.update``, ``motivo-py update``,
        ``POST /update``)."""
        return {
            "updates_applied": self.updates_applied,
            "edges_added": self.edges_added,
            "edges_removed": self.edges_removed,
            "rows_touched": self.rows_touched,
            "touched_vertices": int(self.touched.size),
            "delta_entries": self.delta_entries,
            "delta_rebuilds": self.delta_rebuilds,
        }


def touched_frontiers(
    old_graph: Graph, new_graph: Graph, endpoints: np.ndarray, k: int
) -> List[np.ndarray]:
    """Balls of radius ``0 .. k-2`` around the updated endpoints.

    Grown over the union of old and new adjacency: a deleted edge no
    longer exists in the new graph, but the stale contribution it used
    to carry still propagates outward along it.  Entry ``r`` is the
    sorted vertex set within distance ``r``; level ``h`` counts can
    change only on entry ``h - 2``.  Each ring grows from the newest
    ring alone: its neighbors not yet in the visited mask form the next
    ring, merged into the sorted ball — work proportional to the ball's
    edges, not radius times them.
    """
    ring = np.unique(np.asarray(endpoints, dtype=np.int64))
    visited = np.zeros(new_graph.num_vertices, dtype=bool)
    visited[ring] = True
    slot = np.empty(new_graph.num_vertices, dtype=np.int64)
    balls = [ring]
    for _radius in range(max(k - 2, 0)):
        reached = np.concatenate([
            graph.indices[row_edges(graph.indptr, ring)[1]]
            for graph in (old_graph, new_graph)
        ])
        ring = sorted_distinct(reached[~visited[reached]], slot)
        visited[ring] = True
        ball = balls[-1]
        balls.append(np.insert(ball, np.searchsorted(ball, ring), ring))
    return balls


def _distance_labels(
    balls: List[np.ndarray], n: int, cap: int
) -> np.ndarray:
    """Per-vertex distance to the update, capped at ``cap``: ``balls[r]``
    is the radius-``r`` ball, written from the widest in so the
    smallest radius wins."""
    labels = np.full(n, cap, dtype=np.int8)
    for radius in range(len(balls) - 1, -1, -1):
        labels[balls[radius]] = radius
    return labels


# ----------------------------------------------------------------------
# Reverse plan indices
# ----------------------------------------------------------------------


class _Fanout(NamedTuple):
    """Plan pairs grouped by one factor: CSR ``offsets`` over the lookup
    key, and per pair the output row and the other factor's row."""

    offsets: np.ndarray
    out_rows: np.ndarray
    other_rows: np.ndarray


class _GroupIndex(NamedTuple):
    """One compiled group's pairs, looked up from either factor.

    ``by_second`` is keyed by ``second_row * k + c`` for every color
    ``c`` of the pair's prime mask — the only vertices whose prime
    factor can be nonzero — and ``by_prime`` (contraction groups) by
    the prime row.
    """

    h_prime: int
    h_second: int
    by_second: _Fanout
    by_prime: Optional[_Fanout]


class _LevelIndex(NamedTuple):
    betas: np.ndarray
    beta_max: float
    pairs: int
    groups: Tuple[_GroupIndex, ...]


def _fanout(keys: np.ndarray, buckets: int, out_rows, other_rows) -> _Fanout:
    order = np.argsort(keys, kind="stable")
    return _Fanout(
        csr_offsets(keys, buckets), out_rows[order], other_rows[order]
    )


def _group_index(
    group: CompiledGroup, k: int, prime_masks: np.ndarray,
    second_size: int,
) -> _GroupIndex:
    out = np.repeat(group.out_rows, group.pairs_per_slot)
    prime = group.prime_rows.ravel()
    second = group.second_rows.ravel()
    pair, color = np.nonzero(
        (prime_masks[prime][:, None] >> np.arange(k, dtype=np.int64)) & 1
    )
    by_second = _fanout(
        second[pair] * k + color, second_size * k, out[pair], prime[pair]
    )
    by_prime = None
    if group.select_lut is None:
        by_prime = _fanout(prime, prime_masks.size, out, second)
    return _GroupIndex(group.h_prime, group.h_second, by_second, by_prime)


class _Universe(NamedTuple):
    """One size's sorted key universe, each key's color mask, and each
    key's universe row."""

    keys: List[Key]
    masks: np.ndarray
    rows: Dict[Key, int]


_UNIVERSE_CACHE: Dict[int, Dict[int, _Universe]] = {}
_INDEX_CACHE: Dict[int, Dict[int, _LevelIndex]] = {}


def _universe(registry: TreeletRegistry) -> Dict[int, _Universe]:
    """Every size's key universe, cached per ``k`` (a function of ``k``
    alone)."""
    k = registry.k
    universe = _UNIVERSE_CACHE.get(k)
    if universe is None:
        universe = {}
        for h in range(1, k + 1):
            keys = full_universe_keys(registry, h)
            universe[h] = _Universe(
                keys,
                np.asarray([mask for _treelet, mask in keys], dtype=np.int64),
                {key: row for row, key in enumerate(keys)},
            )
        _UNIVERSE_CACHE[k] = universe
    return universe


def _plan_index(registry: TreeletRegistry) -> Dict[int, _LevelIndex]:
    """Per-level reverse indices of the compiled plans, cached per ``k``
    (plans are a function of ``k`` alone)."""
    k = registry.k
    index = _INDEX_CACHE.get(k)
    if index is None:
        compiled = compile_plans(registry)
        universe = _universe(registry)
        index = {}
        for h, level in compiled.items():
            index[h] = _LevelIndex(
                betas=level.betas,
                beta_max=float(level.betas.max()) if level.betas.size else 1.0,
                pairs=sum(g.prime_rows.size for g in level.groups),
                groups=tuple(
                    _group_index(
                        g, k, universe[g.h_prime].masks,
                        universe[g.h_second].masks.size,
                    )
                    for g in level.groups
                ),
            )
        _INDEX_CACHE[k] = index
    return index


def _expand(fanout: _Fanout, keys: np.ndarray):
    """``(source, out_rows, other_rows)``: every pair under each lookup
    key, with the position of the key it came from."""
    local_ptr, positions = row_edges(fanout.offsets, keys)
    source = np.repeat(
        np.arange(keys.size, dtype=np.int64), np.diff(local_ptr)
    )
    return source, fanout.out_rows[positions], fanout.other_rows[positions]


# ----------------------------------------------------------------------
# Sparse triples and layer reads
# ----------------------------------------------------------------------


class _Sparse(NamedTuple):
    """Sorted distinct ``row * n + v`` keys and their nonzero values."""

    flat: np.ndarray
    values: np.ndarray


_EMPTY = _Sparse(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))


def _summed(flat: np.ndarray, values: np.ndarray, space: int) -> _Sparse:
    """Distinct keys ascending with their summed values, zeros dropped.

    ``space`` bounds the keys.  Within a pass every term has one sign
    and every partial sum stays below the exactness bound, so the
    summation order is immaterial: many terms are summed in a dense
    accumulator over the key space, few by a sort.
    """
    if flat.size == 0:
        return _EMPTY
    if 4 * flat.size > space:
        sums = np.bincount(flat, weights=values, minlength=space)
        keys = np.flatnonzero(sums)
        return _Sparse(keys, sums[keys])
    keys, inverse = np.unique(flat, return_inverse=True)
    sums = np.bincount(inverse, weights=values, minlength=keys.size)
    nonzero = sums != 0.0
    return _Sparse(keys[nonzero], sums[nonzero])


class _LayerReads:
    """Reads from one layer of a pass's input table, in universe rows.

    ``held[r]`` is the layer row of universe row ``r`` (``-1`` for a
    key the layer does not hold: a zero row) and ``universe`` the
    universe row of each held key.  Layer 1 is read off ``colors``: its
    universe row ``c`` is the indicator of color ``c``.
    """

    def __init__(
        self,
        layer: LayerView,
        universe: _Universe,
        colors: Optional[np.ndarray] = None,
    ):
        self.layer = layer
        self.colors = colors
        self.universe = np.asarray(
            [universe.rows[key] for key in layer.keys], dtype=np.int64
        )
        self.held = np.full(len(universe.keys), -1, dtype=np.int64)
        self.held[self.universe] = np.arange(
            self.universe.size, dtype=np.int64
        )

    def block(self, cols: np.ndarray) -> np.ndarray:
        """The held rows at the ascending vertices ``cols``, float64
        ``num_keys × len(cols)``: dense columns, or succinct records
        scattered — the records of ``cols`` only."""
        layer = self.layer
        if layer.layout == "dense":
            return np.array(layer.counts[:, cols], dtype=np.float64)
        local_ptr, positions = row_edges(layer.indptr, cols)
        block = np.zeros((layer.num_keys, cols.size), dtype=np.float64)
        block[
            layer.key_row[positions].astype(np.int64),
            np.repeat(
                np.arange(cols.size, dtype=np.int64), np.diff(local_ptr)
            ),
        ] = layer.values[positions]
        return block

    def records(self, verts: np.ndarray):
        """Every nonzero at each of ``verts`` (repeats allowed):
        ``(owner, universe rows, values)``, ``owner`` indexing ``verts``."""
        layer = self.layer
        if layer.layout == "dense":
            rows, owner = np.nonzero(layer.counts[:, verts])
            values = np.asarray(
                layer.counts[rows, verts[owner]], dtype=np.float64
            )
        else:
            local_ptr, positions = row_edges(layer.indptr, verts)
            owner = np.repeat(
                np.arange(verts.size, dtype=np.int64), np.diff(local_ptr)
            )
            rows = layer.key_row[positions].astype(np.int64)
            values = layer.values[positions].astype(np.float64)
        return owner, self.universe[rows], values

    def points(self, rows: np.ndarray, verts: np.ndarray) -> np.ndarray:
        """Counts at ``(rows[i], verts[i])``, universe rows, float64."""
        if self.colors is not None:
            return (self.colors[verts] == rows).astype(np.float64)
        held = self.held[rows]
        present = held >= 0
        out = np.zeros(rows.size, dtype=np.float64)
        held, verts = held[present], verts[present]
        if held.size == 0:
            return out
        layer = self.layer
        if layer.layout == "dense":
            out[present] = layer.counts[held, verts]
            return out
        # Search the records of the queried vertices only: a local
        # ``rank · num_keys + key_row`` index over them is sorted, since
        # records hold ascending key rows.
        distinct = np.unique(verts)
        local_ptr, positions = row_edges(layer.indptr, distinct)
        width = np.int64(layer.num_keys)
        index = np.repeat(
            np.arange(distinct.size, dtype=np.int64) * width,
            np.diff(local_ptr),
        ) + layer.key_row[positions]
        if index.size == 0:
            return out
        wanted = np.searchsorted(distinct, verts) * width + held
        at = np.minimum(np.searchsorted(index, wanted), index.size - 1)
        found = index[at] == wanted
        values = np.zeros(held.size, dtype=np.float64)
        values[found] = layer.values[positions[at[found]]]
        out[present] = values
        return out


# ----------------------------------------------------------------------
# One monotone pass
# ----------------------------------------------------------------------


class _Patch(NamedTuple):
    """A level's rewrite: the successor's universe rows, the support
    columns and their new counts over those rows."""

    rows: np.ndarray
    cols: np.ndarray
    block: np.ndarray
    entries: int


class _Pass:
    """One monotone pass: ``before`` → ``after`` by deletions alone or
    insertions alone (``sign`` −1 or +1), over ``table`` counting
    ``before``."""

    def __init__(
        self,
        table: CountTable,
        before: Graph,
        after: Graph,
        edges: np.ndarray,
        sign: int,
        colors: np.ndarray,
        registry: TreeletRegistry,
    ):
        self.table = table
        self.before, self.after = before, after
        self.sign = sign
        self.colors = colors
        self.k = table.k
        self.n = table.num_vertices
        self.index = _plan_index(registry)
        n = np.int64(self.n)
        self.ends = np.concatenate([edges // n, edges % n])
        self.others = np.concatenate([edges % n, edges // n])
        self.universe = _universe(registry)
        self.reads = {
            size: _LayerReads(
                table.layer(size), self.universe[size],
                colors if size == 1 else None,
            )
            for size in range(1, self.k + 1)
        }
        self.deltas: Dict[int, _Sparse] = {1: _EMPTY}
        self.neighbor: Dict[int, _Sparse] = {}
        self.volume = 0
        self.budgets = self._budgets()
        self.limit = 0

    def _budgets(self) -> Dict[int, int]:
        """Per level, the volume the pass may have spent by its end.

        A rebuild's multiply-adds through level ``h`` — the SpMM of
        layer ``h - 1``, first read there, and the level's contractions
        (the 0-rooted top level's on a ``1/k`` share of the columns) —
        over ``_REBUILD_RATIO``, scaled by ``(h - 1) / (k - 1)``: a
        delta's volume grows by about a degree per level, so a pass
        that spends its share early is bound to lose, and stops while
        it has spent little.
        """
        budgets: Dict[int, int] = {}
        total = 0
        for h, level in self.index.items():
            columns = self.n
            if h == self.k and self.table.zero_rooted:
                columns //= self.k
            total += (
                2 * self.before.num_edges * self.table.layer(h - 1).num_keys
                + level.pairs * columns
            )
            budgets[h] = max(
                total * (h - 1) // ((self.k - 1) * _REBUILD_RATIO),
                _MIN_VOLUME,
            )
        return budgets

    def _charge(self, volume: int) -> bool:
        self.volume += int(volume)
        return self.volume <= self.limit

    def run(self) -> Optional[Dict[int, _Patch]]:
        """Every changed level's patch, or ``None`` when the pass leaves
        the exactness bound or outgrows a rebuild."""
        for h in range(2, self.k + 1):
            bound = self.index[h].beta_max * self.reads[h].layer.max_value()
            if bound >= _EXACT_FLOAT:
                return None
        patches: Dict[int, _Patch] = {}
        for h in range(2, self.k + 1):
            self.limit = self.budgets[h]
            delta = self._level(h)
            if delta is None:
                return None
            self.deltas[h] = delta
            if delta.flat.size:
                patch = self._patch(h, delta)
                if patch is None:
                    return None
                patches[h] = patch
        return patches

    def _split(self, delta: _Sparse, top: bool):
        """``(rows, verts, values)`` of triples; at the size-``k`` level
        of a 0-rooted table only color-0 vertices."""
        n = np.int64(self.n)
        rows, verts, values = delta.flat // n, delta.flat % n, delta.values
        if top and self.table.zero_rooted:
            zero = self.colors[verts] == 0
            rows, verts, values = rows[zero], verts[zero], values[zero]
        return rows, verts, values

    def _neighbor_delta(self, size: int) -> Optional[_Sparse]:
        """``ΔS''`` of layer ``size`` at admissible ``(key, vertex)``
        pairs (``v``'s color outside the key's mask).  Only the 0-rooted
        size-``k`` level reads layer ``k - 1``'s, at color-0 vertices, so
        those sums skip every other neighbor before fanning out."""
        n = np.int64(self.n)
        rows, verts, values = self._split(self.deltas[size], False)
        top = size == self.k - 1 and self.table.zero_rooted
        # The new adjacency rows of the support, read once per vertex.
        support, local = self._columns(verts)
        ptr, positions = row_edges(self.after.indptr, support)
        neighbors = self.after.indices[positions]
        if top:
            zero = self.colors[neighbors] == 0
            neighbors = neighbors[zero]
            ptr = np.concatenate(([0], np.cumsum(zero)))[ptr]
        if not self._charge(
            positions.size + (ptr[local + 1] - ptr[local]).sum()
        ):
            return None
        local_ptr, positions = row_edges(ptr, local)
        repeats = np.diff(local_ptr)
        owner, end_rows, end_values = self.reads[size].records(self.others)
        rows = np.concatenate([np.repeat(rows, repeats), end_rows])
        verts = np.concatenate([neighbors[positions], self.ends[owner]])
        values = np.concatenate([
            np.repeat(values, repeats), self.sign * end_values
        ])
        masks = self.universe[size].masks
        keep = ((masks[rows] >> self.colors[verts]) & 1) == 0
        if top:
            keep &= self.colors[verts] == 0
        return _summed(
            rows[keep] * n + verts[keep], values[keep],
            self.reads[size].held.size * self.n,
        )

    def _columns(self, verts: np.ndarray):
        """``(cols, at)``: the distinct vertices ascending, and each
        entry's position among them."""
        mark = np.zeros(self.n, dtype=bool)
        mark[verts] = True
        return np.flatnonzero(mark), (np.cumsum(mark) - 1)[verts]

    def _level(self, h: int) -> Optional[_Sparse]:
        """Level ``h``'s triples, β-divided."""
        n = np.int64(self.n)
        top = h == self.k
        level = self.index[h]
        flats: List[np.ndarray] = []
        terms: List[np.ndarray] = []
        for group in level.groups:
            second = group.h_second
            if second not in self.neighbor:
                found = self._neighbor_delta(second)
                if found is None:
                    return None
                self.neighbor[second] = found
            # c'_old · ΔS'', read only where ΔS'' is nonzero.
            rows, verts, values = self._split(self.neighbor[second], top)
            keys = rows * self.k + self.colors[verts]
            offsets = group.by_second.offsets
            if not self._charge((offsets[keys + 1] - offsets[keys]).sum()):
                return None
            source, out_rows, prime_rows = _expand(group.by_second, keys)
            verts, values = verts[source], values[source]
            if group.h_prime > 1:
                values = values * self.reads[group.h_prime].points(
                    prime_rows, verts
                )
            flats.append(out_rows * n + verts)
            terms.append(values)
            if group.by_prime is None:
                continue
            # Δc' · S''_new, summed only where a prime factor changed.
            rows, verts, values = self._split(
                self.deltas[group.h_prime], top
            )
            if rows.size == 0:
                continue
            source, out_rows, second_rows = _expand(group.by_prime, rows)
            verts, values = verts[source], values[source]
            sums = self._new_sums(second, second_rows, verts)
            if sums is None:
                return None
            flats.append(out_rows * n + verts)
            terms.append(values * sums)
        if not flats:
            return _EMPTY
        summed = _summed(
            np.concatenate(flats), np.concatenate(terms),
            level.betas.size * self.n,
        )
        betas = level.betas[summed.flat // n]
        divided = betas > 1.0
        values = summed.values
        if divided.any():
            values = values.copy()
            values[divided] /= betas[divided]
        return _Sparse(summed.flat, values)

    def _new_sums(
        self, size: int, rows: np.ndarray, verts: np.ndarray
    ) -> Optional[np.ndarray]:
        """``S''_new`` at ``(rows[i], verts[i])``: the input table's
        neighbor sums over the input graph, plus ``ΔS''``."""
        n = np.int64(self.n)
        wanted, inverse = np.unique(rows * n + verts, return_inverse=True)
        rows, verts = wanted // n, wanted % n
        indptr = self.before.indptr
        if not self._charge((indptr[verts + 1] - indptr[verts]).sum()):
            return None
        local_ptr, positions = row_edges(indptr, verts)
        repeats = np.diff(local_ptr)
        sums = np.bincount(
            np.repeat(np.arange(wanted.size, dtype=np.int64), repeats),
            weights=self.reads[size].points(
                np.repeat(rows, repeats), self.before.indices[positions]
            ),
            minlength=wanted.size,
        ).astype(np.float64, copy=False)
        change = self.neighbor[size]
        if change.flat.size:
            at = np.minimum(
                np.searchsorted(change.flat, wanted), change.flat.size - 1
            )
            hit = change.flat[at] == wanted
            sums[hit] += change.values[at[hit]]
        return sums[inverse]

    def _patch(self, h: int, delta: _Sparse) -> Optional[_Patch]:
        """The support columns' new records and the successor's keys.

        A key stays exactly when its nonzero count stays positive: old
        nonzeros, plus entries born, minus entries that die.
        """
        n = np.int64(self.n)
        reads = self.reads[h]
        rows, verts = delta.flat // n, delta.flat % n
        cols, at = self._columns(verts)
        old_block = reads.block(cols)
        held = reads.held[rows]
        present = held >= 0
        old = np.zeros(rows.size, dtype=np.float64)
        old[present] = old_block[held[present], at[present]]
        new = old + delta.values
        if self.sign > 0 and (
            self.index[h].beta_max * float(new.max()) >= _EXACT_FLOAT
        ):
            return None
        died = (old > 0.0) & (new == 0.0)
        keep = np.zeros(reads.held.size, dtype=bool)
        keep[reads.universe] = True
        keep[rows[new > 0.0]] = True
        if died.any():
            layer = reads.layer
            candidates, deaths = np.unique(rows[died], return_counts=True)
            if layer.layout == "dense":
                stored = np.count_nonzero(
                    layer.counts[reads.held[candidates]], axis=1
                )
            else:
                stored = np.bincount(
                    layer.key_row, minlength=layer.num_keys
                )[reads.held[candidates]]
            keep[candidates[stored == deaths]] = False
        kept = np.flatnonzero(keep)
        if np.array_equal(kept, reads.universe):
            block = old_block
            block[held, at] = new
        else:
            position = np.full(keep.size, -1, dtype=np.int64)
            position[kept] = np.arange(kept.size, dtype=np.int64)
            block = np.zeros((kept.size, cols.size), dtype=np.float64)
            carried = keep[reads.universe]
            block[position[reads.universe[carried]]] = old_block[carried]
            live = keep[rows]
            block[position[rows[live]], at[live]] = new[live]
        return _Patch(kept, cols, block, int(delta.flat.size))


def _successor(
    reads: _LayerReads,
    universe: _Universe,
    patch: _Patch,
    target: Optional[Spare],
) -> LayerView:
    """The layer with ``patch`` applied.

    A dense layer whose keys stay is written into ``target`` — a layer
    the caller gave up, with the columns where it still differs from
    the input layer — after those columns are copied in, and copied
    when there is none.  Key-changing and succinct layers are new.
    """
    layer, held = reads.layer, reads.universe
    keys = [universe.keys[row] for row in patch.rows]
    unchanged = np.array_equal(patch.rows, held)
    if layer.layout == "succinct":
        remap = None
        if not unchanged:
            position = np.full(len(universe.keys), -1, dtype=np.int64)
            position[patch.rows] = np.arange(patch.rows.size, dtype=np.int64)
            # Carried records hold only kept keys, so no -1 is read.
            remap = position[held]
        return layer.spliced(keys, remap, patch.cols, patch.block)
    if not unchanged:
        counts = np.zeros(
            (patch.rows.size, layer.num_vertices), dtype=np.float64
        )
        kept = np.isin(held, patch.rows)
        counts[np.searchsorted(patch.rows, held[kept])] = layer.counts[
            np.flatnonzero(kept)
        ]
        successor = DenseLayer(layer.size, keys, counts)
        successor.patch_columns(patch.cols, patch.block)
        return successor
    if target is None:
        return layer.patched(patch.cols, patch.block)
    written, stale = target
    if stale.size:
        written.patch_columns(stale, layer.counts[:, stale])
    written.patch_columns(patch.cols, patch.block)
    return written


def _target(
    layer: LayerView, gave_up: bool, spares: Dict[int, Spare]
) -> Optional[Spare]:
    """Where a changed size's patch may be written: ``layer`` itself
    when the caller gave it up and it is writable, else the size's
    spare (taken: a spare is written at most once), else nowhere."""
    if gave_up and layer.layout == "dense" and layer.counts.flags.writeable:
        return Spare(layer, _NO_COLUMNS)
    return spares.pop(layer.size, None)


def _merged(
    first: Support, second: Support,
    first_rows: np.ndarray, second_rows: np.ndarray,
) -> Support:
    """One size's support over both passes, at the second's key rows
    (``*_rows``: each pass's successor keys as universe rows).

    Insertions only add keys, so the first pass's rows are among the
    second's, and a key the second adds is zero outside its columns.
    """
    cols = np.union1d(first.cols, second.cols)
    counts = np.zeros((second_rows.size, cols.size), dtype=np.float64)
    counts[
        np.searchsorted(second_rows, first_rows)[:, None],
        np.searchsorted(cols, first.cols)[None, :],
    ] = first.counts
    counts[:, np.searchsorted(cols, second.cols)] = second.counts
    return Support(cols, counts)


def _oracle(
    table: CountTable,
    graph: Graph,
    coloring: ColoringScheme,
    registry: TreeletRegistry,
) -> CountTable:
    """:func:`build_table` on ``graph`` in the layouts ``table`` holds."""
    layout = table.layout()
    rebuilt = build_table(
        graph, coloring, registry, zero_rooting=table.zero_rooted,
        instrumentation=Instrumentation(),
        layout="succinct" if layout == "succinct" else "dense",
    )
    if layout == "mixed":
        rebuilt.seal("succinct", sizes=[
            size for size in range(1, table.k + 1)
            if table.layer(size).layout == "succinct"
        ])
    return rebuilt


def apply_edge_updates(
    table: CountTable,
    graph: Graph,
    updates,
    coloring: ColoringScheme,
    registry: Optional[TreeletRegistry] = None,
    instrumentation: Optional[Instrumentation] = None,
    in_place: bool = False,
    spares: Optional[Dict[int, Spare]] = None,
) -> DeltaResult:
    """Maintain a count table under a batch of edge updates.

    Parameters
    ----------
    table:
        The table built on ``graph`` under ``coloring`` (any layout).
        With ``in_place=False`` it is not mutated; the result carries a
        fresh table that shares every layer the batch leaves unchanged
        (layer 1 always).  With ``in_place=True`` the caller
        relinquishes it, together with any table sharing its layers:
        dense levels whose key set is unchanged are patched in the live
        matrices (column-local work instead of matrix copies), so the
        input table must not be read afterwards.  Read-only
        (memory-mapped) levels are written into a spare or copied, and
        key-changing levels get new matrices, either way.
    graph:
        The graph the table currently counts.
    updates:
        Edge update batch — ``(op, u, v)`` triples accepted by
        :func:`repro.graph.graph.normalize_updates`.
    coloring:
        The build's coloring.  Persisting it per build is what makes
        the delta and an oracle rebuild see identical color
        assignments; pure edge updates never change it.
    registry, instrumentation:
        Treelet registry for ``k`` (built on demand) and the counter
        bag receiving the ``delta_*`` telemetry.
    spares:
        Dense layers, by size, that the caller gives up for writing —
        the :attr:`DeltaResult.spares` of the batch that produced
        ``table``, less any layer a reader still holds.  A changed
        dense size whose keys stay is written into its spare, after
        the spare's stale columns are copied in from ``table``, instead
        of into a copy of ``table``'s layer; the bytes are the same.
        Each spare is written at most once; pass the result's spares to
        the next batch.

    Returns a :class:`DeltaResult` whose table is **bit-identical** to
    ``build_table(new_graph, coloring, ...)`` — same kept keys, same
    count bytes, same layout.
    """
    k = table.k
    n = table.num_vertices
    if graph.num_vertices != n:
        raise BuildError(
            f"table covers {n} vertices, graph has {graph.num_vertices}"
        )
    if coloring.k != k or coloring.num_vertices != n:
        raise BuildError(
            f"coloring is for k={coloring.k} over {coloring.num_vertices} "
            f"vertices; table wants k={k} over {n}"
        )
    registry = registry or TreeletRegistry(k)
    if registry.k != k:
        raise BuildError(f"registry is for k={registry.k}, table for k={k}")
    instrumentation = instrumentation or Instrumentation()
    free = dict(spares or {})

    with instrumentation.timer("delta_propagate"):
        added, removed, endpoints = graph.resolve_updates(updates)
        if endpoints.size == 0:
            return DeltaResult(
                table, graph, endpoints, 0, 0, 0, 0, spares=free
            )
        new_graph = graph.with_changes(added, removed)
        colors = np.asarray(coloring.colors, dtype=np.int64)
        current, before = table, graph
        support: Dict[int, Support] = {}
        rows_touched = entries = rebuilds = 0
        for edges, sign in ((removed, -1), (added, 1)):
            if edges.size == 0:
                continue
            after = new_graph if sign > 0 or added.size == 0 else (
                graph.with_changes(edges[:0], edges)
            )
            delta_pass = _Pass(
                current, before, after, edges, sign, colors, registry
            )
            patches = delta_pass.run()
            if patches is None:
                current = _oracle(table, new_graph, coloring, registry)
                rows_touched = entries = 0
                rebuilds = 1
                break
            successor = CountTable(k, n, zero_rooted=table.zero_rooted)
            for size in range(1, k + 1):
                layer = current.layer(size)
                patch = patches.get(size)
                if patch is not None:
                    target = _target(layer, in_place or size in support, free)
                    layer = _successor(
                        delta_pass.reads[size], delta_pass.universe[size],
                        patch, target,
                    )
                    written = Support(patch.cols, patch.block)
                    if size in support:
                        written = _merged(
                            support[size], written,
                            delta_pass.reads[size].universe, patch.rows,
                        )
                    support[size] = written
                    rows_touched += patch.cols.size
                    entries += patch.entries
                successor.set_layer(layer)
            current, before = successor, after
        recycled, copied, next_spares = _recycling(
            table, current, support, free, spares or {}, rebuilds
        )
        instrumentation.count(
            "delta_updates_total", int(added.size + removed.size)
        )
        instrumentation.count("delta_rows_touched", rows_touched)
        instrumentation.count("delta_entries", entries)
        instrumentation.count("delta_rebuilds", rebuilds)
        instrumentation.count("delta_layers_recycled", recycled)
        instrumentation.count("delta_layers_copied", copied)
    return DeltaResult(
        current,
        new_graph,
        endpoints,
        rows_touched,
        int(added.size + removed.size),
        int(added.size),
        int(removed.size),
        dirty_radii=_distance_labels(
            touched_frontiers(graph, new_graph, endpoints, k), n, k - 1
        ),
        changes=change_rows(added, removed, n),
        delta_entries=entries,
        delta_rebuilds=rebuilds,
        support=None if rebuilds else support,
        spares=next_spares,
        layers_recycled=recycled,
        layers_copied=copied,
    )


def _recycling(
    table: CountTable,
    current: CountTable,
    support: Dict[int, Support],
    free: Dict[int, Spare],
    spares: Dict[int, Spare],
    rebuilt: int,
) -> Tuple[int, int, Dict[int, Spare]]:
    """``(recycled, copied, next spares)`` of a batch from ``table`` to
    ``current``: the spare rule.

    A changed dense layer is recycled when it is an incoming spare and
    copied when it is neither that nor the input layer (patched where
    it lay).  The next spares are the input layers replaced by layers
    with the same keys, stale at the batch's support, plus the spares
    ``free`` still holds at sizes the batch left unchanged.
    """
    if rebuilt:
        return 0, 0, {}
    recycled = copied = 0
    following: Dict[int, Spare] = {}
    for size in range(2, table.k + 1):
        old, new = table.layer(size), current.layer(size)
        if size not in support:
            if size in free:
                following[size] = free[size]
            continue
        if new.layout != "dense" or new is old:
            continue
        spare = spares.get(size)
        if spare is not None and spare.layer is new:
            recycled += 1
        else:
            copied += 1
        if (
            old.layout == "dense"
            and old.counts.flags.writeable
            and old.keys == new.keys
        ):
            following[size] = Spare(old, support[size].cols)
    return recycled, copied, following
