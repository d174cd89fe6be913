"""The treelet urn: motivo's sampling-phase engine (§2.2, §3.2, §4).

The build-up phase leaves an abstract "urn" of colorful k-treelet copies.
This module draws from it:

``sample_batch(n)``
    ``n`` colorful k-treelet copies uniformly at random: each root ``v``
    is picked with probability ∝ occ(v) (alias method, §3.3), ``(T, C)``
    from ``v``'s record (binary search on cumulative counts), and a copy
    is materialized by recursive decomposition (§2.2).
``sample_shape_batch(T, n)``
    The AGS primitive: uniform copies of one *free* treelet shape ``T``.
    Root selection uses a per-shape alias table — the rebuild cost the
    paper notes when AGS switches shapes.  Each urn builds it once per
    shape, on the shape's first draw, and keeps it; an update successor
    (:meth:`TreeletUrn.successor`) starts without any and builds its own.

Both draws run vectorized across the batch — one ``searchsorted`` sweep
per decision level instead of a Python recursion per sample.  See
*Batched sampling* below.

Batched sampling.  The copy-materialization recursion has a shape that is
fully determined by the rooted treelet ``T`` (only the chosen color masks
and vertices are random), so it compiles into a flat
:class:`~repro.colorcoding.descent.DescentPlan` replayed over any number
of samples at once.  Randomness follows a **fixed-width uniform-matrix
draw discipline**: every sample owns one row of ``rng.random((n, w))``
with ``w = 3 + 2(k-1)`` —

====  =================================================================
slot  meaning
====  =================================================================
0, 1  alias-table column and coin for the root draw
2     key draw (the paper's ``sample(v)``) or rooted-variant pick
3+2r  color-split choice of the internal node with pre-order rank ``r``
4+2r  child-endpoint choice of that node
====  =================================================================

The per-sample reference path (``method="loop"``) replays the original
recursion reading its row left to right, which lands on exactly those
slots; the vectorized path (``method="batched"``) reads column slices.
Because treelet counts are integer-valued floats (exact in float64 up to
2^53), every weight, cumulative sum and comparison is bit-identical
between the two paths, so for a fixed seed they return identical samples
— the property ``BENCH_sampling.json`` and the batch-equivalence tests
assert.  The binding magnitude for that guarantee is the *gathered*
running sum: the batched path accumulates one cumsum over all adjacency
lists per ``(T'', C'')`` key, i.e. ``Σ_u deg(u)·c(T''_{C''}, u)`` — a
degree-weighted total up to Δ times larger than any per-vertex neighbor
sum the loop path ever forms.  While that stays below 2^53 the two
paths cannot diverge; beyond it nothing is checked.  Measured at k=8:
on K_{4,6000} layer 7 peaks at 2^57.4 and batched and loop draws under
the same uniforms disagree on 2–3 of 300 rows (seeds 0, 1, 2) without
a warning; on K_{3,12000} layer 7 reaches 2^63.4 and the batched draw
raises "inconsistent table: no valid split" on every seed.

Fused descent kernel.  The vectorized path replays a single compiled
:class:`~repro.colorcoding.descent.DescentProgram` — every treelet plan,
split group and gathered-key resolved eagerly into flat index arrays —
so a frontier wave is a handful of full-array passes instead of a Python
loop over ``(T', T'', C)`` groups: group bounds come from one dense (or
binary-searched) lookup, all candidates pad to a ``(Lmax, wave)`` matrix
whose padded lanes get exact-0.0 weights (padding cannot perturb the
prefix sums), and the child endpoint inverts the gathered running sums
by vectorized bisection.  A wave reads only what a split can weigh.  A
candidate is *admissible* when its ``C''`` leaves out ``v``'s own color:
every copy of ``T'_{C∖C''}`` rooted at ``v`` contains ``v``, so anywhere
else the prime factor is zero.  The prime factor is looked up at
admissible candidates only, and ``S(T''_{C''}, v)`` is read only where
it is positive; every other entry weighs an exact ``+0.0``, the split
the scalar recursion skips.  Programs are pure table metadata: artifacts
cache them (``descent_plan.npz``) and hand them back via the
``program=`` constructor argument, so warm opens never compile.

The gathered-cumulative matrix is a single global store (one ``O(m)``
row per ``(T'', C'')`` key a draw can choose — a key some wave reads at
an admissible candidate with a positive prime factor — shared across
layers and batches, allocated once up to the row budget) held at the
narrowest **exact integer dtype** — uint32 when ``max_count · 2m <
2^32``, else int64 — halving memory traffic versus float64 rows.
Integer running sums also make the child inversion exact at any
magnitude: the scalar rule
``searchsorted(running, u·s, side="right")`` counts ``running <= u·s``,
which for integer running sums equals ``running <= floor(u·s)``, an
int64 comparison with no rounding anywhere.  Split weights stay float64
products, performing the same float ops as the scalar recursion.

Across edge updates the store is carried, not rebuilt: a successor urn
keeps reading the rows, pinned to the graph they were summed over, and
sends each read an update may have staled — a size-``h`` key at a
vertex whose distance to the updated endpoints is below ``h`` — through
its segment store of exact running sums over the current adjacency
(:meth:`TreeletUrn.take_gathered`).  A fresh urn never consults it.
Segment fills read succinct layers through dense copies decoded once
(:meth:`TreeletUrn._segment_source`); those are carried too, with the
columns the batch rewrote patched in, so a count after an update
decodes no layer a previous count already decoded.

Table layouts: every table access goes through the
:class:`~repro.table.count_table.LayerView` protocol (``row_values`` for
the gathered-cumulative rows, ``values_at`` for the split weights and
child counts), so the urn works unchanged — and bit-identically — over
dense matrices and the sealed succinct CSR records alike; the succinct
layout answers the point lookups by binary search on its packed pair
index instead of direct indexing.

Neighbor buffering (§3.2): materializing a copy repeatedly draws a child
endpoint ``u ~ v`` with probability ∝ c(T''_{C''}, u), which costs a Θ(d_v)
sweep.  The paper draws 100 children per sweep for hub vertices and
caches the spares (10-40× on hub-dominated graphs, Figure 5).  The
gathered-cumulative store amortizes the sweep for every vertex instead:
each key's running sums are built once, and every later child draw is a
bisection over ``v``'s segment (``bench_fig5_buffering.py`` compares it
with the unbuffered ``method="loop"`` sweep).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SamplingError
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.descent import (
    DescentProgram,
    compile_program,
    table_keys_digest,
)
from repro.colorcoding.level import row_edges
from repro.graph.graph import Graph
from repro.telemetry.tracing import span as _trace_span
from repro.table.count_table import (
    CountTable,
    DenseLayer,
    LayerView,
    SuccinctLayer,
)
from repro.treelets.encoding import getsize
from repro.treelets.registry import TreeletRegistry
from repro.util.alias import AliasSampler
from repro.util.bitops import iter_subsets_of_size
from repro.util.instrument import Instrumentation
from repro.util.rng import RngLike, ensure_rng

if TYPE_CHECKING:
    from repro.colorcoding.incremental import Support

__all__ = ["TreeletUrn", "BatchSamples"]

#: Batched draw result: ``(vertices (n, k), treelets (n,), masks (n,))``.
BatchSamples = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Tie-break epsilon of the split choice, shared verbatim by the scalar
#: recursion and the vectorized engine so their comparisons agree.
_SPLIT_EPS = 1e-300

#: Default byte budget for the cached gathered-cumulative rows (each row
#: costs ``(2m + 1)`` entries at the store's integer dtype; budgeting
#: assumes the conservative 8 bytes each).  Keys beyond the budget are
#: computed transiently per batch instead of cached, so the batched
#: sampler's resident memory stays bounded on paper-scale graphs.
#: Overridable per urn via ``descent_cache_bytes`` (see
#: ``MotivoConfig.descent_cache_bytes`` / ``--descent-cache-bytes``).
DEFAULT_DESCENT_CACHE_BYTES = 256 * 1024 * 1024

#: The gathered rows one wave reads: ``(matrix, slot_of, built)``, see
#: :meth:`TreeletUrn._gathered_rows`.
_WaveRows = Tuple[
    np.ndarray, np.ndarray, Optional[Tuple[np.ndarray, np.ndarray]]
]


def _split_rows(
    rows: _WaveRows, gks: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """The reads of gathered keys ``gks`` grouped by the matrix holding
    their rows: ``(matrix, row indices, where)`` per matrix, ``where``
    selecting the entries of ``gks`` it serves (``None``: all)."""
    matrix, slot, built = rows
    slots = slot[gks]
    if built is None:
        return [(matrix, slots, None)]
    transient, built_of = built
    cached = slots >= 0
    return [
        (matrix, slots[cached], cached),
        (transient, built_of[gks[~cached]], ~cached),
    ]


def _segment_sums(
    rows: _WaveRows, gks: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Neighbor totals ``S`` of the gathered keys ``gks`` over the
    adjacency segments ``starts[i]``..``ends[i]``: differences of the
    running sums at the segment ends, exact in int64."""
    totals = np.empty(gks.shape, dtype=np.int64)
    for matrix, slots, where in _split_rows(rows, gks):
        if where is None:
            totals[:] = matrix[slots, ends] - matrix[slots, starts]
        else:
            totals[where] = (
                matrix[slots, ends[where]] - matrix[slots, starts[where]]
            )
    return totals


def _write_records(
    records: np.ndarray, layer: SuccinctLayer, verts: np.ndarray
) -> None:
    """Write the succinct ``layer``'s stored pairs at the ascending
    vertices ``verts`` into the vertex-major ``records`` (one row per
    vertex, one column per key row)."""
    local_ptr, positions = row_edges(layer.indptr, verts)
    records[
        np.repeat(verts, np.diff(local_ptr)), layer.key_row[positions]
    ] = layer.values[positions]


class _UniformRow:
    """Sequential reader over one sample's row of the uniform matrix.

    Duck-types the only generator method the copy-materialization
    recursion uses (``random()``), so the per-sample reference path can
    run the unmodified recursion while drawing from pre-assigned slots.
    """

    __slots__ = ("_row", "_cursor")

    def __init__(self, row: np.ndarray, cursor: int = 0):
        self._row = row
        self._cursor = cursor

    def random(self) -> float:
        value = float(self._row[self._cursor])
        self._cursor += 1
        return value


class _SegmentStore:
    """Exact running sums of the current counts over the current
    adjacency, for the stale ``(gathered key, vertex)`` pairs of a
    carried gathered store (:meth:`TreeletUrn.take_gathered`).

    Every filled segment lies back to back in one global int64 running
    sum: pair ``p`` occupies ``cum[base_p : base_p + deg_p + 1]``, its
    leading entry shared with the segment before, so its neighbor total
    is ``cum[base_p + deg_p] - cum[base_p]``.  The whole array is
    nondecreasing (counts are nonnegative), so the child inversion of
    any number of pairs is one ``searchsorted`` over it.  A pair's base
    sits at ``index[vertex_row[v], gk]``: each vertex read gets one row
    over the gathered keys, and row 0 is all ``-1`` (absent), so a
    lookup is one gather.  Plain arrays only, with no reference back to
    the urn, so a retired urn's store is freed with it.
    """

    __slots__ = ("vertex_row", "index", "rows", "cum", "used")

    #: Running totals stay below this, so the int64 sums never wrap.
    LIMIT = 2.0**62

    def __init__(self, num_vertices: int, num_keys: int) -> None:
        self.vertex_row = np.zeros(num_vertices, dtype=np.int64)
        self.index = np.full((1, num_keys), -1, dtype=np.int64)
        self.clear()

    def clear(self) -> None:
        self.vertex_row[:] = 0
        self.index = self.index[:1].copy()
        self.rows = 1
        self.cum = np.zeros(1, dtype=np.int64)
        self.used = 1

    @property
    def nbytes(self) -> int:
        """Bytes charged to the descent cache budget."""
        return 8 * (self.used + self.index.size + self.vertex_row.size)

    def find(self, gks: np.ndarray, verts: np.ndarray) -> np.ndarray:
        """Bases of the ``(gks[i], verts[i])`` pairs, ``-1`` where
        absent."""
        return self.index[self.vertex_row[verts], gks]

    def below_limit(self, values: np.ndarray) -> bool:
        """Whether appending ``values`` keeps the running total below
        :attr:`LIMIT`."""
        return float(self.cum[self.used - 1]) + float(values.sum()) < (
            self.LIMIT
        )

    def append(
        self,
        gks: np.ndarray,
        verts: np.ndarray,
        degrees: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Append the segments of absent ``(gks[i], verts[i])`` pairs:
        ``degrees[i]`` entries each, taken from ``values`` in order."""
        fresh = np.unique(verts[self.vertex_row[verts] == 0])
        if fresh.size:
            rows = self.rows + fresh.size
            if rows > self.index.shape[0]:
                grown = np.full(
                    (max(rows, 2 * self.index.shape[0]), self.index.shape[1]),
                    -1,
                    dtype=np.int64,
                )
                grown[: self.rows] = self.index[: self.rows]
                self.index = grown
            self.vertex_row[fresh] = np.arange(self.rows, rows, dtype=np.int64)
            self.rows = rows
        end = self.used + values.size
        if end > self.cum.size:
            grown = np.empty(max(end, 2 * self.cum.size), dtype=np.int64)
            grown[: self.used] = self.cum[: self.used]
            self.cum = grown
        run = self.cum[self.used:end]
        np.cumsum(values.astype(np.int64), out=run)
        run += self.cum[self.used - 1]
        self.index[self.vertex_row[verts], gks] = (
            self.used - 1 + np.cumsum(degrees) - degrees
        )
        self.used = end


class TreeletUrn:
    """Sampling interface over a finished count table.

    Parameters
    ----------
    graph, table, coloring:
        The host graph, its build-up output, and the coloring used.
    registry:
        Treelet registry for ``k``.
    program:
        A pre-compiled :class:`DescentProgram` for this table (from a
        plan-carrying artifact).  ``None`` compiles lazily on the first
        batched draw.  A program that does not match the table raises
        :class:`SamplingError` immediately.
    descent_cache_bytes:
        Byte budget of the gathered-cumulative row cache (default
        ``DEFAULT_DESCENT_CACHE_BYTES``).
    """

    def __init__(
        self,
        graph: Graph,
        table: CountTable,
        coloring: ColoringScheme,
        registry: Optional[TreeletRegistry] = None,
        instrumentation: Optional[Instrumentation] = None,
        program: Optional[DescentProgram] = None,
        descent_cache_bytes: Optional[int] = None,
    ):
        self.graph = graph
        self.table = table
        self.coloring = coloring
        self.k = table.k
        self.registry = registry or TreeletRegistry(self.k)
        self.instrumentation = instrumentation or Instrumentation()

        weights = table.root_weights()
        self._total_weight = float(weights.sum())
        if self._total_weight <= 0:
            raise SamplingError(
                "the urn is empty: no colorful k-treelets were counted "
                "(unlucky coloring or disconnected graph?)"
            )
        self._root_alias = self._alias_table(weights)
        self._full_mask = (1 << self.k) - 1
        #: Uniform-matrix width of the batched draw discipline.
        self._draw_width = 3 + 2 * (self.k - 1)

        # Per-shape machinery (built lazily, once per shape).
        self._shape_weights: Dict[int, np.ndarray] = {}
        self._shape_alias: Dict[int, AliasSampler] = {}
        self._shape_totals: Dict[int, float] = {}

        # Batched-path state: the compiled descent program (plans, split
        # groups and gathered keys fused into flat arrays; handed in
        # pre-compiled when the table came from a plan-carrying artifact),
        # the global integer gathered-cumulative store, and the size-k
        # layer's keys as parallel arrays.
        if program is not None:
            try:
                program.validate_for(table)
            except ValueError as exc:
                raise SamplingError(
                    f"descent program does not match the table: {exc}"
                ) from exc
        self._program = program
        if descent_cache_bytes is None:
            descent_cache_bytes = DEFAULT_DESCENT_CACHE_BYTES
        self.descent_cache_bytes = int(descent_cache_bytes)
        self._row_bytes = (graph.indices.size + 1) * 8
        self._gathered_row_budget = max(
            16, self.descent_cache_bytes // self._row_bytes
        )
        self._gathered_cached_rows = 0
        self._gath_matrix: Optional[np.ndarray] = None
        self._gath_slot: Optional[np.ndarray] = None
        # The graph snapshot the gathered store is pinned to, plus the
        # per-vertex distance labels of the stale-read discipline (see
        # :meth:`take_gathered`).  Identical to ``self.graph``, and no
        # labels, until a successor takes the store over across an
        # edge update; the segment store then serves the stale reads.
        self._gath_graph: Graph = graph
        self._gath_radii: Optional[np.ndarray] = None
        self._segments: Optional[_SegmentStore] = None
        self._dense_sources: Dict[int, DenseLayer] = {}
        self._key_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def successor(self, graph: Graph, table: CountTable) -> "TreeletUrn":
        """A new urn over an updated ``(graph, table)`` pair.

        The incremental maintainer's sampling-side step: after an
        edge-update batch the table's counts (and the graph's adjacency)
        have moved, so every weight-derived structure — root alias,
        totals, shape aliases — is built afresh by the
        constructor, and draws from the successor are bit-identical to a
        from-scratch urn's.  The compiled descent program carries over
        whenever the new table holds exactly its key universe (key sets
        rarely change under a trickle of updates), so the warm path
        never recompiles; :meth:`take_gathered` then carries the
        gathered-cumulative store over too.  Equal key counts are not
        enough: a mixed batch can drop one key of a layer and gain
        another.

        This urn is not touched: it stays valid for draws still in
        flight on the old table.

        Raises :class:`SamplingError` when the updated table holds no
        colorful k-treelets (the empty-urn degradation).
        """
        program = self._program
        if program is not None:
            try:
                program.validate_for(table, digest=table_keys_digest(table))
            except ValueError:
                program = None
        return TreeletUrn(
            graph,
            table,
            self.coloring,
            registry=self.registry,
            instrumentation=self.instrumentation,
            program=program,
            descent_cache_bytes=self.descent_cache_bytes,
        )

    def take_gathered(
        self,
        previous: "TreeletUrn",
        dirty_radii: Optional[np.ndarray],
        support: Optional[Dict[int, "Support"]] = None,
    ) -> bool:
        """Take over ``previous``'s gathered-cumulative store.

        ``previous`` is the urn this one succeeds and ``dirty_radii``
        the update batch's per-vertex distance labels
        (:attr:`repro.colorcoding.incremental.DeltaResult.dirty_radii`).
        The store holds, per gathered key, the running sum of that
        key's counts over the snapshot graph's edge array.  The fused
        kernel only ever reads it *relatively* — segment-endpoint
        differences for split weights, and bisection against
        ``row[start] + t`` thresholds — so the global prefix offset of
        a row cancels out of every decision, and a stale row read
        through the snapshot's ``indptr``/``indices`` is bit-exact at
        any vertex whose adjacency is unchanged and whose neighbors'
        counts of the key's size are unchanged.  Size-``h`` counts move
        only within distance ``h - 2`` of an updated endpoint, so a
        size-``h`` segment at ``v`` can be stale only where ``v``'s
        label is below ``h``.  Labels of chained updates merge by
        elementwise minimum, and the kernel routes every stale
        ``(key, vertex)`` read through this urn's segment store —
        running sums of the *current* counts over ``v``'s *current*
        adjacency, exact by construction — in the same wave as the
        clean reads of the carried rows.

        The matrix is shared, not copied: this urn reads the rows
        cached so far and appends its own past them, while
        ``previous`` keeps reading its rows but never appends again —
        its later misses are built transiently — so two urns never
        write one row.  Call it while no draw runs on ``previous``
        (the serving plane holds the old handle's draw lock), so the
        hand-over point cannot move.

        With ``support`` — the batch's rewritten columns per layer
        size with their final counts
        (:attr:`repro.colorcoding.incremental.DeltaResult.support`) —
        this urn also takes over the dense fill sources ``previous``'s
        segment fills decoded (:meth:`_segment_source`) and copies
        those counts into their ``support`` columns, so its fills
        decode no layer again.  ``previous`` gives them up and decodes
        afresh if an in-flight draw fills again.

        Returns ``False`` and leaves both urns as they were when there
        are no labels, the program was not carried over (gathered-key
        ids would renumber), ``previous`` never materialized a store,
        or the updated counts would overflow a uint32 store.  This urn
        then starts with an empty store.
        """
        if (
            dirty_radii is None
            or self._program is None
            or self._program is not previous._program
            or previous._gath_slot is None
        ):
            return False
        snapshot = previous._gath_graph
        matrix = previous._gath_matrix
        if matrix.dtype != np.int64 and (
            self._gathered_dtype(snapshot) != matrix.dtype
        ):
            return False
        radii = np.asarray(dirty_radii, dtype=np.int8)
        if previous._gath_radii is not None:
            radii = np.minimum(previous._gath_radii, radii)
        self._gath_graph = snapshot
        self._gath_radii = radii
        self._gath_matrix = matrix
        self._gath_slot = previous._gath_slot.copy()
        self._gathered_cached_rows = previous._gathered_cached_rows
        self._gathered_row_budget = previous._gathered_row_budget
        self._row_bytes = previous._row_bytes
        previous._gathered_row_budget = previous._gathered_cached_rows
        if support is not None:
            self._take_sources(previous, support)
        return True

    def _take_sources(
        self, previous: "TreeletUrn", support: Dict[int, "Support"]
    ) -> None:
        """Carry ``previous``'s dense fill sources over to this urn's
        table: a source of a layer the batch left as it was carries as
        it is, one of a rewritten layer gets its ``support`` columns
        overwritten in place by the batch's final counts there — one
        contiguous record per column, no layer read — and one whose
        keys changed is dropped, to be decoded when next read."""
        sources, previous._dense_sources = previous._dense_sources, {}
        patched = 0
        for size, source in sources.items():
            if self.table.layer(size).keys != source.keys:
                continue
            written = support.get(size)
            if written is not None:
                source.counts.T[written.cols] = written.counts.T
                patched += int(written.cols.size)
            self._dense_sources[size] = source
        if patched:
            self.instrumentation.count(
                "segment_source_patched_columns", patched
            )

    # ------------------------------------------------------------------
    # Global quantities
    # ------------------------------------------------------------------

    @property
    def total_treelets(self) -> float:
        """t — the total number of colorful k-treelet copies in G.

        With 0-rooting each copy is stored exactly once (at its color-0
        node); without it, once per node, so the raw weight over-counts
        by a factor k (§3.2).
        """
        if self.table.zero_rooted:
            return self._total_weight
        return self._total_weight / self.k

    def shape_total(self, shape: int) -> float:
        """r_j — the number of colorful copies of free shape ``T_j``."""
        total = self._shape_totals.get(shape)
        if total is None:
            total = float(self._shape_weight_vector(shape).sum())
            if not self.table.zero_rooted:
                total /= self.k
            self._shape_totals[shape] = total
        return total

    def _shape_weight_vector(self, shape: int) -> np.ndarray:
        weights = self._shape_weights.get(shape)
        if weights is None:
            layer = self.table.layer(self.k)
            weights = np.zeros(self.table.num_vertices, dtype=np.float64)
            for rooted in self.registry.rooted_variants(shape):
                row = layer.counts_for(rooted, self._full_mask)
                if row is not None:
                    weights = weights + row
            self._shape_weights[shape] = weights
        return weights

    def _shape_alias_for(self, shape: int) -> AliasSampler:
        """The per-shape root alias table, built (and counted) lazily."""
        alias = self._shape_alias.get(shape)
        if alias is None:
            weights = self._shape_weight_vector(shape)
            if not weights.any():
                raise SamplingError(
                    f"shape {shape} has no colorful copies in the urn"
                )
            # Paper §3.3: when a new T is chosen the alias sampler must be
            # rebuilt from scratch.
            self.instrumentation.count("shape_alias_rebuilds")
            with _trace_span("urn.shape_alias", shape=shape):
                alias = self._alias_table(weights)
            self._shape_alias[shape] = alias
        return alias

    def _alias_table(self, weights: np.ndarray) -> AliasSampler:
        """An alias table over ``weights``; near-tie fallbacks to Vose's
        loop count as ``alias_fallbacks``."""
        alias = AliasSampler(weights)
        if alias.fell_back:
            self.instrumentation.count("alias_fallbacks")
        return alias

    # ------------------------------------------------------------------
    # Batched sampling
    # ------------------------------------------------------------------

    @property
    def draw_width(self) -> int:
        """Uniform-matrix width of the batched draw discipline.

        A pre-drawn batch of ``n`` samples is one ``rng.random((n,
        draw_width))`` block; callers that draw it themselves (to pass
        via ``uniforms=``) consume the generator exactly like
        :meth:`sample_batch` would.
        """
        return self._draw_width

    def sample_batch(
        self,
        n: int,
        rng: RngLike = None,
        method: str = "batched",
        uniforms: Optional[np.ndarray] = None,
    ) -> BatchSamples:
        """Draw ``n`` uniform colorful k-treelet copies at once.

        Returns ``(vertices, treelets, masks)``: an ``(n, k)`` int64
        matrix of copies (each row in the DFS order of its rooted
        treelet), the rooted treelet and the color mask per sample.

        ``method="batched"`` (default) runs the vectorized descent;
        ``method="loop"`` runs the per-sample recursion over the same
        uniform matrix — the descent's oracle, and the reference path
        the benchmarks time against.  For a fixed seed the two return
        bit-identical arrays (see the module docstring for why).  The
        batch consumes the generator as one ``rng.random((n, 3 +
        2(k-1)))`` block, filled row after row, so ``n`` draws split
        over several calls read the same stream and return the same
        rows as one call.

        ``uniforms`` supplies that block pre-drawn (shape ``(n,
        draw_width)``); ``rng`` is then untouched.  Every decision in the
        descent is made row by row from that row's slots alone, so
        concatenating the uniform blocks of several callers and splitting
        the returned rows is bit-identical to separate calls — the
        property the serving layer's request coalescing rests on.
        """
        if n < 1:
            raise SamplingError("need at least one sample")
        uniforms = self._resolve_uniforms(n, rng, uniforms)
        if method == "loop":
            out = self._sample_batch_loop(uniforms)
        elif method == "batched":
            out = self._sample_batch_vectorized(uniforms)
        else:
            raise SamplingError(f"unknown sampling method {method!r}")
        self.instrumentation.count("batched_samples", n)
        return out

    def sample_shape_batch(
        self,
        shape: int,
        n: int,
        rng: RngLike = None,
        method: str = "batched",
        uniforms: Optional[np.ndarray] = None,
    ) -> BatchSamples:
        """Draw ``n`` uniform copies of one free shape at once (AGS).

        Same contract and draw discipline as :meth:`sample_batch`
        (``uniforms=`` included), with slot 2 of each row picking the
        rooted variant instead of a table key; every returned mask is
        the full color mask.
        """
        if n < 1:
            raise SamplingError("need at least one sample")
        alias = self._shape_alias_for(shape)
        uniforms = self._resolve_uniforms(n, rng, uniforms)
        if method == "loop":
            out = self._sample_shape_batch_loop(shape, alias, uniforms)
        elif method == "batched":
            out = self._sample_shape_batch_vectorized(shape, alias, uniforms)
        else:
            raise SamplingError(f"unknown sampling method {method!r}")
        self.instrumentation.count("batched_shape_samples", n)
        return out

    def _resolve_uniforms(
        self, n: int, rng: RngLike, uniforms: Optional[np.ndarray]
    ) -> np.ndarray:
        """Draw (or validate) one batch's uniform matrix."""
        if uniforms is None:
            return ensure_rng(rng).random((n, self._draw_width))
        uniforms = np.asarray(uniforms, dtype=np.float64)
        if uniforms.shape != (n, self._draw_width):
            raise SamplingError(
                f"uniforms must have shape ({n}, {self._draw_width}), "
                f"got {uniforms.shape}"
            )
        return uniforms

    # -- per-sample reference path --------------------------------------

    def _sample_batch_loop(self, uniforms: np.ndarray) -> BatchSamples:
        n = uniforms.shape[0]
        vertices = np.empty((n, self.k), dtype=np.int64)
        treelets = np.empty(n, dtype=np.int64)
        masks = np.empty(n, dtype=np.int64)
        for i in range(n):
            row = uniforms[i]
            root = int(self._root_alias.pick_from_uniforms(row[0], row[1]))
            treelet, mask = self.table.sample_key_at(root, float(row[2]))
            copy = self._sample_copy(treelet, mask, root, _UniformRow(row, 3))
            vertices[i] = copy
            treelets[i] = treelet
            masks[i] = mask
        return vertices, treelets, masks

    def _sample_shape_batch_loop(
        self, shape: int, alias: AliasSampler, uniforms: np.ndarray
    ) -> BatchSamples:
        n = uniforms.shape[0]
        vertices = np.empty((n, self.k), dtype=np.int64)
        treelets = np.empty(n, dtype=np.int64)
        for i in range(n):
            row = uniforms[i]
            root = int(alias.pick_from_uniforms(row[0], row[1]))
            treelet = self._pick_rooted_variant_at(shape, root, float(row[2]))
            copy = self._sample_copy(
                treelet, self._full_mask, root, _UniformRow(row, 3)
            )
            vertices[i] = copy
            treelets[i] = treelet
        masks = np.full(n, self._full_mask, dtype=np.int64)
        return vertices, treelets, masks

    def _pick_rooted_variant_at(self, shape: int, root: int, u: float) -> int:
        """The rooted variant of ``shape`` at ``root``, picked with
        probability ∝ its count there by a uniform ``u`` in ``[0, 1)``
        (the loop path's slot-2 decision)."""
        variants = self.registry.rooted_variants(shape)
        if len(variants) == 1:
            return variants[0]
        layer = self.table.layer(self.k)
        weights = []
        for rooted in variants:
            row = layer.row_of(rooted, self._full_mask)
            weights.append(0.0 if row is None else layer.value_at(row, root))
        total = sum(weights)
        if total <= 0:
            raise SamplingError(f"vertex {root} roots no copies of shape {shape}")
        r = u * total
        running = 0.0
        for rooted, weight in zip(variants, weights):
            running += weight
            if r <= running:
                return rooted
        return variants[-1]

    # -- vectorized path -------------------------------------------------

    def _sample_batch_vectorized(self, uniforms: np.ndarray) -> BatchSamples:
        roots = self._root_alias.pick_from_uniforms(
            uniforms[:, 0], uniforms[:, 1]
        )
        rows = self.table.sample_key_rows_batch(roots, uniforms[:, 2])
        treelet_arr, mask_arr = self._size_k_key_arrays()
        treelets = treelet_arr[rows]
        masks = mask_arr[rows]
        vertices = self._descend_batch(treelets, masks, roots, uniforms)
        return vertices, treelets, masks

    def _sample_shape_batch_vectorized(
        self, shape: int, alias: AliasSampler, uniforms: np.ndarray
    ) -> BatchSamples:
        roots = alias.pick_from_uniforms(uniforms[:, 0], uniforms[:, 1])
        treelets = self._pick_rooted_variants_batch(
            shape, roots, uniforms[:, 2]
        )
        masks = np.full(roots.shape, self._full_mask, dtype=np.int64)
        vertices = self._descend_batch(treelets, masks, roots, uniforms)
        return vertices, treelets, masks

    def _size_k_key_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The size-k layer's keys as parallel (treelet, mask) arrays."""
        if self._key_arrays is None:
            keys = self.table.layer(self.k).keys
            self._key_arrays = (
                np.array([key[0] for key in keys], dtype=np.int64),
                np.array([key[1] for key in keys], dtype=np.int64),
            )
        return self._key_arrays

    def _pick_rooted_variants_batch(
        self, shape: int, roots: np.ndarray, us: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`_pick_rooted_variant_at` over many roots."""
        variants = self.registry.rooted_variants(shape)
        if len(variants) == 1:
            return np.full(roots.shape, variants[0], dtype=np.int64)
        layer = self.table.layer(self.k)
        weights = np.zeros((roots.size, len(variants)), dtype=np.float64)
        for j, rooted in enumerate(variants):
            row = layer.row_of(rooted, self._full_mask)
            if row is not None:
                weights[:, j] = layer.values_at(
                    np.asarray([row], dtype=np.int64), roots
                )[0]
        cumulative = np.cumsum(weights, axis=1)
        totals = cumulative[:, -1]
        if np.any(totals <= 0):
            bad = int(roots[np.argmax(totals <= 0)])
            raise SamplingError(
                f"vertex {bad} roots no copies of shape {shape}"
            )
        targets = us * totals
        # Scalar rule "first j with r <= running_j" = count of running < r.
        chosen = (cumulative < targets[:, None]).sum(axis=1)
        chosen = np.minimum(chosen, len(variants) - 1)
        return np.asarray(variants, dtype=np.int64)[chosen]

    def descent_program(self) -> DescentProgram:
        """The urn's compiled descent program, compiling on first need.

        Pure ``(registry, table)`` metadata — deterministic, so it can be
        compiled once, stored in the table artifact, and handed back via
        the ``program=`` constructor argument; urns opened that way never
        compile (``descent_plan_compiles`` stays at zero).
        """
        if self._program is None:
            with self.instrumentation.timer("descent_plan_compile"):
                self._program = compile_program(self.registry, self.table)
            self.instrumentation.count("descent_plan_compiles")
        return self._program

    # -- gathered-cumulative store ---------------------------------------

    def _gathered_dtype(self, snapshot: Graph) -> np.dtype:
        """Narrowest exact integer dtype for the gathered running sums.

        A gathered row's largest entry is bounded by ``max_count · 2m``
        over layers ``1..k-1`` (only ``T''`` layers feed gathered rows —
        never the big size-k layer) and the ``2m`` edge entries of the
        ``snapshot`` graph the rows run over; when that fits uint32 the
        store halves its memory traffic, else it widens to int64.
        """
        largest = 0.0
        for size in range(1, self.k):
            largest = max(largest, self.table.layer(size).max_value())
        bound = largest * snapshot.indices.size
        return np.dtype(np.uint32) if bound < 2**32 else np.dtype(np.int64)

    def _ensure_gathered(self) -> None:
        """Allocate the store once: one row per gathered key up to the
        row budget, uninitialized, so only written rows become
        resident and a successor appending rows never copies it."""
        if self._gath_slot is None:
            program = self._program
            self._gath_slot = np.full(
                program.num_gathered_keys, -1, dtype=np.int64
            )
            self._gath_matrix = np.empty(
                (
                    min(program.num_gathered_keys, self._gathered_row_budget),
                    self._gath_graph.indices.size + 1,
                ),
                dtype=self._gathered_dtype(self._gath_graph),
            )

    def _fill_gathered_rows(self, gks: np.ndarray, out: np.ndarray) -> None:
        """Fill ``out[i]`` with gathered key ``gks[i]``'s row: a leading
        zero, then the running sum of the key's counts gathered over the
        snapshot's edge list.

        In place, row by row: the key's counts cast once to the store's
        integer dtype (counts are integer-valued floats, and dtype
        selection bounds every running sum, so the cast and the sums are
        exact), one ``take`` along the edge array into the row, then an
        in-place running sum — the same integers an int64 ``cumsum``
        gives.  Row by row keeps each freshly written row in cache for
        its running sum; a whole-layer ``take`` measured slower.
        """
        program = self._program
        indices = self._gath_graph.indices
        out[:, 0] = 0
        for gk, target in zip(gks.tolist(), out):
            layer = self.table.layer(int(program.gk_size[gk]))
            source = layer.row_values(int(program.gk_row[gk]))
            running = target[1:]
            np.take(
                source.astype(out.dtype), indices, out=running, mode="clip"
            )
            np.cumsum(running, dtype=out.dtype, out=running)

    def _gathered_rows(self, gkids: np.ndarray) -> _WaveRows:
        """Gathered-cumulative rows for gathered-key ids: ``(matrix,
        slot_of, built)`` with ``matrix[slot_of[gk]]`` holding key
        ``gk``'s row wherever ``slot_of[gk] >= 0``.

        For any vertex ``v`` the slice ``[indptr[v]+1 : indptr[v+1]+1]``
        minus the entry at ``indptr[v]`` is exactly the per-neighbor
        running sum the loop path computes with
        ``cumsum(counts[neighbors])``, and the difference of the slice
        endpoints is the neighbor total.

        Rows are built once (one ``O(m)`` pass each) into the global
        store shared by all layers, capped at ``descent_cache_bytes``;
        once full — or once a successor took the store over
        (:meth:`take_gathered`) — the rows a wave misses are built into
        a transient per-call matrix instead (same arithmetic, nothing
        retained, counted as ``gathered_budget_fallbacks``), so
        resident memory stays bounded on paper-scale graphs: ``built``
        is then ``(transient, built_of)`` with ``transient[built_of[gk]]``
        holding those rows, else ``None``.  The cached rows are read
        from the store in place either way.
        """
        self._ensure_gathered()
        slot = self._gath_slot
        if not (slot[gkids] < 0).any():
            return self._gath_matrix, slot, None
        with self.instrumentation.timer("sample_gather"), \
                _trace_span("sample.gather"):
            flat = gkids.ravel()
            missing = np.unique(flat[slot[flat] < 0])
            matrix = self._gath_matrix
            room = min(self._gathered_row_budget, matrix.shape[0]) - (
                self._gathered_cached_rows
            )
            to_cache = missing[: max(room, 0)]
            if to_cache.size:
                first = self._gathered_cached_rows
                last = first + int(to_cache.size)
                self._fill_gathered_rows(to_cache, matrix[first:last])
                slot[to_cache] = np.arange(first, last, dtype=np.int64)
                self._gathered_cached_rows = last
                self.instrumentation.count(
                    "gathered_cumulative_builds", int(to_cache.size)
                )
            if to_cache.size < missing.size:
                self.instrumentation.count("gathered_budget_fallbacks")
                build = missing[to_cache.size:]
                transient = np.empty(
                    (build.size, matrix.shape[1]), dtype=matrix.dtype
                )
                self._fill_gathered_rows(build, transient)
                built_of = np.full(slot.size, -1, dtype=np.int64)
                built_of[build] = np.arange(build.size, dtype=np.int64)
                self.instrumentation.count(
                    "gathered_transient_builds", int(build.size)
                )
                return matrix, slot, (transient, built_of)
        return matrix, slot, None

    # -- segment store (stale reads of a carried store) -------------------

    def _segment_bases(
        self, gks: np.ndarray, verts: np.ndarray
    ) -> np.ndarray:
        """Segment-store bases of the ``(gks[i], verts[i])`` pairs,
        filling the pairs read for the first time.

        A store past the byte budget left beside the cached rows is
        cleared at its next fill, which then refills every pair asked
        for.
        """
        store = self._segments
        if store is None:
            store = self._segments = _SegmentStore(
                self.graph.num_vertices, self._program.num_gathered_keys
            )
        bases = store.find(gks, verts)
        if (bases >= 0).all():
            return bases
        keys = gks * np.int64(self.graph.num_vertices) + verts
        fill = self._segment_values(np.unique(keys[bases < 0]))
        if self._segment_room() < 0 or not store.below_limit(fill[3]):
            store.clear()
            fill = self._segment_values(np.unique(keys))
            if not store.below_limit(fill[3]):
                raise SamplingError(
                    "neighbor sums too large for exact int64 running sums"
                )
        store.append(*fill)
        self.instrumentation.count("gathered_segment_fills", int(fill[0].size))
        self.instrumentation.count(
            "gathered_segment_entries", int(fill[3].size)
        )
        return store.find(gks, verts)

    def _segment_room(self) -> int:
        """Budget bytes left beside the cached rows, the segment store
        and the dense fill sources."""
        used = self._gathered_cached_rows * self._row_bytes + sum(
            source.counts.nbytes for source in self._dense_sources.values()
        )
        if self._segments is not None:
            used += self._segments.nbytes
        return self.descent_cache_bytes - used

    def _segment_source(self, size: int) -> LayerView:
        """Where segment fills read size-``size`` counts: the table's
        layer, or a dense copy of a succinct one while the budget holds
        it, so fills gather instead of binary-searching records.  Each
        copy is decoded once (``segment_source_decodes``) and passes to
        the successor urn with the store (:meth:`take_gathered`).  It
        is held vertex-major, one contiguous record per vertex, so a
        hand-over rewrites a column as one row."""
        source = self._dense_sources.get(size)
        if source is not None:
            return source
        layer = self.table.layer(size)
        if layer.layout == "dense" or (
            8 * layer.num_keys * layer.num_vertices > self._segment_room()
        ):
            return layer
        records = np.zeros(
            (layer.num_vertices, layer.num_keys), dtype=np.float64
        )
        _write_records(
            records, layer, np.arange(layer.num_vertices, dtype=np.int64)
        )
        source = DenseLayer(size, layer.keys, records.T)
        self.instrumentation.count("segment_source_decodes")
        self._dense_sources[size] = source
        return source

    def _segment_values(self, keys: np.ndarray) -> Tuple[np.ndarray, ...]:
        """``(gks, verts, degrees, values)`` of packed ``gk · n + v``
        pairs, sorted by layer size: each pair's current counts over
        ``v``'s current adjacency, back to back in that order."""
        program = self._program
        graph = self.graph
        gks, verts = np.divmod(keys, np.int64(graph.num_vertices))
        order = np.argsort(program.gk_size[gks], kind="stable")
        gks, verts = gks[order], verts[order]
        sizes = program.gk_size[gks]
        starts = graph.indptr[verts]
        degrees = graph.indptr[verts + 1] - starts
        bounds = np.concatenate(([0], np.cumsum(degrees)))
        neighbors = graph.indices[
            np.repeat(starts - bounds[:-1], degrees)
            + np.arange(int(bounds[-1]), dtype=np.int64)
        ]
        rows = np.repeat(program.gk_row[gks], degrees)
        values = np.empty(neighbors.size, dtype=np.float64)
        for size in np.unique(sizes).tolist():
            first, last = np.searchsorted(sizes, (size, size + 1))
            lo, hi = bounds[first], bounds[last]
            values[lo:hi] = self._segment_source(size).pairs_at(
                rows[lo:hi], neighbors[lo:hi]
            )
        return gks, verts, degrees, values

    # -- fused descent kernel --------------------------------------------

    def _descend_batch(
        self,
        treelets: np.ndarray,
        masks: np.ndarray,
        roots: np.ndarray,
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """Materialize every sample's copy by replaying the program.

        Level-synchronous frontier: every sample starts at its plan's
        root in the program's node table; each wave resolves leaves into
        the output matrix and splits the internal items into their two
        children via one fused pass over the whole frontier
        (:meth:`_fused_wave`).  Waves = decomposition-tree depth ≤ k - 1.
        """
        program = self.descent_program()
        n = treelets.shape[0]
        out = np.empty((n, self.k), dtype=np.int64)
        try:
            gids = program.plan_root_ids(np.asarray(treelets, dtype=np.int64))
        except ValueError as exc:
            raise SamplingError(str(exc)) from exc
        is_leaf = program.node_is_leaf
        leaf_col = program.node_leaf_col
        node_rank = program.node_rank
        node_op = program.node_op
        left = program.node_left
        right = program.node_right
        samples = np.arange(n, dtype=np.int64)
        masks = masks.astype(np.int64)
        verts = np.asarray(roots, dtype=np.int64)

        with self.instrumentation.timer("sample_descent"):
            while samples.size:
                at_leaf = is_leaf[gids]
                if at_leaf.any():
                    hit = np.flatnonzero(at_leaf)
                    out[samples[hit], leaf_col[gids[hit]]] = verts[hit]
                    keep = ~at_leaf
                    samples, gids = samples[keep], gids[keep]
                    masks, verts = masks[keep], verts[keep]
                    if not samples.size:
                        break
                ranks = node_rank[gids]
                split_u = uniforms[samples, 3 + 2 * ranks]
                child_u = uniforms[samples, 4 + 2 * ranks]
                with _trace_span("descent.wave"):
                    sub_masks, children = self._fused_wave(
                        program, node_op[gids], masks, verts, split_u,
                        child_u,
                    )
                samples = np.concatenate([samples, samples])
                gids = np.concatenate([left[gids], right[gids]])
                verts = np.concatenate([verts, children])
                masks = np.concatenate([masks ^ sub_masks, sub_masks])
        return out

    def _fused_wave(
        self,
        program: DescentProgram,
        ops: np.ndarray,
        masks: np.ndarray,
        verts: np.ndarray,
        split_u: np.ndarray,
        child_u: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Color-split and child-endpoint choice for one whole wave.

        Mirrors the scalar recursion decision by decision, but across
        every ``(T', T'', mask)`` group of the frontier at once: group
        candidate lists pad to a ``(Lmax, wave)`` matrix (padded lanes
        duplicate a group's last real candidate, then keep exact-0.0
        weight, so prefix sums are untouched); weights are
        ``c(T'_{C\\C''}, v) · S(T''_{C''}, v)``.  Only *admissible*
        candidates — real lanes whose ``C''`` leaves out ``v``'s own
        color — can have a positive prime factor, so the prime factor
        is point-gathered per layer (``pairs_at``) at those alone, and
        the second factor is read as integer endpoint differences off
        the gathered store only where the prime factor is positive:
        :meth:`_gathered_rows` is asked for those keys alone, and every
        other entry keeps the exact ``+0.0`` the scalar recursion skips
        it with.  The winner is the first included candidate whose
        running weight reaches ``u · total`` (same ``1e-300`` tie
        epsilon), and the child endpoint inverts the gathered running
        sums by bisection against the exact integer threshold
        ``G[start] + floor(u · s)`` — identical, comparison by
        comparison, to the scalar ``searchsorted`` rule.  On a carried
        store, lanes the updates may have staled read ``S`` and invert
        their child off the segment store instead
        (:meth:`_segment_bases`), under the same integer rules.
        """
        gids = ops << self.k | masks
        start, length = program.group_bounds(gids)
        if np.any(length <= 0):
            bad = int(verts[np.argmax(length <= 0)])
            raise SamplingError(
                "inconsistent table: no valid split for treelet at "
                f"vertex {bad}"
            )
        lmax = int(length.max())
        lane = np.arange(lmax, dtype=np.int64)[:, None]
        valid = lane < length[None, :]
        cand = start[None, :] + np.minimum(lane, (length - 1)[None, :])

        # Admissible candidates: real lanes whose C'' leaves out v's own
        # color.  Every copy of T'_{C\C''} rooted at v contains v, so
        # anywhere else the prime factor is zero and the split cannot
        # weigh.  ``pairs`` are their flat positions in the (Lmax, wave)
        # matrices.
        own = np.left_shift(np.int64(1), self.coloring.colors[verts])
        pairs = np.flatnonzero(
            valid & ((program.cand_sub[cand] & own) == 0)
        )
        pair_lane = pairs % verts.size
        pair_cand = cand.ravel()[pairs]
        prime_rows = program.cand_prime_row[pair_cand]
        prime_sizes = program.op_prime_size[ops]
        pair_sizes = prime_sizes[pair_lane]
        prime = np.empty(pairs.size, dtype=np.float64)
        for size in np.unique(prime_sizes).tolist():
            sel = pair_sizes == size
            prime[sel] = self.table.layer(size).pairs_at(
                prime_rows[sel], verts[pair_lane[sel]]
            )
        # Only a positive prime factor can weigh anything, so only those
        # pairs read (or build, or fill) the second factor S.
        hot = prime > 0.0
        pairs, pair_lane, prime = pairs[hot], pair_lane[hot], prime[hot]
        pair_verts = verts[pair_lane]
        second_gk = program.cand_second_gkid[pair_cand[hot]]

        # Gathered rows are pinned to the snapshot graph: segment bounds
        # and (later) child positions must come from the SAME arrays the
        # rows were accumulated over.  On a carried store, lanes whose
        # size-h'' segment may have drifted from the live graph/table
        # (distance label below h'') read the segment store instead —
        # exact running sums over the current adjacency.
        stale = None
        if self._gath_radii is not None:
            stale = self._gath_radii[verts] < program.op_second_size[ops]
            if not stale.any():
                stale = None
        indptr = self._gath_graph.indptr
        if stale is None:
            rows = self._gathered_rows(second_gk)
            s_pairs = _segment_sums(
                rows, second_gk, indptr[pair_verts], indptr[pair_verts + 1]
            )
        else:
            s_pairs = np.empty(pairs.size, dtype=np.int64)
            dirty_pair = stale[pair_lane]
            clean_pair = ~dirty_pair
            clean_gk = second_gk[clean_pair]
            clean_verts = pair_verts[clean_pair]
            rows = self._gathered_rows(clean_gk)
            s_pairs[clean_pair] = _segment_sums(
                rows, clean_gk, indptr[clean_verts], indptr[clean_verts + 1]
            )
            dirty_verts = pair_verts[dirty_pair]
            pair_bases = self._segment_bases(
                second_gk[dirty_pair], dirty_verts
            )
            degrees = (
                self.graph.indptr[dirty_verts + 1]
                - self.graph.indptr[dirty_verts]
            )
            cum = self._segments.cum
            s_pairs[dirty_pair] = cum[pair_bases + degrees] - cum[pair_bases]

        s_vals = np.zeros(cand.shape, dtype=np.int64)
        s_vals.ravel()[pairs] = s_pairs
        weights = np.zeros(cand.shape, dtype=np.float64)
        weights.ravel()[pairs] = prime * s_pairs.astype(np.float64)
        included = weights > 0.0
        cumulative = np.cumsum(weights, axis=0)
        totals = cumulative[-1]
        if np.any(totals <= 0.0):
            bad = int(verts[np.argmax(totals <= 0.0)])
            raise SamplingError(
                "inconsistent table: no valid split for treelet at "
                f"vertex {bad}"
            )
        targets = split_u * totals
        # Scalar rule: first *included* candidate whose running sum
        # satisfies r <= cum + eps, i.e. the count of included candidates
        # with cum + eps < r; overflow falls back to the last included
        # candidate, exactly like the scalar loop.
        rank = (
            ((cumulative + _SPLIT_EPS) < targets[None, :]) & included
        ).sum(axis=0)
        rank = np.minimum(rank, included.sum(axis=0) - 1)
        included_order = np.cumsum(included, axis=0)
        position = np.argmax(included_order == (rank + 1)[None, :], axis=0)

        lanes = np.arange(verts.size, dtype=np.int64)
        chosen = cand[position, lanes]
        chosen_s = s_vals[position, lanes].astype(np.float64)
        # The scalar child rule counts running sums <= u·s; running sums
        # are integers, so that equals counting <= floor(u·s) — an exact
        # int64 threshold against the absolute running sums.
        offsets = np.floor(child_u * chosen_s).astype(np.int64)
        chosen_gk = program.cand_second_gkid[chosen]
        if stale is None:
            children = self._invert_children(
                rows, chosen_gk, indptr[verts], indptr[verts + 1], offsets
            )
        else:
            children = np.empty(verts.size, dtype=np.int64)
            clean = np.flatnonzero(~stale)
            if clean.size:
                clean_verts = verts[clean]
                children[clean] = self._invert_children(
                    rows, chosen_gk[clean], indptr[clean_verts],
                    indptr[clean_verts + 1], offsets[clean],
                )
            # The segment store is one nondecreasing running sum, so
            # one search inverts every stale lane; the clamp mirrors
            # the scalar ``min(position, d - 1)`` guard.
            dirty = np.flatnonzero(stale)
            dirty_verts = verts[dirty]
            live_start = self.graph.indptr[dirty_verts]
            degrees = self.graph.indptr[dirty_verts + 1] - live_start
            base = self._segments.find(chosen_gk[dirty], dirty_verts)
            found = np.searchsorted(
                cum[: self._segments.used],
                cum[base] + offsets[dirty],
                side="right",
            )
            children[dirty] = self.graph.indices[
                live_start + np.minimum(found - base - 1, degrees - 1)
            ]
        self.instrumentation.count("batched_child_draws", verts.size)
        return program.cand_sub[chosen], children

    def _invert_children(
        self,
        rows: _WaveRows,
        gks: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray:
        """Per-sample bisection over gathered rows: the child endpoint.

        Lane ``i`` inverts the running sums of its chosen gathered key
        ``gks[i]`` at the integer threshold ``G[starts[i]] +
        offsets[i]``, finding the first position in the adjacency
        segment ``[starts+1, ends+1)`` whose running sum exceeds it —
        ``O(n · log Δ)`` full-array passes instead of the ``O(Σ deg)``
        flattened sweep, with every comparison exact in int64.  Lanes
        are split once by the matrix holding their row.  The clamp
        keeps the midpoint in bounds for already-converged lanes; the
        final clamp mirrors the scalar ``min(position, d - 1)`` guard.
        """
        children = np.empty(gks.size, dtype=np.int64)
        for gathered, slots, where in _split_rows(rows, gks):
            lanes = slice(None) if where is None else where
            first, last = starts[lanes], ends[lanes]
            thresholds = (
                gathered[slots, first].astype(np.int64) + offsets[lanes]
            )
            lo = first + 1
            hi = last + 1
            limit = gathered.shape[1] - 1
            active = lo < hi
            while active.any():
                mid = np.minimum((lo + hi) >> 1, limit)
                below = gathered[slots, mid] <= thresholds
                lo = np.where(active & below, mid + 1, lo)
                hi = np.where(active & ~below, mid, hi)
                active = lo < hi
            positions = np.minimum(lo - first - 1, last - first - 1)
            children[lanes] = self._gath_graph.indices[first + positions]
        return children

    # ------------------------------------------------------------------
    # Copy materialization (§2.2 recursion)
    # ------------------------------------------------------------------

    def _sample_copy(
        self, treelet: int, mask: int, v: int, draws
    ) -> List[int]:
        """Materialize one uniform copy of ``T_C`` rooted at ``v``.

        Recursion over the unique decomposition: choose the color split and
        the child endpoint with probability ∝ c(T'_{C'}, v)·c(T''_{C''}, u),
        then recurse on both parts.  Disjoint colors guarantee the parts
        are vertex-disjoint, so the union is a valid copy.

        ``draws`` is anything with a ``random()`` method — a
        :class:`_UniformRow` on the ``method="loop"`` path.  Each child
        endpoint costs one Θ(d_v) sweep over ``v``'s neighbors, counted as
        ``neighbor_sweeps``.
        """
        if treelet == 0:  # SINGLETON
            return [v]
        t_prime, t_second, _beta = self.registry.decomposition(treelet)
        h_second = getsize(t_second)
        layer_prime = self.table.layer(getsize(t_prime))
        layer_second = self.table.layer(h_second)
        neighbors = self.graph.neighbors(v)

        splits: List[Tuple[int, int, np.ndarray, float]] = []
        weights: List[float] = []
        for sub_mask in iter_subsets_of_size(mask, h_second):
            row_second = layer_second.row_of(t_second, sub_mask)
            if row_second is None:
                continue
            row_prime = layer_prime.row_of(t_prime, mask ^ sub_mask)
            if row_prime is None:
                continue
            count_prime = layer_prime.value_at(row_prime, v)
            if count_prime <= 0.0:
                continue
            neighbor_counts = layer_second.values_at(
                np.asarray([row_second], dtype=np.int64), neighbors
            )[0]
            neighbor_total = float(neighbor_counts.sum())
            if neighbor_total <= 0.0:
                continue
            splits.append((sub_mask, mask ^ sub_mask, neighbor_counts, neighbor_total))
            weights.append(count_prime * neighbor_total)

        if not splits:
            raise SamplingError(
                f"inconsistent table: no valid split for treelet at vertex {v}"
            )
        total = sum(weights)
        r = draws.random() * total
        running = 0.0
        chosen = splits[-1]
        for split, weight in zip(splits, weights):
            running += weight
            if r <= running + _SPLIT_EPS:
                chosen = split
                break
        sub_mask, prime_mask, neighbor_counts, neighbor_total = chosen

        self.instrumentation.count("neighbor_sweeps")
        r = draws.random() * neighbor_total
        neighbor_running = np.cumsum(neighbor_counts)
        position = int(np.searchsorted(neighbor_running, r, side="right"))
        u = int(neighbors[min(position, neighbors.size - 1)])
        left = self._sample_copy(t_prime, prime_mask, v, draws)
        right = self._sample_copy(t_second, sub_mask, u, draws)
        return left + right
