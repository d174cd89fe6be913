"""Incremental maintenance of count tables under edge updates.

Today's pipeline treats the count table as write-once: any edge change
invalidates :meth:`~repro.graph.graph.Graph.fingerprint` and forces a
full color-coding rebuild.  This module instead maintains the table as a
**materialized view** of the Equation (1) dynamic program: a batch of
edge insertions/deletions re-runs the batched combination plans only on
the *touched-column frontier*, and the result is bit-identical to a
fresh rebuild on the updated graph under the same coloring.

Touched-column frontier.  ``c(T_C, v)`` at level ``h`` reads level
``h' < h`` counts at ``v`` itself and neighbor sums at ``u ~ v``, so a
changed edge ``(a, b)`` can only perturb level-``h`` columns within
distance ``h - 2`` of an endpoint (level 2 changes at the endpoints
alone; each level adds one hop).  The frontier is grown over the
**union** of the old and new adjacency: a deleted edge no longer exists
in the new graph, but the stale contribution it used to carry still
propagates outward along it, so both incidence structures bound the
blast radius.  Level 1 (the per-color indicator rows) never changes
under pure edge updates.

Bit-identity.  Each level is the shared level step
(:func:`repro.colorcoding.level.execute_level`) run on the frontier
columns, with neighbor sums gathered from the halo of the live layers
(:class:`~repro.colorcoding.level.HaloSums`), so the recomputed columns
hold exactly the bytes a full run puts there (see that module).  Counts
are nonnegative, so the fresh build's keep test ("row sum > 0")
decomposes exactly into *any nonzero outside the frontier* (old data,
unchanged by induction) OR *any nonzero inside* (the recomputed block)
— the keep sets agree, and with them the layer key lists, the rows
every later level reads from them, and the sealed CSR records.

Frontier cost.  Untouched columns are untouched bytes, no level sorts
or searches the whole table, and no update decodes a record twice:

* the balls grow ring by ring off a visited mask;
* levels read dense layers in place, and succinct layers from blocks
  decoded once per update over the *read window* — the widest frontier
  plus its halo, one ring past the balls — each successor layer's
  block patched from the level output
  (:class:`~repro.colorcoding.level.LiveColumns`);
* a dense level is one contiguous copy of the old matrix with the
  frontier columns patched (the live matrix itself with ``in_place``),
  its row totals carried over so the keep test does not rescan it; a
  level whose keys are born or die then remaps its rows;
* a succinct level splices its records by length
  (:meth:`~repro.table.count_table.SuccinctLayer.spliced`): the new
  ``indptr`` sums the old record lengths off the frontier and the
  recomputed nonzeros on it, untouched records move over through two
  masks, and key rows go through the monotone keep map only when the
  key set changed.

Telemetry: ``count.delta_updates_total`` (edge changes applied),
``count.delta_rows_touched`` (frontier columns summed over levels) and
``time.delta_propagate`` accumulate into the caller's instrumentation —
names deliberately distinct from the build counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.level import (
    HaloSums,
    LiveColumns,
    MemoryBudget,
    execute_level,
    row_edges,
    sorted_distinct,
)
from repro.colorcoding.plans import compile_plans, level_source_sizes
from repro.errors import BuildError
from repro.graph.graph import Graph, change_rows
from repro.table.count_table import (
    CountTable,
    Layer,
    LayerView,
)
from repro.treelets.registry import TreeletRegistry
from repro.util.instrument import Instrumentation

__all__ = ["DeltaResult", "apply_edge_updates", "touched_frontiers"]

Key = Tuple[int, int]


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
        Frontier columns recomputed, summed over levels ``2..k`` — the
        work measure the update/rebuild speedup scales with.
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
        straight off the frontier balls — no search of its own.
    changes:
        The batch's effective edge changes as ``(±1, u, v)`` rows
        (:func:`repro.graph.graph.change_rows`) — what an artifact's
        edge log persists.
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
        }


def touched_frontiers(
    old_graph: Graph, new_graph: Graph, endpoints: np.ndarray, k: int
) -> List[np.ndarray]:
    """Balls of radius ``0 .. k-2`` around the updated endpoints.

    Grown over the union of old and new adjacency (see the module
    docstring); entry ``r`` is the sorted vertex set within distance
    ``r``, and level ``h`` of the delta recomputes exactly entry
    ``h - 2``.
    """
    return _balls(old_graph, new_graph, endpoints, max(k - 2, 0))


def _balls(
    old_graph: Graph, new_graph: Graph, endpoints: np.ndarray, radius: int
) -> List[np.ndarray]:
    """Balls of radius ``0 .. radius`` over the union adjacency.

    Each ring grows from the newest ring alone: its neighbors not yet
    in the visited mask form the next ring, merged into the sorted ball
    — work proportional to the ball's edges, not radius times them.
    """
    ring = np.unique(np.asarray(endpoints, dtype=np.int64))
    visited = np.zeros(new_graph.num_vertices, dtype=bool)
    visited[ring] = True
    slot = np.empty(new_graph.num_vertices, dtype=np.int64)
    balls = [ring]
    for _radius in range(radius):
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


def _remapped(
    old_counts: np.ndarray,
    kept_rows: np.ndarray,
    old_kept: np.ndarray,
    num_kept: int,
    cols: np.ndarray,
    block: np.ndarray,
) -> np.ndarray:
    """A successor matrix over a changed key set: the old rows
    ``old_kept`` moved to rows ``kept_rows``, born keys' rows zero, and
    the columns ``cols`` set to ``block``."""
    counts = np.zeros((num_kept, old_counts.shape[1]), dtype=np.float64)
    if old_kept.size:
        counts[kept_rows] = old_counts[old_kept]
    counts[:, cols] = block
    return counts


def _patched_layer(
    h: int,
    old_layer: LayerView,
    candidate_keys: List[Key],
    out_block: np.ndarray,
    cols: np.ndarray,
    live: LiveColumns,
    in_place: bool = False,
) -> LayerView:
    """Splice the recomputed frontier columns into the level's layer.

    ``candidate_keys`` is the level's sorted key universe and
    ``out_block`` its recomputed counts at the frontier ``cols``.  The
    keep set decomposes exactly (module docstring): a key stays when it
    has a nonzero off the frontier or one in ``out_block``.

    Dense layers are patched first — in place when the caller owns the
    table (``in_place``, writable matrix), else one contiguous copy
    patched (:meth:`DenseLayer.patched`) — so the successor's row
    totals carry over exactly (counts are integer-valued floats) and
    its keep test is the fresh build's, ``row total > 0``.  A changed
    key set then remaps the patched rows.  Succinct layers count a
    key's pairs off the frontier as its stored pairs minus its frontier
    pairs and splice their records by length
    (:meth:`SuccinctLayer.spliced`); below size ``k`` — a source of
    later levels — their block over ``live``'s window is the old
    layer's, decoded once, with the same rows kept and the frontier
    columns patched from ``out_block``.
    """
    candidate_rows = {key: i for i, key in enumerate(candidate_keys)}
    old_cand = np.asarray(
        [candidate_rows[key] for key in old_layer.keys], dtype=np.int64
    ).reshape(old_layer.num_keys)

    keep = (out_block > 0.0).any(axis=1)
    if old_layer.layout == "dense":
        old_rows = (
            out_block if old_cand.size == keep.size else out_block[old_cand]
        )
        if in_place and old_layer.counts.flags.writeable:
            # Caller owns the table: patch the live matrix.
            successor = old_layer
            successor.patch_columns(cols, old_rows)
        else:
            successor = old_layer.patched(cols, old_rows)
        keep[old_cand] |= successor.row_totals() > 0.0
    else:
        num_keys = old_layer.num_keys
        frontier_pairs = old_layer.key_row[
            row_edges(old_layer.indptr, cols)[1]
        ]
        keep[old_cand] |= (
            np.bincount(old_layer.key_row, minlength=num_keys)
            - np.bincount(frontier_pairs, minlength=num_keys)
        ) > 0
    kept = np.flatnonzero(keep)
    kept_keys = [candidate_keys[i] for i in kept]
    unchanged = kept_keys == old_layer.keys
    if unchanged and old_layer.layout == "dense":
        return successor
    kept_pos = np.full(len(candidate_keys), -1, dtype=np.int64)
    kept_pos[kept] = np.arange(kept.size, dtype=np.int64)
    # Old rows of kept keys and their successor rows (monotone).
    old_kept = np.flatnonzero(keep[old_cand])
    kept_rows = kept_pos[old_cand[old_kept]]
    sub = out_block if kept.size == keep.size else out_block[kept]

    if old_layer.layout == "dense":
        return Layer(
            h, kept_keys,
            _remapped(
                successor.counts, kept_rows, old_kept, kept.size, cols, sub
            ),
        )
    if h < live.table.k:
        block = live.decode(old_layer)
        local = np.searchsorted(live.window, cols)
        if unchanged:
            block[local] = sub.T
        else:
            block = np.ascontiguousarray(_remapped(
                block.T, kept_rows, old_kept, kept.size, local, sub
            ).T)
        live.blocks[h] = block
    # Carried records hold only keys with a nonzero off the frontier,
    # i.e. kept keys, so the remap never reads a -1.
    return old_layer.spliced(
        kept_keys, None if unchanged else kept_pos[old_cand], cols, sub
    )


def apply_edge_updates(
    table: CountTable,
    graph: Graph,
    updates,
    coloring: ColoringScheme,
    registry: Optional[TreeletRegistry] = None,
    instrumentation: Optional[Instrumentation] = None,
    in_place: bool = False,
) -> DeltaResult:
    """Maintain a count table under a batch of edge updates.

    Parameters
    ----------
    table:
        The table built on ``graph`` under ``coloring`` (any layout).
        With ``in_place=False`` it is not mutated; the result carries a
        fresh table sharing the unchanged layer-1 object.  With
        ``in_place=True`` the caller relinquishes it: dense levels whose
        key set is unchanged are patched in the live matrices (the
        steady-state trickle fast path — column-local work instead of
        matrix copies), so the input table must not be read afterwards.
        Read-only (memory-mapped) or key-changing levels silently fall
        back to the copying path either way.
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

    with instrumentation.timer("delta_propagate"):
        added, removed, endpoints = graph.resolve_updates(updates)
        if endpoints.size == 0:
            return DeltaResult(table, graph, endpoints, 0, 0, 0, 0)
        new_graph, _touched = graph.apply_updates(updates)
        # Succinct source layers are read from blocks over the widest
        # frontier plus its halo: one ring past the frontier balls.
        decoded = any(
            table.layer(size).layout == "succinct" for size in range(1, k)
        )
        balls = _balls(
            graph, new_graph, endpoints, max(k - 2, 0) + int(decoded)
        )
        frontiers = balls[: max(k - 1, 1)]
        adjacency = new_graph.adjacency_csr()
        compiled = compile_plans(registry)

        new_table = CountTable(k, n, zero_rooted=table.zero_rooted)
        new_table.set_layer(table.layer(1))
        live = LiveColumns(new_table, balls[-1] if decoded else None)
        if new_table.layer(1).layout == "succinct":
            live.blocks[1] = live.decode(new_table.layer(1))
        budget = MemoryBudget()
        rows_touched = 0
        for h in range(2, k + 1):
            cols = frontiers[h - 2]
            rows_touched += cols.size
            sources = CountTable(k, cols.size, False)
            for size in level_source_sizes(registry, h):
                sources.set_layer(Layer(
                    size, list(new_table.layer(size).keys),
                    np.ascontiguousarray(live.read(size, 0, cols)),
                ))
            out = execute_level(
                h, registry, table.zero_rooted,
                np.ascontiguousarray(coloring.colors[cols]), sources,
                HaloSums(
                    adjacency, cols, sources, live, budget, instrumentation
                ),
            )
            new_table.set_layer(
                _patched_layer(
                    h, table.layer(h), list(compiled[h].keys), out, cols,
                    live, in_place=in_place,
                )
            )
            del out
        instrumentation.count(
            "delta_updates_total", int(added.size + removed.size)
        )
        instrumentation.count("delta_rows_touched", rows_touched)
    return DeltaResult(
        new_table,
        new_graph,
        endpoints,
        rows_touched,
        int(added.size + removed.size),
        int(added.size),
        int(removed.size),
        dirty_radii=_distance_labels(frontiers, n, k - 1),
        changes=change_rows(added, removed, n),
    )
