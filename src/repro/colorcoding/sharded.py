"""Out-of-core build-up: vertex-range shards as the unit of work.

:func:`repro.colorcoding.buildup.build_table` computes each level's full
``num_keys × n`` count matrix in one piece; at SNAP scale that single
matrix is the memory wall.  This module runs the same Equation (1)
recurrence *shard by shard*: the vertex axis is partitioned into the
contiguous ranges of a :class:`~repro.table.layer_store.ShardedStore`,
each level is computed one vertex-range block at a time under a hard
byte budget, finished blocks go straight to disk through crash-safe
``.tmp-<pid>`` → rename commits, and the finished table is assembled
from the committed blocks without the full matrix ever being resident.

Bit-identity.  The sharded build produces *exactly* the bytes of the
in-memory build for the same coloring — not approximately, bit for bit.
Each (level, shard) task is one call of the shared level step
(:func:`repro.colorcoding.level.execute_level`) over the shard's
columns, with neighbor sums streamed by
:class:`~repro.colorcoding.level.HaloSums` across the source layer's
shards in ascending vertex order (see that module for why streaming
never re-associates a sum).  The keep-this-key decision ``Σ_v out[key,
v] > 0`` is an association-invariant predicate for nonnegative floats
(a partial sum never decreases), so OR-ing per-shard positivity bitmaps
reproduces the full-matrix keep set exactly.

Memory budget.  ``memory_budget`` bytes bound the build's working set.
:func:`plan_shards` picks the smallest shard count whose per-level
working set fits under the budget (raising
:class:`~repro.errors.MemoryBudgetError` when none does), and every
significant allocation at run time — source blocks, halo gathers,
neighbor-sum matrices, output blocks, compaction and assembly buffers —
is tracked against a :class:`MemoryBudget`, which fails loud rather than
overshooting.  Reads are buffered (``fromfile`` at an offset), never
memory-mapped, so pages do not linger in the resident set; only the
*finished* dense table reopens memory-mapped, paging lazily under
sampling.  Each shard's :class:`~repro.colorcoding.level.HaloLayout`
is built by the first task that needs it and kept on disk beside the
shard files, so later levels read it instead of rebuilding it; a task
takes its own shard's source columns from the block it already holds.

Fan-out.  Within a level the shard tasks are independent; ``jobs > 1``
runs them on the shared process-pool executor policy
(:func:`repro.engine.pipeline.execute_tasks`), with deterministic
per-shard seeds derived from the master seed.  Results fold in shard
order, so parallel and serial builds are byte-identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.level import (
    HaloLayout,
    HaloSums,
    MemoryBudget,
    execute_level,
)
from repro.colorcoding.plans import (
    compile_plans,
    full_universe_keys,
    level_source_sizes,
)
from repro.engine.pipeline import derive_child_seeds, execute_tasks
from repro.errors import BuildError, MemoryBudgetError
from repro.graph.graph import Graph
from repro.table.count_table import LAYOUTS, CountTable, Layer
from repro.table.layer_store import ShardedStore
from repro.telemetry.tracing import span as _trace_span
from repro.treelets.registry import TreeletRegistry
from repro.util.instrument import Instrumentation

__all__ = [
    "MemoryBudget",
    "plan_shards",
    "build_table_sharded",
]

Key = Tuple[int, int]

#: Approximate transient bytes per edge of one shard's adjacency rows
#: during a streamed neighbor-sum pass (indices + data + selection
#: scratch), used by the planner's working-set model.
_EDGE_BYTES = 32


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------


def _cost_per_column(registry: TreeletRegistry) -> int:
    """Working-set bytes per output column of the costliest level, an
    upper bound.

    Counts the float64 rows simultaneously resident while one shard of
    level ``h`` executes: the output block and its compaction copy
    (``2 U_h``), every source layer's local block plus its augmented
    neighbor-sum matrix (``2 U_s + 1`` each), and two transient
    source-shard buffers (the streamed block and its halo gather) sized
    by the widest source layer.  Universe sizes bound the actual (kept)
    key counts from above.
    """
    universe = {
        s: len(full_universe_keys(registry, s))
        for s in range(1, registry.k + 1)
    }

    def level_cost(h: int) -> int:
        sources = level_source_sizes(registry, h)
        widest = max(universe[s] for s in sources)
        return 8 * (
            2 * universe[h]
            + sum(2 * universe[s] + 1 for s in sources)
            + 2 * widest
        )

    return max(level_cost(h) for h in range(2, registry.k + 1))


def _plan_bytes(
    graph: Graph,
    registry: TreeletRegistry,
    num_shards: int,
    per_column: Optional[int] = None,
) -> int:
    """Modeled peak working set of a ``num_shards``-way sharded build
    (``per_column`` is :func:`_cost_per_column`, when known)."""
    n = graph.num_vertices
    bounds = np.linspace(0, n, num_shards + 1).astype(np.int64)
    width = int(np.max(np.diff(bounds))) if n else 0
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    edges = int(np.max(indptr[bounds[1:]] - indptr[bounds[:-1]])) if n else 0
    if per_column is None:
        per_column = _cost_per_column(registry)
    return per_column * width + _EDGE_BYTES * edges


def plan_shards(
    graph: Graph,
    registry: TreeletRegistry,
    memory_budget: int,
) -> int:
    """Smallest power-of-two shard count that fits ``memory_budget``.

    Doubles the shard count until the modeled per-shard working set
    (:func:`_plan_bytes`) fits; raises
    :class:`~repro.errors.MemoryBudgetError` when even one-vertex shards
    cannot fit — the budget is simply too small for this ``(graph, k)``.
    The model is an upper bound built from full key universes, so a plan
    that fits is safe; the run-time tracker still enforces the budget
    against the actual allocations.
    """
    memory_budget = int(memory_budget)
    if memory_budget <= 0:
        raise MemoryBudgetError("memory budget must be positive")
    n = graph.num_vertices
    per_column = _cost_per_column(registry)
    num_shards = 1
    while True:
        needed = _plan_bytes(graph, registry, num_shards, per_column)
        if needed <= memory_budget:
            return num_shards
        if num_shards >= max(1, n):
            raise MemoryBudgetError(
                f"no shard count fits a {memory_budget}-byte budget for "
                f"k={registry.k} on {n} vertices (even one-vertex shards "
                f"need {needed} bytes)"
            )
        num_shards = min(num_shards * 2, max(1, n))


# ----------------------------------------------------------------------
# Shard tasks
# ----------------------------------------------------------------------


# repro: pool-transport
@dataclass(frozen=True)
class _ShardTask:
    """One (level, vertex-range shard) unit of work (picklable)."""

    h: int
    shard: int
    lo: int
    hi: int
    seed: int


class _BuildContext:
    """Per-process state the shard tasks execute against.

    The parent builds one for the serial path; pooled workers build their
    own from the initializer payload.  The store instance is only used
    for reads, path construction and tmp/commit — workers never mutate
    the parent's registration state.
    """

    def __init__(
        self,
        graph: Graph,
        colors: np.ndarray,
        k: int,
        zero_rooting: bool,
        store: ShardedStore,
        budget_limit: Optional[int],
    ):
        self.graph = graph
        self.colors = colors
        self.k = k
        self.zero_rooting = zero_rooting
        self.store = store
        self.budget_limit = budget_limit
        self.registry = TreeletRegistry(k)
        self.adjacency = graph.adjacency_csr()
        self.bounds = store.shard_bounds(graph.num_vertices)
        self._keys: Dict[int, List[Key]] = {}

    def keys(self, size: int) -> List[Key]:
        """A finished source layer's keys, reopened once from the store's
        shared key file (a layer is read only after its level)."""
        if size not in self._keys:
            key_array = np.load(self.store._key_path(size))
            self._keys[size] = [(int(t), int(mask)) for t, mask in key_array]
        return self._keys[size]

    def layout(self, shard: int) -> HaloLayout:
        """Shard ``shard``'s halo layout: built and written by the first
        task that needs it, read back by the later ones."""
        path = self.store.layout_path(shard)
        if os.path.exists(path):
            return HaloLayout.load(path)
        lo, hi = int(self.bounds[shard]), int(self.bounds[shard + 1])
        layout = HaloLayout.build(
            self.adjacency, np.arange(lo, hi, dtype=np.int64), self.bounds
        )
        tmp = f"{path}.tmp-{os.getpid()}"
        layout.save(tmp)
        os.replace(tmp, path)
        return layout


class _ShardColumns:
    """The :class:`~repro.colorcoding.level.HaloSums` column source of
    one shard task: committed source shards are read buffered, gathered
    and dropped; the task's own shard comes from the block it already
    holds."""

    def __init__(self, ctx: _BuildContext, shard: int, sources: CountTable):
        self.store = ctx.store
        self.bounds = ctx.bounds
        self.shard = shard
        self.sources = sources

    def read(
        self,
        size: int,
        shard: int,
        verts: np.ndarray,
        key_rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        with _trace_span("sharded.halo", layer=size, source_shard=shard):
            if shard == self.shard:
                block = self.sources.layer(size).counts
            else:
                block = self.store.read_shard(size, shard)
            local = verts - int(self.bounds[shard])
            if key_rows is not None:
                block = block[key_rows]
            return block[:, local]


_SHARD_STATE: "dict[str, _BuildContext]" = {}


def _init_shard_worker(
    graph: Graph,
    colors: np.ndarray,
    k: int,
    zero_rooting: bool,
    directory: str,
    num_shards: int,
    budget_limit: Optional[int],
) -> None:
    """Pool initializer: ship the shared build state once per worker."""
    store = ShardedStore(num_shards, directory)
    _SHARD_STATE["ctx"] = _BuildContext(
        graph, colors, k, zero_rooting, store, budget_limit
    )


def _run_shard_task(task: _ShardTask):
    return _execute_shard(_SHARD_STATE["ctx"], task)


def _execute_shard(ctx: _BuildContext, task: _ShardTask):
    """Compute, commit, and summarize one (level, shard) block.

    Returns ``(shard, positivity bitmap, peak bytes, instrumentation
    snapshot)``; the block itself goes straight to the store through a
    ``.tmp-<pid>`` write and an atomic commit, never back to the parent.
    """
    budget = MemoryBudget(ctx.budget_limit)
    instrumentation = Instrumentation()
    lo, hi = task.lo, task.hi
    width = hi - lo
    sources = CountTable(ctx.k, width, False)
    for size in level_source_sizes(ctx.registry, task.h):
        keys = ctx.keys(size)
        budget.allocate(f"layer-{size} shard block", len(keys) * width * 8)
        sources.set_layer(
            Layer(size, keys, ctx.store.read_shard(size, task.shard))
        )
    sums = HaloSums(
        ctx.adjacency, np.arange(lo, hi, dtype=np.int64), sources,
        _ShardColumns(ctx, task.shard, sources), budget, instrumentation,
        layout=lambda: ctx.layout(task.shard),
    )
    out = execute_level(
        task.h, ctx.registry, ctx.zero_rooting,
        np.ascontiguousarray(ctx.colors[lo:hi]), sources, sums,
    )
    # Nonnegative counts: a positive row sum within the shard flags "some
    # nonzero column here"; the parent ORs the shard bitmaps into the
    # exact full-matrix keep set.
    bitmap = np.einsum("ij->i", out) > 0.0
    tmp = ctx.store.shard_tmp_path(task.h, task.shard)
    with open(tmp, "wb") as handle:
        np.lib.format.write_array(handle, out)
    ctx.store.commit_shard(task.h, task.shard, tmp)
    return task.shard, bitmap, budget.peak, instrumentation.snapshot()


# ----------------------------------------------------------------------
# The builder
# ----------------------------------------------------------------------


def build_table_sharded(
    graph: Graph,
    coloring: ColoringScheme,
    registry: Optional[TreeletRegistry] = None,
    zero_rooting: bool = True,
    store: Optional[ShardedStore] = None,
    instrumentation: Optional[Instrumentation] = None,
    layout: str = "dense",
    memory_budget=None,
    jobs: int = 1,
    seed: Optional[int] = None,
) -> CountTable:
    """Run the build-up shard by shard; bit-identical to ``build_table``.

    Parameters mirror :func:`repro.colorcoding.buildup.build_table`
    where they overlap.  ``store`` is the
    :class:`~repro.table.layer_store.ShardedStore` the blocks go to; its
    ``num_shards`` fixes the work partition (use :func:`plan_shards` to
    pick one that fits a budget).  ``memory_budget`` is a byte limit or a
    :class:`MemoryBudget` tracker — pass a tracker to read back
    ``peak`` afterwards.  ``jobs > 1`` fans the shard tasks of each
    level out over worker processes; ``seed`` derives the deterministic
    per-shard seeds recorded with the tasks.  The returned table's dense
    layers are memory-mapped from the store's directory, so the store
    must stay open for the table's lifetime (close it when done — the
    caller owns it).
    """
    k = coloring.k
    if k < 2:
        raise BuildError("build-up needs k >= 2")
    if coloring.num_vertices != graph.num_vertices:
        raise BuildError(
            f"coloring covers {coloring.num_vertices} vertices, graph has "
            f"{graph.num_vertices}"
        )
    registry = registry or TreeletRegistry(k)
    if registry.k != k:
        raise BuildError(f"registry is for k={registry.k}, coloring for k={k}")
    if layout not in LAYOUTS:
        raise BuildError(
            f"unknown table layout {layout!r}; choose from {LAYOUTS}"
        )
    if store is None:
        raise BuildError("the sharded build needs a ShardedStore")
    if jobs < 1:
        raise BuildError("jobs must be at least 1")
    budget = (
        memory_budget
        if isinstance(memory_budget, MemoryBudget)
        else MemoryBudget(memory_budget)
    )
    instrumentation = instrumentation or Instrumentation()
    store.reap_stale_tmp()
    # Halo layouts are per build: never trust one a former build left.
    for shard in range(store.num_shards):
        if os.path.exists(store.layout_path(shard)):
            os.remove(store.layout_path(shard))

    n = graph.num_vertices
    colors = coloring.colors
    bounds = store.shard_bounds(n)
    num_shards = store.num_shards
    compiled = compile_plans(registry)
    context = _BuildContext(
        graph, colors, k, zero_rooting, store, budget.limit
    )
    shard_seeds = derive_child_seeds(
        0 if seed is None else seed, num_shards
    )

    with instrumentation.timer("buildup"):
        # Level 1: per-color indicator rows, written shard by shard.
        # Keys ascend with the color bit, so the layer is born key-sorted.
        present = [
            color for color in range(k) if np.any(colors == color)
        ]
        level_one_keys: List[Key] = [(0, 1 << color) for color in present]
        for i in range(num_shards):
            shard_lo, shard_hi = int(bounds[i]), int(bounds[i + 1])
            with budget.hold(
                "level-1 block", len(present) * (shard_hi - shard_lo) * 8
            ):
                if present:
                    block = np.vstack(
                        [
                            coloring.indicator(color)[shard_lo:shard_hi]
                            for color in present
                        ]
                    )
                else:
                    block = np.zeros(
                        (0, shard_hi - shard_lo), dtype=np.float64
                    )
                tmp = store.shard_tmp_path(1, i)
                with open(tmp, "wb") as handle:
                    np.lib.format.write_array(handle, block)
                store.commit_shard(1, i, tmp)
        store.register_layer(1, level_one_keys, bounds)

        max_width = int(np.max(np.diff(bounds))) if n else 0
        for h in range(2, k + 1):
            level_keys = list(compiled[h].keys)
            tasks = [
                _ShardTask(
                    h=h,
                    shard=i,
                    lo=int(bounds[i]),
                    hi=int(bounds[i + 1]),
                    seed=shard_seeds[i],
                )
                for i in range(num_shards)
            ]
            with _trace_span("sharded.level", level=h):
                results = execute_tasks(
                    tasks,
                    _run_shard_task,
                    lambda task: _execute_shard(context, task),
                    jobs,
                    initializer=_init_shard_worker,
                    initargs=(
                        graph, colors, k, zero_rooting, store.directory,
                        num_shards, budget.limit,
                    ),
                )
            bitmap = np.zeros(len(level_keys), dtype=bool)
            for _shard, shard_bitmap, peak, snapshot in results:
                bitmap |= shard_bitmap
                budget.fold_peak(peak)
                instrumentation.merge(Instrumentation.from_snapshot(snapshot))
                instrumentation.count("shard_tasks")
            # Rows follow the sorted key universe, so the kept rows are
            # already key-ascending, as the in-memory install sorts them.
            keep = np.flatnonzero(bitmap)
            store.register_layer(h, level_keys, bounds)
            if keep.size < len(level_keys):
                with budget.hold(
                    "level compaction", 2 * len(level_keys) * max_width * 8
                ):
                    store.compact_layer(
                        h, keep, [level_keys[i] for i in keep]
                    )

    # Assembly: the finished CountTable, one layer at a time.
    table = CountTable(k, n, zero_rooting)
    for size in store.sizes():
        keys = store.layer_keys(size)
        if layout == "dense":
            if budget.limit is not None and n:
                row_block = max(1, budget.limit // (4 * 8 * n))
            else:
                row_block = 1024
            with budget.hold(
                "dense assembly",
                3 * min(row_block, max(1, len(keys))) * n * 8,
            ):
                path = store.assemble_dense(size, row_block=row_block)
            counts = np.load(path, mmap_mode="r")
            table.set_layer(Layer(size, keys, counts))
        else:
            with budget.hold(
                "succinct assembly block", len(keys) * max_width * 8
            ):
                layer = store.assemble_succinct(size)
            budget.allocate(
                f"succinct layer {size}",
                layer.indptr.nbytes
                + layer.key_row.nbytes
                + layer.values.nbytes,
            )
            table.set_layer(layer)
    return table
