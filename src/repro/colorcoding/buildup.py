"""Motivo's build-up phase: the Equation (1) dynamic program, in memory.

For every vertex ``v`` and colorful rooted treelet ``T_C`` on up to ``k``
nodes the phase computes ``c(T_C, v)``, the number of (non-induced) copies
of ``T_C`` rooted at ``v``:

    c(T_C, v) = (1/β_T) * Σ_{u ~ v} Σ_{C' ⊂ C, |C'| = |T'|}
                    c(T'_{C'}, v) * c(T''_{C''}, u)

with ``(T', T'')`` the unique decomposition of ``T`` and ``C'' = C \\ C'``.

Each level ``h = 2..k`` is one call of the shared level step
(:func:`repro.colorcoding.level.execute_level`) over every vertex.
:class:`~repro.table.count_table.CountTable` stores each finished layer as
one ``num_keys × n`` matrix, so the neighbor sums of *every* key of a
layer are a single sparse matrix–matrix product ``adjacency @
layer.counts.T`` — one SpMM per source layer, cached by
:class:`~repro.colorcoding.level.ResidentSums` for the whole build — and
the recurrence runs off precompiled per-level combination plans
(:mod:`repro.colorcoding.plans`).  Under 0-rooting (§3.2) the size-``k``
level, SpMMs included, runs only on color-0 columns, shrinking it by a
factor ``k``.  The exact-integer CC baseline
(:func:`repro.colorcoding.buildup_baseline.build_hash_table`) is the
build's oracle.

Every layer stays in process memory.  The build that flushes finished
blocks to disk and reads them back memory-mapped (§3.1/§3.3) is the
sharded one, :func:`repro.colorcoding.sharded.build_table_sharded`,
which produces the same bytes under a hard memory budget.

Table layout (``layout="succinct"``).  The level step needs the matrix
form while a layer is still on the build frontier (SpMM operands, blocked
prime-side gathers), so layers are always *built* dense — but with the
succinct layout requested each layer is **sealed** to the paper's CSR
records the moment it retires from the frontier, i.e. once no later
level's combination plans reference its size.  Equation (1) lets every
level consume every smaller size, so the pre-``k`` layers stay dense
until the final level — the size-``k`` layer, the dominant one at
scale, never exists dense beyond its own install, and the whole table
leaves the build succinct.  Sealing changes the representation only
(the stored values are the same integer-valued floats), so the two
layouts produce bit-identical downstream results.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import BuildError
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.level import ResidentSums, execute_level
from repro.colorcoding.plans import compile_plans, frontier_last_use
from repro.graph.graph import Graph
from repro.table.count_table import LAYOUTS, CountTable, Layer
from repro.treelets.registry import TreeletRegistry
from repro.util.instrument import Instrumentation

__all__ = ["build_table"]

Key = Tuple[int, int]


def build_table(
    graph: Graph,
    coloring: ColoringScheme,
    registry: Optional[TreeletRegistry] = None,
    zero_rooting: bool = True,
    instrumentation: Optional[Instrumentation] = None,
    layout: str = "dense",
) -> CountTable:
    """Run the build-up phase and return the treelet count table.

    Parameters
    ----------
    graph:
        Host graph.
    coloring:
        A realized :class:`ColoringScheme` with ``k`` colors.
    registry:
        Treelet registry for ``k`` (built on demand when omitted).
    zero_rooting:
        Apply the §3.2 optimization: store size-``k`` counts only at
        vertices of color 0 (each colorful copy counted exactly once).
    instrumentation:
        Counter bag; receives ``merge_ops`` (one per realized (T, C-split)
        combination pair), ``spmm_ops`` (one per SpMM), and the
        ``buildup`` timer.
    layout:
        In-memory layout of the finished table: ``"dense"`` (the
        matrices, as built) or ``"succinct"`` (the paper's CSR records;
        layers seal as they retire from the build frontier — see the
        module docstring).  Both layouts answer every table operation
        bit-identically.
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
    instrumentation = instrumentation or Instrumentation()

    n = graph.num_vertices
    table = CountTable(k, n, zero_rooted=zero_rooting)

    with instrumentation.timer("buildup"):
        # Level 1: the singleton treelet, one entry per color.
        level_one: Dict[Key, np.ndarray] = {}
        for color in range(k):
            indicator = coloring.indicator(color)
            if indicator.any():
                level_one[(0, 1 << color)] = indicator
        _install(table, 1, level_one)

        sealer = _FrontierSealer(registry, layout, instrumentation)
        sums = ResidentSums(
            table, graph.adjacency_csr(), registry, instrumentation
        )
        for h in range(2, k + 1):
            out = execute_level(
                h, registry, zero_rooting, coloring.colors, table, sums
            )
            keys = compile_plans(registry)[h].keys
            # Counts are nonnegative, so a positive row sum is exactly "any
            # nonzero" — and the float sum is one fast reduction pass.
            keep = np.flatnonzero(np.einsum("ij->i", out) > 0.0)
            if keep.size == out.shape[0]:
                table.set_layer(Layer(h, list(keys), out))
            else:
                table.set_layer(
                    Layer(h, [keys[i] for i in keep], out[keep])
                )
            del out
            sealer.after_level(table, h, sums)

    return table


class _FrontierSealer:
    """Seals layers to the succinct layout as they retire (see module
    docstring).  A layer retires after the last level whose combination
    plans reference its size; the size-``k`` layer is never a source, so
    it retires the moment it is installed.
    """

    def __init__(
        self,
        registry: TreeletRegistry,
        layout: str,
        instrumentation: Instrumentation,
    ):
        self.active = layout == "succinct"
        self.last_use: Dict[int, int] = (
            frontier_last_use(registry) if self.active else {}
        )
        self.instrumentation = instrumentation

    def after_level(
        self, table: CountTable, level: int, sums: ResidentSums
    ) -> None:
        """Seal every dense layer with no use beyond ``level``, evicting
        its cached neighbor sums."""
        if not self.active:
            return
        for size in range(1, level + 1):
            if self.last_use.get(size, 0) > level:
                continue
            if not table.has_layer(size):
                continue
            if table.layer(size).layout != "dense":
                continue
            table.seal("succinct", sizes=[size])
            self.instrumentation.count("sealed_layers")
            sums.evict(size)


def _install(
    table: CountTable, size: int, entries: Dict[Key, np.ndarray]
) -> None:
    """Install a finished layer from its per-key count rows."""
    keys = list(entries)
    if keys:
        matrix = np.vstack([entries[key] for key in keys])
    else:
        matrix = np.zeros((0, table.num_vertices), dtype=np.float64)
    table.set_layer(Layer(size, keys, matrix))
