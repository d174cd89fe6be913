"""Per-level combination plans for the build-up level step.

The Equation (1) recurrence pairs, for every output key ``(T, C)`` of a
level, the rows ``(T', C \\ C')`` of one finished layer with the
neighbor-summed rows ``(T'', C')`` of another.  Which pairs exist is a pure
function of the :class:`~repro.treelets.registry.TreeletRegistry` — it does
not depend on the host graph or the coloring — so the level step
(:mod:`repro.colorcoding.level`) compiles them once per registry, with
every key resolved to its row in its layer's sorted potential key
universe (:func:`full_universe_keys`: every size-``h`` treelet × every
``h``-subset of the ``k`` colors):

:class:`CompiledLevel`
    For one treelet size ``h``: the sorted key universe, the β divisor per
    key, and the pairs grouped by the ``(|T'|, |T''|)`` split so each
    group gathers from a single pair of layers.
:class:`CompiledGroup`
    All ``(T', C\\C') × (T'', C')`` combinations of a level that share one
    ``(h', h'')`` split, as dense row-index matrices.  Pairs are
    enumerated in one fixed order (treelets in canonical order, color
    masks in :func:`~repro.util.bitops.masks_of_size` order, sub-masks in
    :func:`~repro.util.bitops.iter_subsets_of_size` order), which fixes
    the level step's floating-point accumulation order — and therefore
    its output bits — for every builder.

A layer that realizes only part of its universe (a color missing from the
graph, an edgeless graph, an update that kills keys) runs off the same
plans: the level step maps universe rows onto the rows the layer holds and
points a pair with an absent key at a zero row, the zero term an absent
hash-table entry stands for.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.treelets.encoding import getsize
from repro.treelets.registry import TreeletRegistry
from repro.util.bitops import iter_subsets_of_size, masks_of_size

__all__ = [
    "CompiledGroup",
    "CompiledLevel",
    "compile_plans",
    "full_universe_keys",
    "frontier_last_use",
    "level_source_sizes",
]

Key = Tuple[int, int]


@dataclass(frozen=True)
class CompiledGroup:
    """All combination pairs of one level sharing an ``(h', h'')`` split.

    Row ``i`` of a layer is key ``i`` of its sorted universe, so the pair
    lists are dense index matrices:

    Attributes
    ----------
    h_prime / h_second:
        Sizes of the prime and (neighbor-summed) second source layers.
    pairs_per_slot:
        ``L = C(h, h'')`` — every output row of the group combines exactly
        ``L`` pairs, one per color sub-mask, in plan enumeration order.
    prime_rows / second_rows:
        ``num_slots × L`` row indices into the prime layer's universe and
        the second layer's neighbor-sum matrix; column ``j`` is the
        ``j``-th sub-mask.
    out_rows:
        ``num_slots`` row indices into the level's sorted key universe.
    """

    h_prime: int
    h_second: int
    pairs_per_slot: int
    prime_rows: np.ndarray
    second_rows: np.ndarray
    out_rows: np.ndarray
    #: For ``h' == 1`` groups only: a ``num_slots × k`` lookup table
    #: realizing the recurrence as pure per-vertex selection.  The prime
    #: factors are the color indicator rows, whose supports partition the
    #: vertices — at most one term of the sub-mask sum is nonzero at any
    #: vertex — so ``out[s, v] = nbr[lut[s, color(v)], v]``, with colors
    #: outside the slot's mask pointing at the neighbor-sum matrix's
    #: trailing all-zero sentinel row.
    select_lut: Optional[np.ndarray] = None
    #: Companion per-color view of ``select_lut``: entry ``c`` is
    #: ``(slots_c, second_rows_c)`` — the slots whose mask contains color
    #: ``c`` and the second-layer row each one selects for color-``c``
    #: vertices.  Lets the kernel fuse selection into per-color restricted
    #: SpMMs (``A[V_c] @ counts[second_rows_c].T``) when the full
    #: neighbor-sum matrix has no other consumer, computing only the
    #: entries the selection would actually read.
    color_slots: Optional[Tuple[Tuple[np.ndarray, np.ndarray], ...]] = None


@dataclass(frozen=True)
class CompiledLevel:
    """The compiled plan for one level.

    ``keys`` is the sorted key universe; ``betas`` is aligned to it.  The
    groups' ``out_rows`` partition ``range(len(keys))``.
    """

    size: int
    keys: Tuple[Key, ...]
    betas: np.ndarray
    groups: Tuple[CompiledGroup, ...]


def full_universe_keys(registry: TreeletRegistry, h: int) -> List[Key]:
    """The sorted potential key universe of layer ``h``: treelets × masks."""
    if h == 1:
        return sorted((0, 1 << color) for color in range(registry.k))
    return sorted(
        (treelet, mask)
        for treelet in registry.treelets_of_size(h)
        for mask in masks_of_size(registry.k, h)
    )


def _compile_level(
    registry: TreeletRegistry,
    h: int,
    universe_rows: Dict[int, Dict[Key, int]],
) -> CompiledLevel:
    k = registry.k
    out_row_of = universe_rows[h]
    betas = np.zeros(len(out_row_of), dtype=np.float64)
    grouped: Dict[Tuple[int, int], Tuple[list, list, list]] = {}
    for treelet, t_prime, t_second, beta_t in registry.decompositions_of_size(h):
        h_second = getsize(t_second)
        split = (h - h_second, h_second)
        prime_row_of = universe_rows[split[0]]
        second_row_of = universe_rows[h_second]
        primes, seconds, outs = grouped.setdefault(split, ([], [], []))
        for mask in masks_of_size(k, h):
            out_row = out_row_of[(treelet, mask)]
            betas[out_row] = beta_t
            outs.append(out_row)
            sub_masks = list(iter_subsets_of_size(mask, h_second))
            primes.append(
                [prime_row_of[(t_prime, mask ^ sub)] for sub in sub_masks]
            )
            seconds.append(
                [second_row_of[(t_second, sub)] for sub in sub_masks]
            )
    groups = []
    for (h_prime, h_second), (primes, seconds, outs) in sorted(
        grouped.items()
    ):
        prime_rows = np.asarray(primes, dtype=np.int64)
        second_rows = np.asarray(seconds, dtype=np.int64)
        select_lut: Optional[np.ndarray] = None
        color_slots: Optional[Tuple[Tuple[np.ndarray, np.ndarray], ...]] = None
        if h_prime == 1:
            # Level 1's universe row of key (0, 1 << c) is c, so a pair's
            # prime row is the color it selects for.
            sentinel = len(universe_rows[h_second])
            select_lut = np.full((len(outs), k), sentinel, dtype=np.int64)
            select_lut[
                np.arange(len(outs), dtype=np.int64)[:, None], prime_rows
            ] = second_rows
            per_color = []
            for color in range(k):
                slots_c = np.flatnonzero(select_lut[:, color] != sentinel)
                per_color.append((slots_c, select_lut[slots_c, color]))
            color_slots = tuple(per_color)
        groups.append(
            CompiledGroup(
                h_prime=h_prime,
                h_second=h_second,
                pairs_per_slot=comb(h, h_second),
                prime_rows=prime_rows,
                second_rows=second_rows,
                out_rows=np.asarray(outs, dtype=np.int64),
                select_lut=select_lut,
                color_slots=color_slots,
            )
        )
    return CompiledLevel(
        size=h,
        keys=tuple(out_row_of),
        betas=betas,
        groups=tuple(groups),
    )


#: Plans are pure functions of ``k`` alone (registries for the same ``k``
#: are identical), so the cache is keyed by ``k`` and repeated builds —
#: ensemble runs each constructing their own registry, benchmarks — pay
#: the enumeration once per motif size.
_PLAN_CACHE: Dict[int, Dict[int, CompiledLevel]] = {}


def compile_plans(registry: TreeletRegistry) -> Dict[int, CompiledLevel]:
    """Compiled plans for every level ``2..k``, cached per registry."""
    compiled = _PLAN_CACHE.get(registry.k)
    if compiled is None:
        universe_rows = {
            h: {
                key: row
                for row, key in enumerate(full_universe_keys(registry, h))
            }
            for h in range(1, registry.k + 1)
        }
        compiled = {
            h: _compile_level(registry, h, universe_rows)
            for h in range(2, registry.k + 1)
        }
        _PLAN_CACHE[registry.k] = compiled
    return compiled


def frontier_last_use(registry: TreeletRegistry) -> Dict[int, int]:
    """Last level whose combination plans consume each layer size.

    ``frontier_last_use(r)[s]`` is the highest level ``h`` with a group
    whose prime or second factor has size ``s`` — after level ``h``
    finishes, the size-``s`` layer has retired from the build frontier
    and can be sealed or evicted.  The size-``k`` layer is never a
    source, so it does not appear; it retires the moment it installs.
    Shared by the in-memory frontier sealer and the sharded scheduler
    (which drops per-shard scratch the moment a layer retires).
    """
    last_use: Dict[int, int] = {}
    for h in range(2, registry.k + 1):
        for size in level_source_sizes(registry, h):
            last_use[size] = h
    return last_use


def level_source_sizes(registry: TreeletRegistry, h: int) -> List[int]:
    """Ascending layer sizes level ``h``'s combination plans read."""
    groups = compile_plans(registry)[h].groups
    return sorted(
        {g.h_prime for g in groups} | {g.h_second for g in groups}
    )
