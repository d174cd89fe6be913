"""Per-level combination plans for the build-up level step.

The Equation (1) recurrence pairs, for every output key ``(T, C)`` of a
level, the rows ``(T', C \\ C')`` of one finished layer with the
neighbor-summed rows ``(T'', C')`` of another.  Which pairs exist is a pure
function of the :class:`~repro.treelets.registry.TreeletRegistry` — it does
not depend on the host graph or the coloring — so the level step
(:mod:`repro.colorcoding.level`) precomputes them once per registry as
*combination plans*:

:class:`LevelPlan`
    For one treelet size ``h``: the full potential output key universe
    ``(T, C)`` (every size-``h`` treelet × every ``h``-subset of colors),
    the β divisor per output key, and the pair lists grouped by the
    ``(|T'|, |T''|)`` split so each group gathers from a single pair of
    layers.
:class:`PairGroup`
    All ``(T', C\\C') × (T'', C')`` combinations of a level that share one
    ``(h', h'')`` split.  Pairs are stored in one fixed enumeration order
    (treelets in canonical order, color masks in
    :func:`~repro.util.bitops.masks_of_size` order, sub-masks in
    :func:`~repro.util.bitops.iter_subsets_of_size` order), which fixes
    the level step's floating-point accumulation order — and therefore
    its output bits — for every builder.

At build time the kernel resolves each pair's keys against the actually
present layer rows (absent keys mean zero counts and drop out, as an absent
hash-table entry contributes nothing) and realizes the recurrence
as gather → elementwise multiply → segment sum.

On top of the structural plans sits the *compiled* form
(:class:`CompiledLevel`, :func:`compile_plans`): when every source layer is
*full* — it realizes its entire potential key universe, the overwhelmingly
common case on non-degenerate inputs — the key → row resolution is itself a
pure function of the registry, so the row-index matrices can be compiled
once and the per-build resolution loop disappears entirely.  The level step
checks fullness per layer (one integer comparison) and falls back to the
resolving path otherwise.
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
    "PairGroup",
    "LevelPlan",
    "CompiledGroup",
    "CompiledLevel",
    "build_level_plan",
    "level_plans",
    "compile_plans",
    "full_universe_keys",
    "frontier_last_use",
    "level_source_sizes",
]

Key = Tuple[int, int]


@dataclass(frozen=True)
class PairGroup:
    """All combination pairs of one level sharing an ``(h', h'')`` split.

    Attributes
    ----------
    h_prime / h_second:
        Sizes of the layers the first and second factors gather from.
    prime_keys / second_keys:
        Per-pair ``(treelet, mask)`` keys; ``second_keys`` index into the
        *neighbor-summed* layer matrix.
    out_slots:
        Per-pair row index into the level's output key universe.  Slots are
        non-decreasing, and the pairs of one slot are contiguous — which is
        what lets the kernel segment-sum with ``np.add.reduceat``.
    """

    h_prime: int
    h_second: int
    prime_keys: Tuple[Key, ...]
    second_keys: Tuple[Key, ...]
    out_slots: np.ndarray

    @property
    def num_pairs(self) -> int:
        """Number of combination pairs in the group."""
        return len(self.prime_keys)


@dataclass(frozen=True)
class LevelPlan:
    """The complete combination plan for one treelet size ``h``.

    Attributes
    ----------
    size:
        The level's treelet size ``h``.
    out_keys:
        Potential output keys ``(T, C)``: every canonical size-``h``
        treelet crossed with every ``h``-subset of the ``k`` colors, in
        plan enumeration order.  Keys whose accumulated counts end up
        all-zero are dropped at install time, so the universe being a
        superset of the realized layer is harmless.
    betas:
        β divisor per output key (constant across the color masks of one
        treelet).
    groups:
        The pair lists, one per distinct ``(h', h'')`` split.
    """

    size: int
    out_keys: Tuple[Key, ...]
    betas: np.ndarray
    groups: Tuple[PairGroup, ...]

    @property
    def num_pairs(self) -> int:
        """Total combination pairs across all groups."""
        return sum(group.num_pairs for group in self.groups)


def build_level_plan(registry: TreeletRegistry, h: int) -> LevelPlan:
    """Build the combination plan for level ``h`` of a registry's DP."""
    k = registry.k
    color_masks = masks_of_size(k, h)
    out_keys: List[Key] = []
    betas: List[float] = []
    grouped: Dict[Tuple[int, int], Tuple[List[Key], List[Key], List[int]]] = {}
    for treelet, t_prime, t_second, beta_t in registry.decompositions_of_size(h):
        h_second = getsize(t_second)
        split = (h - h_second, h_second)
        primes, seconds, slots = grouped.setdefault(split, ([], [], []))
        for mask in color_masks:
            slot = len(out_keys)
            out_keys.append((treelet, mask))
            betas.append(float(beta_t))
            for sub_mask in iter_subsets_of_size(mask, h_second):
                primes.append((t_prime, mask ^ sub_mask))
                seconds.append((t_second, sub_mask))
                slots.append(slot)
    groups = tuple(
        PairGroup(
            h_prime=split[0],
            h_second=split[1],
            prime_keys=tuple(primes),
            second_keys=tuple(seconds),
            out_slots=np.asarray(slots, dtype=np.int64),
        )
        for split, (primes, seconds, slots) in sorted(grouped.items())
    )
    return LevelPlan(
        size=h,
        out_keys=tuple(out_keys),
        betas=np.asarray(betas, dtype=np.float64),
        groups=groups,
    )


@dataclass(frozen=True)
class CompiledGroup:
    """A :class:`PairGroup` with key → row resolution baked in.

    Valid only when the source layers are full (realize their entire key
    universe); then row ``i`` of a layer is key ``i`` of the sorted
    universe, and the pair lists become dense index matrices:

    Attributes
    ----------
    h_prime / h_second:
        Sizes of the prime and (neighbor-summed) second source layers.
    pairs_per_slot:
        ``L = C(h, h'')`` — every output row of the group combines exactly
        ``L`` pairs, one per color sub-mask, in plan enumeration order.
    prime_rows / second_rows:
        ``num_slots × L`` row indices into the full prime layer and the
        full second layer's neighbor-sum matrix; column ``j`` is the
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
    """Full-universe compiled plan for one level.

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
    plan: LevelPlan,
    universe_rows: Dict[int, Dict[Key, int]],
) -> CompiledLevel:
    keys = sorted(plan.out_keys)
    out_row_of = {key: row for row, key in enumerate(keys)}
    betas = np.empty(len(keys), dtype=np.float64)
    for i, key in enumerate(plan.out_keys):
        betas[out_row_of[key]] = plan.betas[i]
    groups = []
    for group in plan.groups:
        pairs_per_slot = comb(plan.size, group.h_second)
        num_slots = group.num_pairs // pairs_per_slot
        prime_row_of = universe_rows[group.h_prime]
        second_row_of = universe_rows[group.h_second]
        prime_rows = np.asarray(
            [prime_row_of[key] for key in group.prime_keys], dtype=np.int64
        ).reshape(num_slots, pairs_per_slot)
        second_rows = np.asarray(
            [second_row_of[key] for key in group.second_keys], dtype=np.int64
        ).reshape(num_slots, pairs_per_slot)
        slot_keys = [
            plan.out_keys[slot]
            for slot in group.out_slots[::pairs_per_slot]
        ]
        out_rows = np.asarray(
            [out_row_of[key] for key in slot_keys], dtype=np.int64
        )
        select_lut: Optional[np.ndarray] = None
        color_slots: Optional[Tuple[Tuple[np.ndarray, np.ndarray], ...]] = None
        if group.h_prime == 1:
            sentinel = len(universe_rows[group.h_second])
            select_lut = np.full(
                (num_slots, registry.k), sentinel, dtype=np.int64
            )
            for slot, (t_second, mask) in enumerate(
                zip(
                    (key[0] for key in group.second_keys[::pairs_per_slot]),
                    (key[1] for key in slot_keys),
                )
            ):
                for color in range(registry.k):
                    bit = 1 << color
                    if mask & bit:
                        select_lut[slot, color] = second_row_of[
                            (t_second, mask ^ bit)
                        ]
            per_color = []
            for color in range(registry.k):
                slots_c = np.flatnonzero(select_lut[:, color] != sentinel)
                per_color.append(
                    (slots_c, select_lut[slots_c, color].copy())
                )
            color_slots = tuple(per_color)
        groups.append(
            CompiledGroup(
                h_prime=group.h_prime,
                h_second=group.h_second,
                pairs_per_slot=pairs_per_slot,
                prime_rows=prime_rows,
                second_rows=second_rows,
                out_rows=out_rows,
                select_lut=select_lut,
                color_slots=color_slots,
            )
        )
    covered = np.sort(np.concatenate([g.out_rows for g in groups]))
    if not np.array_equal(covered, np.arange(len(keys))):
        raise AssertionError(
            f"compiled plan for level {plan.size} does not cover its universe"
        )
    return CompiledLevel(
        size=plan.size,
        keys=tuple(keys),
        betas=betas,
        groups=tuple(groups),
    )


#: Plans are pure functions of ``k`` alone (registries for the same ``k``
#: are identical), so the cache is keyed by ``k`` and repeated builds —
#: ensemble runs each constructing their own registry, benchmarks — pay
#: the enumeration once per motif size.
_PLAN_CACHE: Dict[int, tuple] = {}


def _cached(registry: TreeletRegistry) -> Tuple[
    Dict[int, LevelPlan], Dict[int, CompiledLevel]
]:
    cached = _PLAN_CACHE.get(registry.k)
    if cached is None:
        plans = {
            h: build_level_plan(registry, h) for h in range(2, registry.k + 1)
        }
        universe_rows = {
            h: {
                key: row
                for row, key in enumerate(full_universe_keys(registry, h))
            }
            for h in range(1, registry.k + 1)
        }
        compiled = {
            h: _compile_level(registry, plans[h], universe_rows)
            for h in range(2, registry.k + 1)
        }
        cached = (plans, compiled)
        _PLAN_CACHE[registry.k] = cached
    return cached


def level_plans(registry: TreeletRegistry) -> Dict[int, LevelPlan]:
    """Combination plans for every level ``2..k``, cached per registry."""
    return _cached(registry)[0]


def compile_plans(registry: TreeletRegistry) -> Dict[int, CompiledLevel]:
    """Full-universe compiled plans for every level, cached per registry."""
    return _cached(registry)[1]


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
    for h, plan in level_plans(registry).items():
        for group in plan.groups:
            for size in (group.h_prime, group.h_second):
                last_use[size] = max(last_use.get(size, 0), h)
    return last_use


def level_source_sizes(registry: TreeletRegistry, h: int) -> List[int]:
    """Ascending layer sizes level ``h``'s combination plans read."""
    plan = level_plans(registry)[h]
    return sorted(
        {g.h_prime for g in plan.groups} | {g.h_second for g in plan.groups}
    )
