"""Color coding: the build-up phase and the treelet urn (paper §2, §3).

``coloring``
    Uniform random coloring (§2.1) and the biased coloring of §3.4 that
    trades urn accuracy for table size on very large graphs.
``buildup``
    Motivo's build-up phase: the Equation (1) dynamic program over
    succinct treelets, in memory — one sparse matrix–matrix product per
    source layer, the recurrence realized through precompiled
    combination plans.
``level``
    The build-up's level step, shared by the in-memory, sharded
    (``sharded``) and incremental (``incremental``) builds: one level
    over a column set, with neighbor sums from a resident SpMM cache or
    a halo gather.
``plans``
    The level step's compiler: per-level combination plans (row index
    matrices, selection LUTs) from the treelet registry.
``buildup_baseline``
    CC's build-up phase: per-vertex hash tables over pointer treelets with
    recursive check-and-merge — the baseline of Figures 2–4, and (being
    exact-integer) the reference implementation for tests.
``urn``
    The sampling-phase interface over the finished table: uniform colorful
    treelet samples (``sample_batch(n)``) and per-shape samples
    (``sample_shape_batch``, the AGS primitive), with alias-method root
    selection and a vectorized plan-replay descent; ``method="loop"``
    replays the per-sample recursion over the same uniforms as the
    descent's oracle.
``descent``
    The sampling engine's compiler: decomposition trees flattened into
    descent plans that the batched path replays over whole sample
    batches.
"""

from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.buildup import build_table
from repro.colorcoding.buildup_baseline import build_hash_table
from repro.colorcoding.urn import TreeletUrn

__all__ = ["ColoringScheme", "build_table", "build_hash_table", "TreeletUrn"]
