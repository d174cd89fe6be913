"""Treelet count tables — the "urn" storage (paper §3.1).

The build-up phase produces, for every vertex ``v`` and every colorful
rooted treelet ``T_C`` on up to ``k`` nodes, the count ``c(T_C, v)`` of
copies of ``T_C`` rooted at ``v``.  CC keeps one hash table per vertex
keyed by treelet pointers; motivo replaces this with sorted compact records
of ``(packed key, cumulative count)`` pairs supporting ``occ``, ``iter``
and ``sample`` in O(k).

Here :class:`~repro.table.count_table.CountTable` holds one
:class:`~repro.table.count_table.LayerView` per treelet size, in either
of two interchangeable layouts: :class:`~repro.table.count_table.DenseLayer`
(columnar ``num_keys × n`` matrices — the build kernels' working form)
or :class:`~repro.table.count_table.SuccinctLayer` (the paper's
per-vertex CSR records, O(stored pairs) resident; tables *seal* to it
via :meth:`~repro.table.count_table.CountTable.seal`).
:class:`~repro.table.hash_table.HashCountTable` is the CC baseline.
:mod:`repro.table.layer_store` holds
:class:`~repro.table.layer_store.ShardedStore`, the vertex-range shard
files of the out-of-core build — greedy flushing to disk and
memory-mapped reads (§3.1 "Greedy flushing" and §3.3 "Memory-mapped
reads") — and :mod:`repro.table.flush` the scratch-file cleanup it
shares with the artifact cache.  Finished tables persist through
:mod:`repro.artifacts` for build-once / sample-many reuse.
"""

from repro.table.count_table import (
    LAYOUTS,
    CountTable,
    DenseLayer,
    Layer,
    LayerView,
    SuccinctLayer,
)
from repro.table.hash_table import HashCountTable

__all__ = [
    "LAYOUTS",
    "CountTable",
    "DenseLayer",
    "Layer",
    "LayerView",
    "SuccinctLayer",
    "HashCountTable",
]
