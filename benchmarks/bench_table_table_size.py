"""§5.1 table — count table size: CC's memory vs motivo's external memory.

The paper's second table reports the ratio between CC's main-memory
footprint and motivo's total external-memory usage: "In almost all cases
motivo saves a factor of 2, in half of the cases a factor of 5."

Both sides are measured with the paper's own costing — CC stores one
(64-bit pointer, 64-bit count) pair per table entry plus hash overhead;
motivo stores 176 bits per pair but only *one rooting* at level k
(0-rooting).  The benchmark reports the pair counts and the costed bytes.
"""

from __future__ import annotations

from repro.colorcoding.buildup import build_table
from repro.colorcoding.buildup_baseline import build_hash_table
from repro.colorcoding.coloring import ColoringScheme
from repro.graph.datasets import load_dataset

from common import emit, format_table

#: CC hash tables carry ~2x bucket/pointer overhead over the raw pairs;
#: the paper measures JVM heap, we apply a conservative structural factor.
CC_HASH_OVERHEAD = 2.0

GRID = [
    ("facebook", 4),
    ("facebook", 5),
    ("amazon", 4),
    ("amazon", 5),
    ("dblp", 5),
]


def _measure(dataset: str, k: int):
    graph = load_dataset(dataset)
    coloring = ColoringScheme.uniform(graph.num_vertices, k, rng=29)
    cc_table = build_hash_table(graph, coloring)
    cc_bytes = cc_table.paper_equivalent_bytes() * CC_HASH_OVERHEAD

    motivo_table = build_table(graph, coloring)
    motivo_bytes = motivo_table.paper_equivalent_bytes()
    return cc_bytes, motivo_bytes, cc_table.total_pairs(), (
        motivo_table.total_pairs()
    )


def test_table_count_table_size(benchmark):
    rows = []
    for dataset, k in GRID:
        cc_bytes, motivo_bytes, cc_pairs, motivo_pairs = _measure(dataset, k)
        ratio = cc_bytes / motivo_bytes
        rows.append(
            (
                f"{dataset} k={k}",
                f"{cc_pairs:,}",
                f"{motivo_pairs:,}",
                f"{cc_bytes / 1e6:.2f}",
                f"{motivo_bytes / 1e6:.2f}",
                f"{ratio:.1f}",
            )
        )
        # The paper's shape: motivo's costed table is smaller (0-rooting
        # removes (k-1)/k of the level-k pairs; CC pays hash overhead).
        assert ratio > 1.0, (dataset, k)
    emit(
        "table_count_table_size",
        "count table size ratio CC/motivo (paper §5.1, second table)\n"
        + format_table(
            [
                "instance", "CC pairs", "motivo pairs",
                "CC MB", "motivo MB", "ratio",
            ],
            rows,
        ),
    )

    graph = load_dataset("amazon")
    coloring = ColoringScheme.uniform(graph.num_vertices, 5, rng=29)
    benchmark.pedantic(
        build_table, args=(graph, coloring), rounds=3, iterations=1
    )
