"""Figure 3 — build-up phase time and memory: original vs motivo.

The paper's Figure 3 compares the CC port against CC + succinct treelets
+ compact count table + greedy flushing, on time (log scale) and memory
footprint.  Here "original" is the faithful pointer-hash baseline and
"motivo" is the full vectorized build run shard by shard
(:func:`repro.colorcoding.sharded.build_table_sharded`): finished blocks
go to disk and the finished table reopens memory-mapped (§3.1/§3.3).  The
memory column uses the paper's own costing (bits per stored pair: 128 for
CC, 176 for motivo) plus the measured peak of the sharded build.
"""

from __future__ import annotations

import time
import tracemalloc

from repro.colorcoding.buildup import build_table
from repro.colorcoding.buildup_baseline import build_hash_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.sharded import build_table_sharded
from repro.graph.datasets import load_dataset
from repro.table.layer_store import ShardedStore

from common import emit, format_table

#: Vertex-range shards of the "motivo" build; each level's blocks are
#: flushed to disk one shard at a time.
SHARDS = 4

GRID = [
    ("facebook", 4),
    ("amazon", 4),
    ("dblp", 4),
    ("facebook", 5),
    ("amazon", 5),
]


def _run_original(graph, coloring):
    start = time.perf_counter()
    table = build_hash_table(graph, coloring)
    seconds = time.perf_counter() - start
    return seconds, table.paper_equivalent_bytes()


def _run_motivo(graph, coloring, tmp_dir):
    with ShardedStore(SHARDS, tmp_dir) as store:
        tracemalloc.start()
        start = time.perf_counter()
        table = build_table_sharded(graph, coloring, store=store)
        seconds = time.perf_counter() - start
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return seconds, table.paper_equivalent_bytes(), peak


def test_fig3_buildup_time_and_memory(benchmark, tmp_path):
    rows = []
    for i, (dataset, k) in enumerate(GRID):
        graph = load_dataset(dataset)
        coloring = ColoringScheme.uniform(graph.num_vertices, k, rng=11)
        original_s, original_bytes = _run_original(graph, coloring)
        motivo_s, motivo_bytes, peak = _run_motivo(
            graph, coloring, str(tmp_path / f"shards{i}")
        )
        rows.append(
            (
                f"{dataset} k={k}",
                f"{original_s:.2f}",
                f"{motivo_s:.3f}",
                f"{original_s / motivo_s:.0f}x",
                f"{original_bytes / 1e6:.1f}",
                f"{motivo_bytes / 1e6:.1f}",
                f"{peak / 1e6:.1f}",
            )
        )
        # Paper claim: the full motivo build is strictly faster.
        assert motivo_s < original_s
    emit(
        "fig3_buildup",
        format_table(
            [
                "instance", "orig s", "motivo s", "speedup",
                "orig MB(128b/pair)", "motivo MB(176b/pair)", "peak-res MB",
            ],
            rows,
        ),
    )

    graph = load_dataset("facebook")
    coloring = ColoringScheme.uniform(graph.num_vertices, 5, rng=11)
    benchmark(build_table, graph, coloring)
