#!/usr/bin/env python
"""The large-graph workflow: flushing, memory-mapping, and biased coloring.

For its billion-edge runs the paper combines three §3 mechanisms: greedy
flushing (tables go to disk as soon as complete), memory-mapped reads
(the OS pages table data in on demand), and biased coloring with a λ
found by growing it until counts appear (§3.4).  This example runs that
exact recipe end to end on the largest surrogate:

1. tune λ with the §3.4 growth procedure;
2. build under a memory budget — the build runs vertex-shard by
   vertex-shard, finished blocks land on disk, and the tracked working
   set stays under the budget;
3. sample straight off the memory-mapped tables;
4. report what the Theorem 3 bound says about the accuracy cost.

Run:  python examples/large_graph_workflow.py
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro import MotivoConfig, MotivoCounter
from repro.graph.datasets import load_dataset
from repro.sampling.bounds import minimum_count_for_guarantee, suggest_lambda
from repro.util.combinatorics import (
    biased_colorful_probability,
    colorful_probability,
)


def main() -> None:
    graph = load_dataset("friendster")
    k = 5
    print(
        f"friendster surrogate: n={graph.num_vertices:,}, "
        f"m={graph.num_edges:,}, k={k}"
    )

    # 1. Tune lambda (§3.4: grow until counts appear).
    lam = suggest_lambda(graph, k, rng=21)
    uniform_p = colorful_probability(k)
    if lam < 1.0 / k:
        biased_p = biased_colorful_probability(k, lam)
        print(f"\nsuggested λ = {lam:.4g}")
        print(
            f"colorful probability: {biased_p:.3e} vs uniform "
            f"{uniform_p:.3e} ({uniform_p / biased_p:.1f}x variance factor)"
        )
    else:
        lam = None
        print("\nthis graph is small enough that bias buys nothing; "
              "using the uniform coloring")

    # 2. Build under a memory budget: shard blocks go straight to disk.
    budget = 2_000_000
    with tempfile.TemporaryDirectory() as tmp:
        shard_dir = os.path.join(tmp, "shards")
        counter = MotivoCounter(
            graph,
            MotivoConfig(
                k=k, seed=22, biased_lambda=lam,
                memory_budget=budget, shard_dir=shard_dir,
            ),
        )
        start = time.perf_counter()
        counter.build()
        build_s = time.perf_counter() - start

        files = sorted(os.listdir(shard_dir))
        on_disk = sum(
            os.path.getsize(os.path.join(shard_dir, f)) for f in files
        )
        table = counter.urn.table
        print(f"\nbuild: {build_s:.2f}s in {counter.store.num_shards} "
              f"vertex shards; tracked peak "
              f"{counter.build_budget.peak / 1e6:.2f} MB of a "
              f"{budget / 1e6:.0f} MB budget")
        print(f"{len(files)} shard files, {on_disk / 1e6:.1f} MB on disk")
        print(f"stored pairs: {table.total_pairs():,} "
              f"(paper costing: {table.paper_equivalent_bytes() / 1e6:.1f} MB)")
        assert isinstance(table.layer(k).counts, np.memmap)
        print("size-k layer is memory-mapped — reads page in on demand")

        # 3. Sample straight off the mapped tables.
        start = time.perf_counter()
        estimates = counter.sample_naive(10_000)
        rate = 10_000 / (time.perf_counter() - start)
        print(f"\nsampling from mapped tables: {rate:,.0f} samples/s, "
              f"{estimates.distinct_graphlets()} distinct graphlets")
        for bits, count in estimates.top(5):
            print(f"  {bits:#08x}  ~{count:,.0f} copies "
                  f"({estimates.frequency(bits):.2%})")

        # 4. What does Theorem 3 promise at this p_k?
        p = counter.coloring.colorful_probability()
        needed = minimum_count_for_guarantee(
            0.25, 0.1, k, graph.max_degree, colorful_p=p
        )
        print(
            f"\nTheorem 3: one coloring gives ±25% w.p. 0.9 for every "
            f"graphlet with at least {needed:,.0f} copies"
        )
        counter.close()


if __name__ == "__main__":
    main()
