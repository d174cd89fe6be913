"""Figure 5 — neighbor buffering on hub-dominated graphs.

On graphs with one extreme-degree node (BerkStan, Orkut) every child
draw at the hub pays a Θ(Δ) neighbor sweep; the paper's buffering draws
100 children per sweep and caches the spares, raising sampling rates
20-40x.

Here the batched sampler does that amortizing, for every vertex at once:
its gathered-cumulative store builds each ``(T'', C'')`` key's running
sums over the edge list once, and every child draw after that is a
bisection over the vertex's segment.  The benchmark draws the same
uniforms on the same urn contents twice: with the unbuffered
``method="loop"`` recursion (one sweep per child draw, counted as
``neighbor_sweeps``) and with ``sample_batch`` (one row build per key,
counted as ``gathered_cumulative_builds``, plan compilation included in
its time).  The mechanism — sweeps per sample collapsing to a fraction
of a row build per sample — is reported per sample, and the batched rate
must be at least 3x the loop rate on every row.

Scale note: the paper's hubs have Δ ≈ 10^5-10^6 so sweep time dominates a
sample; the surrogate hubs have Δ ≈ 400, so Python's fixed per-sample
overhead of the loop path is most of what the batched path saves.
"""

from __future__ import annotations

import time

import numpy as np

from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.urn import TreeletUrn
from repro.graph.datasets import load_dataset
from repro.util.instrument import Instrumentation

from common import emit, format_table

GRID = [
    ("berkstan", 5),
    ("berkstan", 6),
    ("orkut", 5),
    ("orkut", 6),
]

SAMPLES = 1500


def _measure(graph, table, coloring, method: str):
    """``(samples/s, instrumentation, samples)`` of one cold urn."""
    inst = Instrumentation()
    urn = TreeletUrn(graph, table, coloring, instrumentation=inst)
    start = time.perf_counter()
    out = urn.sample_batch(SAMPLES, np.random.default_rng(1), method=method)
    rate = SAMPLES / (time.perf_counter() - start)
    return rate, inst, out


def test_fig5_neighbor_buffering(benchmark):
    rows = []
    for dataset, k in GRID:
        graph = load_dataset(dataset)
        coloring = ColoringScheme.uniform(graph.num_vertices, k, rng=17)
        table = build_table(graph, coloring)
        loop_rate, loop_inst, loop_out = _measure(
            graph, table, coloring, "loop"
        )
        batched_rate, batched_inst, batched_out = _measure(
            graph, table, coloring, "batched"
        )
        sweeps = loop_inst["neighbor_sweeps"]
        builds = batched_inst["gathered_cumulative_builds"]
        rows.append(
            (
                f"{dataset} k={k}",
                f"{loop_rate:,.0f}",
                f"{batched_rate:,.0f}",
                f"{sweeps / SAMPLES:.2f}",
                f"{builds / SAMPLES:.3f}",
                f"{batched_rate / loop_rate:.1f}x",
            )
        )
        # Same uniforms, same copies: the gain is pure amortization.
        assert all(
            np.array_equal(a, b) for a, b in zip(loop_out, batched_out)
        ), dataset
        # The mechanism: a row build per key instead of a sweep per draw...
        assert builds < sweeps / 10
        # ...and the wall clock follows.
        assert batched_rate >= 3 * loop_rate, (dataset, k)
    emit(
        "fig5_buffering",
        format_table(
            [
                "instance", "loop samples/s", "batched samples/s",
                "sweeps/sample loop", "row builds/sample batched",
                "speedup",
            ],
            rows,
        ),
    )

    graph = load_dataset("berkstan")
    coloring = ColoringScheme.uniform(graph.num_vertices, 5, rng=17)
    table = build_table(graph, coloring)
    urn = TreeletUrn(graph, table, coloring)
    rng = np.random.default_rng(3)
    benchmark(lambda: urn.sample_batch(SAMPLES, rng))
