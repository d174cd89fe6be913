"""Tests for graphlet classification and the estimate containers/metrics."""

from __future__ import annotations

import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SamplingError
from repro.graph.graph import Graph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
)
from repro.graphlets.canonical import canonical_form
from repro.graphlets.encoding import adjacency_sets, relabel
from repro.graphlets.enumerate import (
    clique_graphlet,
    cycle_graphlet,
    path_graphlet,
    star_graphlet,
)
from repro.sampling.estimates import (
    GraphletEstimates,
    accuracy_census,
    count_errors,
    l1_error,
    rarest_frequency,
)
from repro.sampling.occurrences import GraphletClassifier


class TestClassifier:
    def test_known_shapes(self):
        g = cycle_graph(6)
        classifier = GraphletClassifier(g, 4)
        assert classifier.classify([0, 1, 2, 3]) == path_graphlet(4)
        g2 = complete_graph(5)
        classifier2 = GraphletClassifier(g2, 4)
        assert classifier2.classify([0, 1, 2, 3]) == clique_graphlet(4)

    def test_cycle_detection(self):
        g = cycle_graph(5)
        classifier = GraphletClassifier(g, 5)
        assert classifier.classify([0, 1, 2, 3, 4]) == cycle_graphlet(5)

    def test_star_detection(self):
        from repro.graph.generators import star_graph

        g = star_graph(5)
        classifier = GraphletClassifier(g, 4)
        assert classifier.classify([0, 1, 2, 3]) == star_graphlet(4)

    def test_vertex_order_irrelevant(self):
        g = path_graph(6)
        classifier = GraphletClassifier(g, 4)
        a = classifier.classify([0, 1, 2, 3])
        b = classifier.classify([3, 1, 0, 2])
        assert a == b

    def test_cache_hits(self):
        g = path_graph(5)
        classifier = GraphletClassifier(g, 4)
        classifier.classify([0, 1, 2, 3])
        classifier.classify([3, 2, 1, 0])
        assert classifier.cache_hits == 1
        assert classifier.classified == 2

    def test_rejects_wrong_arity(self):
        classifier = GraphletClassifier(path_graph(5), 4)
        with pytest.raises(SamplingError):
            classifier.classify([0, 1, 2])

    def test_rejects_duplicates(self):
        classifier = GraphletClassifier(path_graph(5), 4)
        with pytest.raises(SamplingError):
            classifier.classify([0, 1, 1, 2])

    def test_k_validation(self):
        with pytest.raises(SamplingError):
            GraphletClassifier(path_graph(3), 1)

    def test_shared_classifier_under_concurrent_batches(self):
        """Threads sharing one classifier (as the serving plane's
        requests do) get the single-threaded answers while its pattern
        cache grows under them."""
        graph = erdos_renyi(60, 400, rng=3)
        rng = np.random.default_rng(4)
        batches = [
            np.stack(
                [rng.choice(60, size=5, replace=False) for _ in range(40)]
            )
            for _ in range(16)
        ]
        expected = [
            GraphletClassifier(graph, 5).classify_batch(batch)
            for batch in batches
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _trial in range(10):
                shared = GraphletClassifier(graph, 5)
                results: list = [None] * len(batches)

                def work(i: int) -> None:
                    results[i] = shared.classify_batch(batches[i])

                threads = [
                    threading.Thread(target=work, args=(i,))
                    for i in range(len(batches))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                for got, want in zip(results, expected):
                    assert np.array_equal(got, want)
        finally:
            sys.setswitchinterval(previous)


def _refined_reference(bits: int, k: int) -> int:
    """Colour refinement as the classifier documents it: order by
    degree, then by two rounds of neighbour-key sums, ties in label
    order."""
    adjacency = adjacency_sets(bits, k)
    keys = [len(adjacency[v]) for v in range(k)]
    bound = k
    for _round in range(2):
        keys = [
            keys[v] * k * bound + sum(keys[u] for u in adjacency[v])
            for v in range(k)
        ]
        bound = k * bound * bound
    position = [0] * k
    for rank, v in enumerate(sorted(range(k), key=keys.__getitem__)):
        position[v] = rank
    return relabel(bits, k, position)


@st.composite
def _relabelled_graphlets(draw):
    """``(k, blocks)``: one to three random connected ``k``-vertex
    graphs (a random tree plus random chords), each with random vertex
    orders."""
    k = draw(st.integers(min_value=3, max_value=7))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    blocks = []
    for _graph in range(draw(st.integers(min_value=1, max_value=3))):
        tree = {
            (draw(st.integers(min_value=0, max_value=v - 1)), v)
            for v in range(1, k)
        }
        chords = draw(st.sets(st.sampled_from(pairs)))
        orders = draw(st.lists(
            st.permutations(list(range(k))), min_size=1, max_size=6
        ))
        blocks.append((sorted(tree | chords), orders))
    return k, blocks


class TestRefinedCanonicalization:
    """``classify_batch`` canonicalizes each new pattern through its
    colour-refined relabelling, memoized by the relabelled bits."""

    @given(_relabelled_graphlets())
    @settings(max_examples=80, deadline=None)
    def test_relabellings_classify_canonically(self, data):
        k, blocks = data
        host = Graph.from_edges(
            [
                (block * k + u, block * k + v)
                for block, (edges, _orders) in enumerate(blocks)
                for u, v in edges
            ],
            k * len(blocks),
        )
        rows = np.array([
            [block * k + v for v in order]
            for block, (_edges, orders) in enumerate(blocks)
            for order in orders
        ])
        classifier = GraphletClassifier(host, k)
        got = classifier.classify_batch(rows)
        bits = [classifier.induced_bits(row) for row in rows.tolist()]
        assert got.tolist() == [canonical_form(b, k) for b in bits]

        distinct = sorted(set(bits))
        refined = [_refined_reference(b, k) for b in distinct]
        assert classifier._refined(np.array(distinct)).tolist() == refined
        assert 0 < classifier.canonicalizations <= len(set(refined))
        assert classifier.stats_snapshot()["count.canonicalizations"] == (
            classifier.canonicalizations
        )

        successor = classifier.successor(host)
        assert np.array_equal(successor.classify_batch(rows), got)
        assert successor.canonicalizations == classifier.canonicalizations

    def test_isomorphic_patterns_share_one_canonicalization(self):
        """All 720 labellings of a triangle with a three-edge tail refine
        to one pattern: degrees and neighbour sums separate every
        vertex but the triangle's two far corners, which an
        automorphism swaps."""
        k = 6
        host = Graph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)], k
        )
        rows = np.array(list(itertools.permutations(range(k))))
        classifier = GraphletClassifier(host, k)
        assert len(set(classifier.classify_batch(rows).tolist())) == 1
        assert classifier.canonicalizations == 1


class TestEstimatesContainer:
    def make(self):
        return GraphletEstimates(
            k=4,
            counts={1: 90.0, 2: 10.0},
            samples=100,
            hits={1: 90, 2: 10},
            method="naive",
        )

    def test_total_and_frequency(self):
        est = self.make()
        assert est.total == pytest.approx(100.0)
        assert est.frequency(1) == pytest.approx(0.9)
        assert est.frequency(7) == 0.0

    def test_frequencies_sum_to_one(self):
        freqs = self.make().frequencies()
        assert sum(freqs.values()) == pytest.approx(1.0)

    def test_empty(self):
        empty = GraphletEstimates(k=4, counts={})
        assert empty.total == 0.0
        assert empty.frequencies() == {}
        assert empty.frequency(1) == 0.0

    def test_top(self):
        assert self.make().top(1) == [(1, 90.0)]

    def test_distinct(self):
        est = GraphletEstimates(k=4, counts={1: 5.0, 2: 0.0})
        assert est.distinct_graphlets() == 1


class TestErrorMetrics:
    def test_count_errors(self):
        est = GraphletEstimates(k=4, counts={1: 110.0, 2: 0.0})
        truth = {1: 100.0, 2: 50.0, 3: 0.0}
        errors = count_errors(est, truth)
        assert errors[1] == pytest.approx(0.1)
        assert errors[2] == pytest.approx(-1.0)  # missed
        assert 3 not in errors  # zero-truth graphlets skipped

    def test_l1_error_perfect(self):
        est = GraphletEstimates(k=4, counts={1: 60.0, 2: 40.0})
        truth = {1: 600.0, 2: 400.0}
        assert l1_error(est, truth) == pytest.approx(0.0)

    def test_l1_error_disjoint(self):
        est = GraphletEstimates(k=4, counts={1: 1.0})
        truth = {2: 1.0}
        assert l1_error(est, truth) == pytest.approx(2.0)

    def test_l1_requires_truth(self):
        with pytest.raises(ValueError):
            l1_error(GraphletEstimates(k=4, counts={}), {})

    def test_accuracy_census(self):
        est = GraphletEstimates(k=4, counts={1: 100.0, 2: 30.0, 3: 500.0})
        truth = {1: 100.0, 2: 100.0, 3: 400.0}
        count, fraction = accuracy_census(est, truth, tolerance=0.5)
        assert count == 2  # graphlet 2 is off by 70%
        assert fraction == pytest.approx(2 / 3)

    def test_accuracy_census_requires_support(self):
        with pytest.raises(ValueError):
            accuracy_census(GraphletEstimates(k=4, counts={}), {1: 0.0})

    def test_rarest_frequency(self):
        est = GraphletEstimates(
            k=4,
            counts={1: 1000.0, 2: 1.0, 3: 0.5},
            hits={1: 900, 2: 12, 3: 3},
        )
        rarest = rarest_frequency(est, min_hits=10)
        # Graphlet 3 has too few hits; graphlet 2 qualifies.
        assert rarest == pytest.approx(est.frequency(2))

    def test_rarest_frequency_none(self):
        est = GraphletEstimates(k=4, counts={1: 1.0}, hits={1: 2})
        assert rarest_frequency(est, min_hits=10) is None


class TestSerialization:
    def test_json_round_trip(self):
        original = GraphletEstimates(
            k=5,
            counts={0x32: 12.5, 0x3F: 3.0},
            samples=400,
            hits={0x32: 390, 0x3F: 10},
            method="ags",
        )
        restored = GraphletEstimates.from_json(original.to_json())
        assert restored == original

    def test_json_defaults(self):
        restored = GraphletEstimates.from_json(
            '{"k": 4, "counts": {"0x2": 1.0}}'
        )
        assert restored.k == 4
        assert restored.counts == {2: 1.0}
        assert restored.hits == {}
        assert restored.method == "naive"
