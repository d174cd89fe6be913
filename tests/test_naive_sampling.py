"""Tests for the naive (CC-style) estimator against exact ground truth."""

from __future__ import annotations

import pytest

from repro.errors import SamplingError
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.urn import TreeletUrn
from repro.exact.brute import brute_force_counts
from repro.graph.generators import complete_graph, erdos_renyi
from repro.graphlets.enumerate import clique_graphlet
from repro.graphlets.spanning import spanning_tree_count
from repro.sampling.naive import naive_estimate, naive_hit_counts
from repro.sampling.occurrences import GraphletClassifier


def build_pipeline(graph, k, seed):
    coloring = ColoringScheme.uniform(graph.num_vertices, k, rng=seed)
    table = build_table(graph, coloring)
    urn = TreeletUrn(graph, table, coloring)
    classifier = GraphletClassifier(graph, k)
    return urn, classifier, coloring


class TestEstimatorTargets:
    def test_matches_exact_colorful_counts(self, rng):
        """ĝ_i must converge to c_i / p_k, the coloring-conditional target."""
        graph = erdos_renyi(18, 40, rng=30)
        k = 4
        urn, classifier, coloring = build_pipeline(graph, k, seed=31)
        exact_colorful = brute_force_counts(graph, k, coloring=coloring)
        estimates = naive_estimate(urn, classifier, 60_000, rng)
        p_k = coloring.colorful_probability()
        for bits, colorful_count in exact_colorful.items():
            target = colorful_count / p_k
            if colorful_count >= 3:  # enough copies for sampling accuracy
                assert estimates.counts[bits] == pytest.approx(
                    target, rel=0.25
                ), hex(bits)

    def test_complete_graph_single_graphlet(self, rng):
        """On K_6 every 4-subset induces the 4-clique."""
        graph = complete_graph(6)
        k = 4
        urn, classifier, coloring = build_pipeline(graph, k, seed=32)
        estimates = naive_estimate(urn, classifier, 4000, rng)
        assert set(estimates.counts) == {clique_graphlet(4)}
        exact = brute_force_counts(graph, k, coloring=coloring)
        expected = exact[clique_graphlet(4)] / coloring.colorful_probability()
        assert estimates.counts[clique_graphlet(4)] == pytest.approx(expected)

    def test_hits_recorded(self, rng):
        graph = erdos_renyi(20, 50, rng=33)
        urn, classifier, _ = build_pipeline(graph, 4, seed=34)
        estimates = naive_estimate(urn, classifier, 500, rng)
        assert sum(estimates.hits.values()) == 500
        assert estimates.samples == 500
        assert estimates.method == "naive"


class TestMechanics:
    def test_hit_counts_total(self, rng):
        graph = erdos_renyi(20, 50, rng=35)
        urn, classifier, _ = build_pipeline(graph, 4, seed=36)
        hits = naive_hit_counts(urn, classifier, 200, rng)
        assert sum(hits.values()) == 200

    def test_requires_positive_samples(self, rng):
        graph = erdos_renyi(20, 50, rng=37)
        urn, classifier, _ = build_pipeline(graph, 4, seed=38)
        with pytest.raises(SamplingError):
            naive_estimate(urn, classifier, 0, rng)

    def test_sigma_passthrough(self, rng):
        """Precomputed σ values must be used as-is."""
        graph = complete_graph(5)
        k = 4
        # Seed 42 yields a coloring with all 4 colors on the 5 vertices.
        urn, classifier, _ = build_pipeline(graph, k, seed=42)
        bits = clique_graphlet(4)
        true_sigma = spanning_tree_count(bits, k)
        doubled = naive_estimate(
            urn, classifier, 300, rng, sigma={bits: 2 * true_sigma}
        )
        normal = naive_estimate(urn, classifier, 300, rng)
        # Doubling sigma halves the estimate.
        assert doubled.counts[bits] == pytest.approx(
            normal.counts[bits] / 2, rel=0.25
        )

    def test_sigma_computed_once_per_graphlet(self):
        """Callers pass no ``sigma``, so every call asks for σ of each hit
        graphlet; the Kirchhoff determinant runs only on the first."""
        graph = erdos_renyi(20, 50, rng=39)
        urn, classifier, _ = build_pipeline(graph, 4, seed=40)
        first = naive_estimate(urn, classifier, 300, rng=0)
        misses = spanning_tree_count.cache_info().misses
        again = naive_estimate(urn, classifier, 300, rng=0)
        assert again.counts == first.counts
        assert spanning_tree_count.cache_info().misses == misses

    def test_estimator_unbiased_over_colorings(self):
        """E[ĝ_i] over colorings ≈ g_i (Theorem on ĝ_i = c_i / p_k)."""
        import numpy as np

        graph = erdos_renyi(16, 34, rng=40)
        k = 3
        truth = brute_force_counts(graph, k)
        runs = 40
        sums = {bits: 0.0 for bits in truth}
        for run in range(runs):
            coloring = ColoringScheme.uniform(16, k, rng=1000 + run)
            table = build_table(graph, coloring)
            urn = TreeletUrn(graph, table, coloring)
            classifier = GraphletClassifier(graph, k)
            estimates = naive_estimate(
                urn, classifier, 4000, np.random.default_rng(run)
            )
            for bits in truth:
                sums[bits] += estimates.counts.get(bits, 0.0) / runs
        for bits, true_count in truth.items():
            assert sums[bits] == pytest.approx(true_count, rel=0.25), hex(bits)
