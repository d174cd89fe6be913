"""Tests for the vectorized build-up phase against exact references.

The strongest invariants in the library live here:

* the vectorized float DP equals the exact big-int CC baseline entry for
  entry on random graphs (several k, several colorings);
* the total treelet count equals the independent Kirchhoff-sum identity
  Σ_S σ(G[S]) over colorful subsets;
* 0-rooting keeps exactly the color-0 rows of the k-layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BuildError
from repro.colorcoding.buildup import build_table
from repro.colorcoding.buildup_baseline import build_hash_table
from repro.colorcoding.coloring import ColoringScheme
from repro.exact.brute import brute_force_colorful_treelet_total
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    star_graph,
)
from repro.treelets.encoding import getsize
from repro.util.instrument import Instrumentation


def assert_tables_equal(fast_table, hash_table, n):
    """The vectorized table must match the exact baseline everywhere."""
    reference = hash_table.to_encoding_dict()
    for (encoding, mask), per_vertex in reference.items():
        layer = fast_table.layer(getsize(encoding))
        row = layer.counts_for(encoding, mask)
        for v, expected in per_vertex.items():
            got = 0.0 if row is None else float(row[v])
            assert got == pytest.approx(expected, rel=1e-9), (
                encoding, mask, v,
            )
    # And the fast table must not contain extras.
    for h in range(1, fast_table.k + 1):
        layer = fast_table.layer(h)
        for row_index, key in enumerate(layer.keys):
            values = layer.counts[row_index]
            for v in np.nonzero(values)[0]:
                assert reference.get(key, {}).get(int(v), 0) == pytest.approx(
                    float(values[v]), rel=1e-9
                )


class TestAgainstExactBaseline:
    @pytest.mark.parametrize(
        "n,m,k,seed",
        [
            (18, 30, 3, 0),
            (18, 40, 4, 1),
            (16, 36, 5, 2),
            (25, 45, 4, 3),
        ],
    )
    def test_random_graphs(self, n, m, k, seed):
        graph = erdos_renyi(n, m, rng=seed)
        coloring = ColoringScheme.uniform(n, k, rng=seed + 100)
        fast = build_table(graph, coloring, zero_rooting=False)
        slow = build_hash_table(graph, coloring, zero_rooting=False)
        assert_tables_equal(fast, slow, n)

    def test_biased_coloring_agrees_too(self):
        graph = erdos_renyi(20, 40, rng=5)
        coloring = ColoringScheme.biased(20, 4, lam=0.2, rng=6)
        fast = build_table(graph, coloring, zero_rooting=False)
        slow = build_hash_table(graph, coloring, zero_rooting=False)
        assert_tables_equal(fast, slow, 20)


class TestSuccinctPairVariant:
    """CC's algorithm over succinct words (the Figure 2 middle point)."""

    @pytest.mark.parametrize("seed,k", [(0, 3), (1, 4), (2, 5)])
    def test_matches_pointer_baseline(self, seed, k):
        from repro.colorcoding.buildup_baseline import build_succinct_pair_table

        graph = erdos_renyi(16, 34, rng=seed)
        coloring = ColoringScheme.uniform(16, k, rng=seed + 60)
        pointer = build_hash_table(graph, coloring).to_encoding_dict()
        succinct = build_succinct_pair_table(graph, coloring)
        assert succinct == pointer

    def test_counts_check_and_merge_ops(self):
        from repro.colorcoding.buildup_baseline import build_succinct_pair_table

        graph = erdos_renyi(12, 24, rng=3)
        coloring = ColoringScheme.uniform(12, 3, rng=4)
        inst = Instrumentation()
        build_succinct_pair_table(graph, coloring, instrumentation=inst)
        assert inst["check_and_merge"] > 0
        assert inst.timings["check_and_merge"] > 0


class TestKnownGraphs:
    def test_path_graph_path_counts(self):
        """On P_n with all-distinct colors every subpath is colorful."""
        n, k = 4, 4
        graph = path_graph(n)
        coloring = ColoringScheme.fixed(list(range(n)), k=k)
        table = build_table(graph, coloring, zero_rooting=False)
        # P4 contains exactly one spanning path; rooted copies at the two
        # ends use the end-rooted treelet shape.
        total = table.root_weights().sum()
        # Each of the 1 spanning trees is counted once per vertex (4 roots).
        assert total == pytest.approx(4.0)

    def test_star_graph(self):
        k = 4
        graph = star_graph(3)  # K_{1,3} on 4 vertices
        coloring = ColoringScheme.fixed([0, 1, 2, 3], k=k)
        table = build_table(graph, coloring, zero_rooting=False)
        assert table.root_weights().sum() == pytest.approx(4.0)

    def test_complete_graph_treelet_total(self):
        """On K_k with distinct colors: total k-treelet copies = k^{k-2}
        spanning trees, each rooted at each of the k vertices."""
        for k in (3, 4, 5):
            graph = complete_graph(k)
            coloring = ColoringScheme.fixed(list(range(k)), k=k)
            table = build_table(graph, coloring, zero_rooting=False)
            assert table.root_weights().sum() == pytest.approx(
                k ** (k - 2) * k
            )


class TestTreeletTotalIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_total_matches_kirchhoff_sum(self, seed):
        """Σ_v occ(v) (0-rooted) == Σ_{colorful S} σ(G[S])."""
        graph = erdos_renyi(16, 34, rng=seed)
        k = 4
        coloring = ColoringScheme.uniform(16, k, rng=seed + 50)
        table = build_table(graph, coloring, zero_rooting=True)
        expected = brute_force_colorful_treelet_total(graph, k, coloring)
        assert table.root_weights().sum() == pytest.approx(expected)

    def test_cycle_exact(self):
        """C_n, k = n, distinct colors: n spanning trees (paths), 0-rooted
        counts each exactly once."""
        n = 6
        graph = cycle_graph(n)
        coloring = ColoringScheme.fixed(list(range(n)), k=n)
        table = build_table(graph, coloring, zero_rooting=True)
        assert table.root_weights().sum() == pytest.approx(n)


class TestZeroRooting:
    def test_k_layer_restricted_to_color_zero(self):
        graph = erdos_renyi(20, 45, rng=7)
        k = 4
        coloring = ColoringScheme.uniform(20, k, rng=8)
        rooted = build_table(graph, coloring, zero_rooting=True)
        weights = rooted.root_weights()
        non_zero_color = coloring.colors != 0
        assert np.all(weights[non_zero_color] == 0)

    def test_total_reduced_by_factor_k(self):
        """Every copy is counted k times without 0-rooting, once with."""
        graph = erdos_renyi(20, 45, rng=9)
        k = 4
        coloring = ColoringScheme.uniform(20, k, rng=10)
        rooted = build_table(graph, coloring, zero_rooting=True)
        unrooted = build_table(graph, coloring, zero_rooting=False)
        assert unrooted.root_weights().sum() == pytest.approx(
            k * rooted.root_weights().sum()
        )

    def test_smaller_layers_identical(self):
        graph = erdos_renyi(15, 30, rng=11)
        coloring = ColoringScheme.uniform(15, 4, rng=12)
        rooted = build_table(graph, coloring, zero_rooting=True)
        unrooted = build_table(graph, coloring, zero_rooting=False)
        for h in (1, 2, 3):
            a, b = rooted.layer(h), unrooted.layer(h)
            assert a.keys == b.keys
            assert np.allclose(a.counts, b.counts)


class TestValidation:
    def test_k_too_small(self):
        graph = path_graph(3)
        with pytest.raises(BuildError):
            build_table(graph, ColoringScheme.fixed([0, 0, 0], k=1))

    def test_vertex_count_mismatch(self):
        graph = path_graph(3)
        with pytest.raises(BuildError):
            build_table(graph, ColoringScheme.uniform(5, 3, rng=0))

    def test_registry_mismatch(self):
        from repro.treelets.registry import TreeletRegistry

        graph = path_graph(3)
        with pytest.raises(BuildError):
            build_table(
                graph,
                ColoringScheme.uniform(3, 3, rng=0),
                registry=TreeletRegistry(4),
            )

    def test_instrumentation_counts_kernels(self):
        graph = erdos_renyi(15, 30, rng=15)
        coloring = ColoringScheme.uniform(15, 4, rng=16)
        inst = Instrumentation()
        build_table(graph, coloring, instrumentation=inst)
        assert inst["merge_ops"] > 0
        assert inst.timings["buildup"] > 0
