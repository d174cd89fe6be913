"""Tests for the treelet urn: uniformity, shape restriction, row reuse."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.urn import TreeletUrn
from repro.exact.brute import brute_force_colorful_treelet_total
from repro.graph.generators import complete_graph, erdos_renyi, star_graph
from repro.treelets.encoding import canonical_free
from repro.util.instrument import Instrumentation


def make_urn(graph, k, seed, **kwargs):
    coloring = ColoringScheme.uniform(graph.num_vertices, k, rng=seed)
    table = build_table(graph, coloring)
    return TreeletUrn(graph, table, coloring, **kwargs)


class TestTotals:
    def test_total_matches_brute_force(self):
        graph = erdos_renyi(14, 30, rng=1)
        k = 4
        coloring = ColoringScheme.uniform(14, k, rng=2)
        table = build_table(graph, coloring)
        urn = TreeletUrn(graph, table, coloring)
        assert urn.total_treelets == pytest.approx(
            brute_force_colorful_treelet_total(graph, k, coloring)
        )

    def test_shape_totals_sum_to_total(self):
        urn = make_urn(erdos_renyi(20, 50, rng=3), 4, seed=4)
        total = sum(
            urn.shape_total(shape) for shape in urn.registry.free_shapes
        )
        assert total == pytest.approx(urn.total_treelets)

    def test_empty_urn_raises(self):
        # Two isolated vertices can never host a colorful 3-treelet.
        from repro.graph.graph import Graph

        graph = Graph.from_edges([(0, 1)], n=2)
        coloring = ColoringScheme.fixed([0, 1], k=3)
        table = build_table(graph, coloring)
        with pytest.raises(SamplingError, match="urn is empty"):
            TreeletUrn(graph, table, coloring)


class TestSampleValidity:
    def test_samples_are_colorful_connected_trees(self, rng):
        graph = erdos_renyi(25, 60, rng=5)
        k = 4
        coloring = ColoringScheme.uniform(25, k, rng=6)
        table = build_table(graph, coloring)
        urn = TreeletUrn(graph, table, coloring)
        for vertices in urn.sample_batch(300, rng)[0].tolist():
            assert len(vertices) == k
            assert len(set(vertices)) == k
            colors = {int(coloring.colors[v]) for v in vertices}
            assert len(colors) == k  # colorful
            # Vertices span a connected subgraph (a tree copy exists).
            sub = graph.subgraph(list(vertices))
            assert sub.is_connected()

    def test_root_is_color_zero_under_zero_rooting(self, rng):
        graph = erdos_renyi(25, 60, rng=7)
        coloring = ColoringScheme.uniform(25, 4, rng=8)
        table = build_table(graph, coloring, zero_rooting=True)
        urn = TreeletUrn(graph, table, coloring)
        for vertices in urn.sample_batch(100, rng)[0].tolist():
            assert int(coloring.colors[vertices[0]]) == 0


class TestUniformity:
    def test_uniform_over_copies_on_k4(self, rng):
        """On K_4 with distinct colors all 16 spanning trees are colorful;
        each of the 16 copies must appear equally often."""
        k = 4
        graph = complete_graph(k)
        coloring = ColoringScheme.fixed(list(range(k)), k=k)
        table = build_table(graph, coloring)
        urn = TreeletUrn(graph, table, coloring)
        assert urn.total_treelets == pytest.approx(16.0)

        draws = Counter()
        trials = 8000
        matrix, treelets, _ = urn.sample_batch(trials, rng)
        for vertices, treelet in zip(matrix.tolist(), treelets.tolist()):
            # Identify the copy by its edge set.
            edges = _copy_edges(urn, vertices, treelet)
            draws[edges] += 1
        assert len(draws) == 16
        expected = trials / 16
        for count in draws.values():
            assert abs(count - expected) < 5 * np.sqrt(expected)


def _copy_edges(urn, vertices, treelet):
    """Reconstruct the sampled tree's edge set from the DFS vertex order."""
    from repro.treelets.encoding import tree_edges

    edges = frozenset(
        tuple(sorted((vertices[a], vertices[b])))
        for a, b in tree_edges(treelet)
    )
    return edges


class TestShapeSampling:
    def test_sample_shape_returns_right_shape(self, rng):
        graph = erdos_renyi(25, 60, rng=9)
        k = 4
        urn = make_urn(graph, k, seed=10)
        for shape in urn.registry.free_shapes:
            if urn.shape_total(shape) <= 0:
                continue
            matrix, treelets, _ = urn.sample_shape_batch(shape, 50, rng)
            for vertices, treelet in zip(matrix.tolist(), treelets.tolist()):
                assert canonical_free(treelet) == shape
                assert len(set(vertices)) == k

    def test_star_graph_has_no_path_shape(self, rng):
        """K_{1,4} contains no colorful 4-path, only 4-stars and below."""
        graph = star_graph(6)
        k = 4
        urn = make_urn(graph, k, seed=11)
        registry = urn.registry
        from repro.treelets.encoding import encode_parent_vector

        path_shape = canonical_free(encode_parent_vector([-1, 0, 1, 2]))
        star_shape = canonical_free(encode_parent_vector([-1, 0, 0, 0]))
        assert urn.shape_total(path_shape) == 0
        assert urn.shape_total(star_shape) > 0
        with pytest.raises(SamplingError):
            urn.sample_shape_batch(path_shape, 1, rng)

    def test_alias_rebuild_counted(self, rng):
        urn = make_urn(erdos_renyi(20, 50, rng=12), 4, seed=13)
        shape = max(
            urn.registry.free_shapes, key=lambda s: urn.shape_total(s)
        )
        urn.sample_shape_batch(shape, 1, rng)
        urn.sample_shape_batch(shape, 1, rng)
        assert urn.instrumentation["shape_alias_rebuilds"] == 1


class TestGatheredRowReuse:
    """§3.2 neighbor buffering amortizes a hub's Θ(d_v) child sweep; the
    batched descent amortizes it for every vertex by building each
    gathered running-sum row once, however many samples run."""

    @pytest.mark.parametrize("batch", [500, 5000])
    def test_each_gathered_row_is_built_at_most_once(self, batch):
        graph = star_graph(60)
        k = 3
        coloring = ColoringScheme.uniform(61, k, rng=21)
        table = build_table(graph, coloring)
        inst = Instrumentation()
        urn = TreeletUrn(graph, table, coloring, instrumentation=inst)
        rng = np.random.default_rng(3)
        urn.sample_batch(batch, rng)
        first = inst["gathered_cumulative_builds"]
        urn.sample_batch(batch, rng)
        assert inst["gathered_cumulative_builds"] == first
        # The 3 gathered keys are the colors' singletons.  Every split
        # the descent reaches happens at the center, where the key of
        # the center's own color is inadmissible, so its row is never
        # built.
        assert urn.descent_program().num_gathered_keys == 3
        assert first == 2

    @pytest.mark.parametrize("layout", ["dense", "succinct"])
    def test_key_only_at_inadmissible_candidates_is_never_built(
        self, layout
    ):
        """Zero-rooted on a star whose center has color 0, every colorful
        3-treelet is rooted at the center, so every split happens there.
        The singleton key of the center's own color is a split candidate,
        but never an admissible one (its ``C''`` holds the center's
        color): its row is never built, and the draws still equal the
        ``method="loop"`` oracle row for row."""
        graph = star_graph(60)
        coloring = ColoringScheme.uniform(61, 3, rng=21)
        assert coloring.colors[0] == 0
        table = build_table(graph, coloring, layout=layout)
        urn = TreeletUrn(graph, table, coloring)
        program = urn.descent_program()
        row = table.layer(1).row_of(0, 1 << int(coloring.colors[0]))
        (own,) = np.flatnonzero(
            (program.gk_size == 1) & (program.gk_row == row)
        )
        assert own in program.cand_second_gkid
        uniforms = np.random.default_rng(5).random((3000, urn.draw_width))
        batched = urn.sample_batch(3000, uniforms=uniforms)
        loop = urn.sample_batch(3000, uniforms=uniforms, method="loop")
        for got, want in zip(batched, loop):
            assert np.array_equal(got, want)
        assert urn._gath_slot[own] == -1
        assert (np.delete(urn._gath_slot, own) >= 0).all()
