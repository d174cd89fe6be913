"""Cross-module property-based tests (hypothesis) on the core invariants.

These tie together subsystems that were unit-tested in isolation: the DP
against Kirchhoff identities, classification against spanning-tree
structure, and the σ tables against the sampling probabilities they feed.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st

from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.descent import compile_program
from repro.colorcoding.incremental import apply_edge_updates
from repro.colorcoding.sharded import build_table_sharded
from repro.colorcoding.urn import TreeletUrn
from repro.errors import SamplingError
from repro.exact.brute import brute_force_colorful_treelet_total
from repro.exact.esu import exact_colorful_counts
from repro.graph.graph import Graph
from repro.graphlets.spanning import spanning_tree_count, spanning_tree_shape_counts
from repro.table.layer_store import ShardedStore
from repro.treelets.encoding import canonical_free
from repro.treelets.registry import TreeletRegistry
from support.oracle import (
    assert_layers_revalidate,
    assert_matches_oracle,
    has_partial_layer,
)


@st.composite
def small_graph(draw, min_n=6, max_n=12):
    """A random connected-ish simple graph."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    # Spanning-tree backbone guarantees connectivity.
    edges = [
        (draw(st.integers(min_value=0, max_value=v - 1)), v)
        for v in range(1, n)
    ]
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=2 * n,
        )
    )
    edges.extend((u, v) for u, v in extra if u != v)
    return Graph.from_edges(edges, n=n)


@st.composite
def colored_graph(draw, k, strict_palette=False, edgeless=False):
    """A small graph and a fixed ``k``-coloring of it.

    ``strict_palette`` draws the colors from a strict subset of
    ``range(k)``, so at least one color never occurs; ``edgeless`` makes
    about half the graphs ``Graph.empty``.
    """
    graph = draw(small_graph())
    if edgeless and draw(st.booleans()):
        graph = Graph.empty(graph.num_vertices)
    palette = list(range(k))
    if strict_palette:
        size = draw(st.integers(min_value=1, max_value=k - 1))
        palette = draw(st.permutations(palette))[:size]
    colors = [
        draw(st.sampled_from(palette)) for _ in range(graph.num_vertices)
    ]
    return graph, ColoringScheme.fixed(colors, k=k)


@st.composite
def partially_colored_case(draw):
    """A colored graph missing some color, k = 3–5, with an edge batch."""
    k = draw(st.integers(min_value=3, max_value=5))
    graph, coloring = draw(
        colored_graph(k, strict_palette=True, edgeless=True)
    )
    n = graph.num_vertices
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda edge: edge[0] != edge[1])
    updates = [("+", u, v) for u, v in draw(st.lists(pair, max_size=3))]
    edges = list(graph.edges())
    if edges:
        deleted = draw(st.lists(st.sampled_from(edges), max_size=3))
        updates += [("-", u, v) for u, v in deleted]
    return graph, coloring, draw(st.permutations(updates))


@st.composite
def churned_partial_case(draw):
    """A :func:`partially_colored_case` graph with a mixed batch naming
    pairs more than once: present edges toggled out (and maybe back),
    absent pairs in (and maybe out), duplicates — the last op wins, and
    a dense enough batch kills keys in the deletion pass and revives or
    creates them in the insertion pass."""
    k = draw(st.integers(min_value=3, max_value=5))
    graph, coloring = draw(colored_graph(k, strict_palette=True))
    n = graph.num_vertices
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda edge: edge[0] != edge[1])
    edges = list(graph.edges())
    pairs = draw(st.lists(pair, max_size=4))
    if edges:
        pairs += draw(st.lists(st.sampled_from(edges), max_size=6))
    ops = st.sampled_from(["+", "-"])
    updates = [(draw(ops), u, v) for u, v in pairs for _ in range(
        draw(st.integers(min_value=1, max_value=3))
    )]
    return graph, coloring, draw(st.permutations(updates))


@st.composite
def colored_graph_any_k(draw):
    """A :func:`colored_graph` case at a drawn k = 3–5."""
    k = draw(st.integers(min_value=3, max_value=5))
    return draw(colored_graph(k))


class TestAdmissibleCandidates:
    """The fused descent looks a split's prime factor up only at
    *admissible* candidates, whose ``C''`` leaves out the vertex's own
    color, and skips the rest as exact zeros.  That is exact only if no
    other candidate ever has a positive prime factor."""

    @given(
        colored_graph_any_k(),
        st.booleans(),
        st.sampled_from(["dense", "succinct"]),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    def test_positive_prime_factor_is_admissible(
        self, case, zero_rooting, layout
    ):
        graph, coloring = case
        k = coloring.k
        table = build_table(
            graph, coloring, zero_rooting=zero_rooting, layout=layout
        )
        program = compile_program(TreeletRegistry(k), table)
        verts = np.arange(graph.num_vertices, dtype=np.int64)
        own = np.left_shift(np.int64(1), coloring.colors)
        for gid, first, length in zip(
            program.grp_ids.tolist(),
            program.grp_start.tolist(),
            program.grp_len.tolist(),
        ):
            layer = table.layer(int(program.op_prime_size[gid >> k]))
            for cand in range(first, first + length):
                prime = layer.pairs_at(
                    np.full(verts.size, program.cand_prime_row[cand]), verts
                )
                inadmissible = (program.cand_sub[cand] & own) != 0
                assert not (prime[inadmissible] > 0.0).any()


class TestDpKirchhoffIdentity:
    @given(colored_graph(k=3))
    @settings(max_examples=30, deadline=None)
    def test_total_treelets_k3(self, data):
        graph, coloring = data
        table = build_table(graph, coloring, zero_rooting=True)
        expected = brute_force_colorful_treelet_total(graph, 3, coloring)
        assert table.root_weights().sum() == pytest.approx(expected)

    @given(colored_graph(k=4))
    @settings(max_examples=15, deadline=None)
    def test_total_treelets_k4(self, data):
        graph, coloring = data
        table = build_table(graph, coloring, zero_rooting=True)
        expected = brute_force_colorful_treelet_total(graph, 4, coloring)
        assert table.root_weights().sum() == pytest.approx(expected)


class TestPartialLayers:
    """Missing colors and edgeless graphs leave layers holding only part
    of their key universe; every builder must still equal the oracle."""

    @given(
        st.one_of(partially_colored_case(), churned_partial_case()),
        st.booleans(),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    def test_every_builder_matches_oracle(self, case, zero_rooting):
        graph, coloring, updates = case
        tables = [
            build_table(
                graph, coloring, zero_rooting=zero_rooting, layout=layout
            )
            for layout in ("dense", "succinct")
        ]
        assert has_partial_layer(tables[0])
        with tempfile.TemporaryDirectory() as directory:
            for num_shards in (1, 3):
                with ShardedStore(
                    num_shards, os.path.join(directory, str(num_shards))
                ) as store:
                    sharded = build_table_sharded(
                        graph, coloring, zero_rooting=zero_rooting,
                        store=store,
                    )
                    assert_matches_oracle(
                        sharded, graph, coloring, zero_rooting
                    )
        for table in tables:
            assert_matches_oracle(table, graph, coloring, zero_rooting)
        for table in tables:
            # The in-place run relinquishes the table, so it goes last.
            for in_place in (False, True):
                result = apply_edge_updates(
                    table, graph, updates, coloring, in_place=in_place
                )
                assert_matches_oracle(
                    result.table, result.graph, coloring, zero_rooting
                )
                assert_layers_revalidate(result.table)


class TestUrnSigmaConsistency:
    @given(colored_graph(k=4))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    def test_shape_totals_match_sigma_weighted_truth(self, data):
        """r_j = Σ_i c_i σ_ij: the urn's per-shape totals must equal the
        σ-weighted exact colorful graphlet counts."""
        graph, coloring = data
        k = 4
        table = build_table(graph, coloring, zero_rooting=True)
        try:
            urn = TreeletUrn(graph, table, coloring)
        except SamplingError:
            return  # no colorful treelets under this coloring
        truth = exact_colorful_counts(graph, k, coloring)
        registry = urn.registry
        expected = {shape: 0.0 for shape in registry.free_shapes}
        for bits, count in truth.items():
            for shape, sigma in spanning_tree_shape_counts(bits, k).items():
                expected[shape] += count * sigma
        for shape in registry.free_shapes:
            assert urn.shape_total(shape) == pytest.approx(
                expected[shape]
            ), shape

    @given(colored_graph(k=4))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    def test_total_is_sigma_weighted_sum(self, data):
        """t = Σ_i c_i σ_i — the denominator of the naive estimator."""
        graph, coloring = data
        k = 4
        table = build_table(graph, coloring, zero_rooting=True)
        truth = exact_colorful_counts(graph, k, coloring)
        expected = sum(
            count * spanning_tree_count(bits, k)
            for bits, count in truth.items()
        )
        assert table.root_weights().sum() == pytest.approx(expected)


class TestSampledCopiesAreConsistent:
    @given(colored_graph(k=4), st.integers(min_value=0, max_value=2**31))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    def test_shape_samples_span_compatible_graphlets(self, data, seed):
        """A copy drawn via sample(T) must land on a graphlet whose
        σ table actually contains T — the core AGS soundness property."""
        graph, coloring = data
        k = 4
        table = build_table(graph, coloring, zero_rooting=True)
        try:
            urn = TreeletUrn(graph, table, coloring)
        except SamplingError:
            return
        from repro.sampling.occurrences import GraphletClassifier

        classifier = GraphletClassifier(graph, k)
        rng = np.random.default_rng(seed)
        for shape in urn.registry.free_shapes:
            if urn.shape_total(shape) <= 0:
                continue
            matrix, treelets, _ = urn.sample_shape_batch(shape, 5, rng)
            for vertices, treelet in zip(matrix.tolist(), treelets.tolist()):
                assert canonical_free(treelet) == shape
                bits = classifier.classify(vertices)
                sigma = spanning_tree_shape_counts(bits, k)
                assert sigma.get(shape, 0) > 0


class TestRegistryClosure:
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_sigma_shapes_are_registry_shapes(self, k):
        """Every σ_ij shape of every graphlet is a registered free shape."""
        from repro.graphlets.enumerate import enumerate_graphlets

        registry = TreeletRegistry(k)
        known = set(registry.free_shapes)
        for bits in enumerate_graphlets(k):
            for shape in spanning_tree_shape_counts(bits, k, registry):
                assert shape in known
