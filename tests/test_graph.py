"""Tests for the CSR graph substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.graph.generators import complete_graph, cycle_graph, path_graph


@st.composite
def edge_lists(draw, max_n=12, max_m=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    count = draw(st.integers(min_value=0, max_value=max_m))
    edges = [
        (
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.integers(min_value=0, max_value=n - 1)),
        )
        for _ in range(count)
    ]
    return n, edges


class TestConstruction:
    def test_empty(self):
        g = Graph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.degrees().tolist() == [0] * 5

    def test_negative_n(self):
        with pytest.raises(GraphError):
            Graph.empty(-1)

    def test_dedupe_and_self_loops(self):
        g = Graph.from_edges([(0, 1), (1, 0), (0, 1), (2, 2)], n=3)
        assert g.num_edges == 1
        assert g.degree(2) == 0

    def test_bad_edge_shapes(self):
        with pytest.raises(GraphError):
            Graph.from_edges([(0, 1, 2)])  # type: ignore[list-item]

    def test_negative_vertex(self):
        with pytest.raises(GraphError):
            Graph.from_edges([(-1, 0)])

    def test_n_too_small(self):
        with pytest.raises(GraphError):
            Graph.from_edges([(0, 5)], n=3)

    @given(edge_lists())
    @settings(max_examples=100)
    def test_array_input_matches_pairs(self, data):
        """An ``(m, 2)`` array is taken as it is, with the same bytes."""
        n, edges = data
        from_pairs = Graph.from_edges(edges, n=n)
        for array in (
            np.asarray(edges, dtype=np.int64).reshape(-1, 2),
            np.asarray(edges, dtype=np.int32).reshape(-1, 2),
        ):
            from_array = Graph.from_edges(array, n=n)
            assert np.array_equal(from_array.indptr, from_pairs.indptr)
            assert np.array_equal(from_array.indices, from_pairs.indices)
            assert from_array.fingerprint() == from_pairs.fingerprint()

    @given(edge_lists())
    @settings(max_examples=100)
    def test_from_edges_invariants(self, data):
        n, edges = data
        g = Graph.from_edges(edges, n=n)
        # Symmetric, sorted adjacency, no self-loops, degrees consistent.
        assert g.indices.shape[0] == 2 * g.num_edges
        for v in range(n):
            row = g.neighbors(v)
            assert np.all(np.diff(row) > 0)  # strictly sorted, no dupes
            assert v not in row
            for u in row:
                assert v in g.neighbors(int(u))


class TestAccessors:
    def test_neighbors_sorted(self):
        g = Graph.from_edges([(3, 1), (3, 0), (3, 2)])
        assert g.neighbors(3).tolist() == [0, 1, 2]

    def test_has_edge(self):
        g = cycle_graph(5)
        assert g.has_edge(0, 1)
        assert g.has_edge(4, 0)
        assert not g.has_edge(0, 2)

    def test_vertex_bounds(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            g.degree(3)
        with pytest.raises(GraphError):
            g.neighbors(-1)
        with pytest.raises(GraphError):
            g.has_edge(0, 7)

    def test_max_degree(self):
        from repro.graph.generators import star_graph

        assert star_graph(6).max_degree == 6
        assert Graph.empty(0).max_degree == 0

    def test_edges_iterator(self):
        g = complete_graph(4)
        edges = list(g.edges())
        assert len(edges) == 6
        assert all(u < v for u, v in edges)

    def test_repr(self):
        assert repr(path_graph(3)) == "Graph(n=3, m=2)"

    def test_equality_and_hash(self):
        a = cycle_graph(4)
        b = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != path_graph(4)
        assert a.__eq__(42) is NotImplemented


class TestDerived:
    def test_adjacency_csr_matches(self):
        g = cycle_graph(6)
        a = g.adjacency_csr()
        dense = a.toarray()
        assert dense.sum() == 2 * g.num_edges
        assert (dense == dense.T).all()
        # Cached object is reused.
        assert g.adjacency_csr() is a

    def test_induced_adjacency(self):
        g = complete_graph(5)
        block = g.induced_adjacency([0, 2, 4])
        assert block.sum() == 6  # K3, symmetric

    def test_subgraph_relabels(self):
        g = cycle_graph(6)
        sub = g.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2  # path 0-1-2

    def test_subgraph_duplicate_vertices(self):
        with pytest.raises(GraphError):
            cycle_graph(4).subgraph([0, 0, 1])

    def test_connected_components(self):
        g = Graph.from_edges([(0, 1), (2, 3)], n=5)
        components = g.connected_components()
        assert sorted(map(tuple, components)) == [(0, 1), (2, 3), (4,)]
        assert not g.is_connected()
        assert cycle_graph(5).is_connected()
        assert Graph.empty(1).is_connected()
        assert Graph.empty(0).is_connected()

    def test_spmv_neighbor_sum(self):
        """A @ x computes per-vertex neighbor sums — the DP kernel."""
        g = path_graph(4)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        sums = g.adjacency_csr().dot(x)
        assert sums.tolist() == [2.0, 4.0, 6.0, 3.0]
