"""Tests for the Vose alias sampler (§3.3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.colorcoding import ColoringScheme, TreeletUrn, build_table
from repro.errors import SamplingError
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.util.alias import AliasSampler, loop_tables
from support.graphgen import powerlaw_edges


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(SamplingError):
            AliasSampler([])

    def test_rejects_negative(self):
        with pytest.raises(SamplingError):
            AliasSampler([1.0, -0.5])

    def test_rejects_all_zero(self):
        with pytest.raises(SamplingError):
            AliasSampler([0.0, 0.0])

    def test_rejects_nan(self):
        with pytest.raises(SamplingError):
            AliasSampler([1.0, float("nan")])

    def test_rejects_matrix(self):
        with pytest.raises(SamplingError):
            AliasSampler(np.ones((2, 2)))

    def test_size_and_total(self):
        sampler = AliasSampler([2.0, 3.0, 5.0])
        assert sampler.size == 3
        assert sampler.total_weight == pytest.approx(10.0)


class TestExactDistribution:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1,
            max_size=40,
        ).filter(lambda ws: sum(ws) > 1e-9)
    )
    @settings(max_examples=200)
    def test_table_encodes_normalized_weights(self, weights):
        sampler = AliasSampler(weights)
        implied = sampler.probabilities()
        expected = np.asarray(weights) / sum(weights)
        assert np.allclose(implied, expected, atol=1e-9)

    def test_zero_weight_never_sampled(self, rng):
        sampler = AliasSampler([0.0, 1.0, 0.0, 1.0])
        draws = sampler.sample_many(2000, rng)
        assert set(np.unique(draws)) <= {1, 3}


class TestSampling:
    def test_single_outcome(self, rng):
        sampler = AliasSampler([7.0])
        assert sampler.sample(rng) == 0

    def test_empirical_frequencies(self, rng):
        weights = [1.0, 2.0, 3.0, 4.0]
        sampler = AliasSampler(weights)
        draws = sampler.sample_many(40_000, rng)
        counts = np.bincount(draws, minlength=4) / draws.size
        expected = np.asarray(weights) / 10.0
        assert np.allclose(counts, expected, atol=0.02)

    def test_sample_many_negative(self, rng):
        sampler = AliasSampler([1.0])
        with pytest.raises(SamplingError):
            sampler.sample_many(-1, rng)

    def test_sample_many_zero(self, rng):
        sampler = AliasSampler([1.0, 1.0])
        assert AliasSampler([1.0, 1.0]).sample_many(0, rng).size == 0

    def test_deterministic_given_seed(self):
        sampler = AliasSampler([1.0, 2.0, 3.0])
        a = sampler.sample_many(50, np.random.default_rng(5))
        b = sampler.sample_many(50, np.random.default_rng(5))
        assert np.array_equal(a, b)


def _loop_oracle(weights) -> tuple:
    """Vose's loop over the weights, scaled exactly as the sampler does."""
    w = np.asarray(weights, dtype=np.float64)
    return loop_tables(w * (w.size / float(w.sum())))


def _assert_loop_table(sampler: AliasSampler, weights) -> None:
    prob, alias = _loop_oracle(weights)
    assert sampler._prob.tobytes() == prob.tobytes()
    assert sampler._alias.tobytes() == alias.tobytes()


_tied = st.lists(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0]), min_size=1, max_size=60
)
_all_equal = st.builds(
    lambda value, n: [value] * n,
    st.floats(min_value=1e-6, max_value=1e6, allow_subnormal=False),
    st.integers(min_value=1, max_value=80),
)
_integers = st.lists(
    st.integers(min_value=0, max_value=2**40).map(float),
    min_size=1, max_size=80,
)
_sparse_integers = st.lists(
    st.one_of(st.just(0.0), st.integers(1, 2**40).map(float)),
    min_size=1, max_size=80,
)
_floats = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False),
    min_size=1, max_size=80,
)
_corpus = st.one_of(
    _tied, _all_equal, _integers, _sparse_integers, _floats,
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=1),
).filter(lambda ws: sum(ws) > 0)


class TestLoopEquality:
    """The vectorized fold builds Vose's loop table byte for byte."""

    @given(_corpus)
    @settings(max_examples=400, deadline=None)
    def test_byte_equal_to_the_loop(self, weights):
        _assert_loop_table(AliasSampler(weights), weights)

    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    def test_all_equal_weights(self, n):
        for value in (1.0, 3.0, 0.1, 7.0):
            _assert_loop_table(AliasSampler([value] * n), [value] * n)

    def test_single_weight(self):
        sampler = AliasSampler([49.0])
        _assert_loop_table(sampler, [49.0])
        assert sampler.pick_from_uniforms(0.5, 0.999).tolist() == 0

    @pytest.mark.parametrize(
        "weights",
        [
            # Scaled to [0, 2/3, 2, 4/3]: the first large lands on 1 up
            # to rounding, so the candidate merge and the loop part ways.
            [0.0, 1.0, 3.0, 2.0],
            # The fold ends early: a large scaled to exactly 1.0 is left
            # while the loop still takes it in ...
            [101.0, 16.0, 87.0, 200.0],
            # ... or a small scaled to 1 - 2^-53 is left for it.
            [107.0, 115.0, 103.0, 87.0],
        ],
    )
    def test_near_tie_falls_back_to_the_loop(self, weights):
        sampler = AliasSampler(weights)
        assert sampler.fell_back
        _assert_loop_table(sampler, weights)

    def test_large_support(self):
        rng = np.random.default_rng(3)
        weights = np.floor(rng.pareto(1.5, 50_000) * 10)
        sampler = AliasSampler(weights)
        _assert_loop_table(sampler, weights)
        assert not sampler.fell_back


def _urn_over(graph: Graph, k: int, seed: int) -> TreeletUrn:
    coloring = ColoringScheme.uniform(graph.num_vertices, k, rng=seed)
    return TreeletUrn(graph, build_table(graph, coloring), coloring)


class TestUrnTables:
    """Root and shape aliases of real urns: loop tables, no fallback."""

    @pytest.mark.parametrize("kind", ["chung-lu", "erdos-renyi"])
    def test_root_and_shape_vectors(self, kind):
        if kind == "chung-lu":
            edges = powerlaw_edges(3000, 12_000, 2.5, seed=4)
            graph = Graph.from_edges(edges, n=3000)
        else:
            graph = erdos_renyi(3000, 9000, rng=5)
        urn = _urn_over(graph, 5, seed=6)
        _assert_loop_table(urn._root_alias, urn.table.root_weights())
        shapes = [s for s in urn.registry.free_shapes if urn.shape_total(s) > 0]
        for shape in shapes:
            alias = urn._shape_alias_for(shape)
            _assert_loop_table(alias, urn._shape_weight_vector(shape))
        counters = urn.instrumentation.counters
        assert counters["shape_alias_rebuilds"] == len(shapes)
        assert counters["alias_fallbacks"] == 0

    def test_fallbacks_are_counted(self):
        urn = _urn_over(erdos_renyi(60, 200, rng=1), 4, seed=2)
        assert urn.instrumentation.counters["alias_fallbacks"] == 0
        urn._alias_table(np.array([0.0, 1.0, 3.0, 2.0]))
        assert urn.instrumentation.counters["alias_fallbacks"] == 1
