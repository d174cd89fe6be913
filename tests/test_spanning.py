"""Tests for spanning-tree counts (σ_i) and shape tables (σ_ij)."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphlets.encoding import adjacency_sets, encode_edges, is_connected_graphlet
from repro.graphlets.enumerate import (
    clique_graphlet,
    cycle_graphlet,
    enumerate_graphlets,
    path_graphlet,
    star_graphlet,
)
import repro.graphlets.spanning as spanning
from repro.graph.datasets import load_dataset
from repro.graphlets.spanning import (
    SigmaCache,
    spanning_tree_count,
    spanning_tree_shape_counts,
    spanning_tree_shape_counts_batch,
)
from repro.motivo import MotivoConfig, MotivoCounter
from repro.treelets.encoding import canonical_free, spanning_tree_shapes
from repro.treelets.registry import TreeletRegistry


class TestKirchhoff:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_cayley_cliques(self, k):
        assert spanning_tree_count(clique_graphlet(k), k) == k ** (k - 2)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_cycles(self, k):
        assert spanning_tree_count(cycle_graphlet(k), k) == k

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_trees_have_one(self, k):
        assert spanning_tree_count(path_graphlet(k), k) == 1
        assert spanning_tree_count(star_graphlet(k), k) == 1

    def test_disconnected_is_zero(self):
        bits = encode_edges([(0, 1)], 4)
        assert spanning_tree_count(bits, 4) == 0

    def test_k1(self):
        assert spanning_tree_count(0, 1) == 1

    def test_complete_bipartite(self):
        # σ(K_{2,3}) = 2^(3-1) * 3^(2-1) = 12.
        k23 = encode_edges([(i, j) for i in range(2) for j in range(2, 5)], 5)
        assert spanning_tree_count(k23, 5) == 12


class TestShapeCounts:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_sums_to_kirchhoff_for_all_graphlets(self, k):
        registry = TreeletRegistry(k)
        for bits in enumerate_graphlets(k):
            table = spanning_tree_shape_counts(bits, k, registry)
            assert sum(table.values()) == spanning_tree_count(bits, k)

    def test_star_has_only_star_shape(self):
        k = 5
        table = spanning_tree_shape_counts(star_graphlet(k), k)
        assert len(table) == 1
        (shape, count), = table.items()
        assert count == 1
        # The single spanning tree is the star itself.
        from repro.treelets.encoding import encode_children

        star_shape = canonical_free(encode_children([0] * (k - 1)))
        assert shape == star_shape

    def test_cycle_spans_only_paths(self):
        k = 6
        table = spanning_tree_shape_counts(cycle_graphlet(k), k)
        from repro.treelets.encoding import encode_parent_vector

        path_shape = canonical_free(
            encode_parent_vector([-1, 0, 1, 2, 3, 4])
        )
        assert table == {path_shape: k}

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_matches_independent_brute_force(self, k):
        """Cross-check the DP against explicit edge-subset enumeration."""
        for bits in enumerate_graphlets(k):
            dp_table = spanning_tree_shape_counts(bits, k)
            brute = spanning_tree_shapes(adjacency_sets(bits, k), k)
            assert dp_table == brute

    def test_shapes_are_canonical_free(self):
        k = 5
        for bits in enumerate_graphlets(k):
            for shape in spanning_tree_shape_counts(bits, k):
                assert canonical_free(shape) == shape


_ONE_AT_A_TIME = {
    bits: spanning_tree_shape_counts(bits, 5) for bits in enumerate_graphlets(5)
}


class _Spy:
    """Records the graphlets each union build computes."""

    def __init__(self, monkeypatch):
        self.calls = []
        compute = spanning._union_shape_counts

        def spy(graphlets, k, registry):
            self.calls.append(list(graphlets))
            return compute(graphlets, k, registry)

        monkeypatch.setattr(spanning, "_union_shape_counts", spy)


class TestBatch:
    @given(
        st.permutations(sorted(_ONE_AT_A_TIME)),
        st.lists(st.integers(min_value=0, max_value=21), max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_order_and_partition_matches_one_at_a_time(self, order, cuts):
        bounds = [0, *sorted(cuts), len(order)]
        for lo, hi in zip(bounds, bounds[1:]):
            part = order[lo:hi]
            tables = spanning_tree_shape_counts_batch(part, 5)
            assert list(tables) == part
            for bits in part:
                # Same shapes, counts and insertion order.
                assert list(tables[bits].items()) == list(
                    _ONE_AT_A_TIME[bits].items()
                )

    def test_oversized_batch_splits_into_bounded_builds(self, monkeypatch):
        spy = _Spy(monkeypatch)
        # Room for five k = 5 graphlets per build: 59 keys, 5 vertices each.
        monkeypatch.setattr(spanning, "_UNION_BUILD_BYTES", 5 * 5 * 59 * 8)
        order = sorted(_ONE_AT_A_TIME)
        tables = spanning_tree_shape_counts_batch(order, 5)
        assert [len(call) for call in spy.calls] == [5, 5, 5, 5, 1]
        assert [list(tables[bits].items()) for bits in order] == [
            list(_ONE_AT_A_TIME[bits].items()) for bits in order
        ]

    def test_duplicates_collapse(self):
        bits = clique_graphlet(5)
        tables = spanning_tree_shape_counts_batch([bits, bits, bits], 5)
        assert tables == {bits: _ONE_AT_A_TIME[bits]}

    def test_empty_batch(self):
        assert spanning_tree_shape_counts_batch([], 5) == {}

    def test_cached_entries_are_not_recomputed(self, monkeypatch):
        spy = _Spy(monkeypatch)
        cache = SigmaCache()
        clique, cycle, path = (
            clique_graphlet(5), cycle_graphlet(5), path_graphlet(5)
        )
        sentinel = {0: 7}  # not a real table: proves the cache answered
        cache.put(clique, 5, sentinel)
        tables = spanning_tree_shape_counts_batch(
            [clique, cycle, path], 5, cache=cache
        )
        assert spy.calls == [[cycle, path]]
        assert tables[clique] == sentinel
        assert tables[cycle] == _ONE_AT_A_TIME[cycle]
        assert cache.get(path, 5) == _ONE_AT_A_TIME[path]
        spanning_tree_shape_counts_batch([path, cycle, clique], 5, cache=cache)
        assert spy.calls == [[cycle, path]]

    def test_build_counters_stay_private(self):
        """σ work adds nothing to the caller's build counters."""
        counter = MotivoCounter(load_dataset("facebook"), MotivoConfig(k=5, seed=3))
        counter.build()
        before = counter.instrumentation.snapshot()
        counter.sample_ags(500, cover_threshold=30)
        after = counter.instrumentation.snapshot()
        for name in ("count.spmm_ops", "count.merge_ops", "time.buildup"):
            assert after.get(name) == before.get(name), name


def _estimate_digest(estimates) -> str:
    rows = sorted(
        (bits, value.hex(), estimates.hits.get(bits, 0))
        for bits, value in estimates.counts.items()
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


class TestFixedSeedDigests:
    """Estimates pinned before σ_ij moved to the batched build-up.  The
    AGS digests are those of the per-sample switching schedule (the run
    that re-picks the shape right after each covering sample)."""

    @pytest.mark.parametrize(
        "name, k, seed, naive, ags, switches",
        [
            ("facebook", 5, 777, "7e8418ef5fc12e18", "e3e3ef42ee9a7cfa", 4),
            ("amazon", 6, 31, "d287b58a4ca2a4ad", "2f6812a4b73745df", 7),
        ],
    )
    def test_naive_and_ags(self, name, k, seed, naive, ags, switches):
        counter = MotivoCounter(load_dataset(name), MotivoConfig(k=k, seed=seed))
        counter.build()
        assert _estimate_digest(counter.sample_naive(2000)) == naive
        result = counter.sample_ags(3000, cover_threshold=60)
        assert _estimate_digest(result.estimates) == ags
        assert result.switches == switches


class TestSigmaCache:
    def test_memory_round_trip(self):
        cache = SigmaCache()
        bits = clique_graphlet(4)
        table = spanning_tree_shape_counts(bits, 4, cache=cache)
        assert cache.get(bits, 4) == table
        assert len(cache) == 1

    def test_disk_round_trip(self, tmp_path):
        directory = str(tmp_path / "sigma")
        cache = SigmaCache(directory)
        bits = cycle_graphlet(5)
        table = spanning_tree_shape_counts(bits, 5, cache=cache)
        cache.flush()

        fresh = SigmaCache(directory)
        assert fresh.get(bits, 5) == table

    def test_flush_without_directory_is_noop(self):
        cache = SigmaCache()
        cache.put(1, 3, {0: 1})
        cache.flush()  # must not raise

    def test_missing_entry(self, tmp_path):
        cache = SigmaCache(str(tmp_path))
        assert cache.get(99, 4) is None
