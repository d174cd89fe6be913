"""Tests for the sharded layer store and the combination plans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TableError
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.plans import compile_plans, full_universe_keys
from repro.colorcoding.sharded import build_table_sharded
from repro.graph.generators import erdos_renyi
from repro.table.layer_store import ShardedStore
from repro.treelets.encoding import getsize
from repro.treelets.registry import TreeletRegistry
from repro.util.bitops import popcount


@pytest.fixture()
def workload():
    graph = erdos_renyi(30, 90, rng=21)
    coloring = ColoringScheme.uniform(30, 4, rng=22)
    return graph, coloring


class TestBackendsAgree:
    def test_all_backends_same_table(self, tmp_path, workload):
        graph, coloring = workload
        reference = build_table(graph, coloring)
        with ShardedStore(3, str(tmp_path / "shards")) as store:
            sharded = build_table_sharded(graph, coloring, store=store)
            for h in range(1, 5):
                assert reference.layer(h).keys == sharded.layer(h).keys
                assert np.array_equal(
                    reference.layer(h).counts,
                    np.asarray(sharded.layer(h).counts),
                )


class TestShardedStore:
    def test_bounds_cover_all_vertices(self, tmp_path):
        store = ShardedStore(3, str(tmp_path))
        bounds = store.shard_bounds(10)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert all(bounds[i] <= bounds[i + 1] for i in range(3))

    def test_read_shard_follows_recommits(self, tmp_path):
        # Headers are parsed once per committed file; a recommit with a
        # new shape (what compaction does) must be read afresh.
        with ShardedStore(1, str(tmp_path / "store")) as store:
            for rows in (5, 2):
                block = np.arange(rows * 3, dtype=np.float64).reshape(rows, 3)
                tmp = store.shard_tmp_path(4, 0)
                with open(tmp, "wb") as handle:
                    np.lib.format.write_array(handle, block)
                store.commit_shard(4, 0, tmp)
                assert np.array_equal(store.read_shard(4, 0), block)
                assert np.array_equal(
                    store.read_shard(4, 0, 1, 9), block[1:]
                )

    def test_validation(self, tmp_path):
        with pytest.raises(TableError):
            ShardedStore(0, str(tmp_path))
        store = ShardedStore(2, str(tmp_path))
        with pytest.raises(TableError):
            store.layer_keys(3)


class TestPlans:
    @pytest.fixture(scope="class")
    def registry(self):
        return TreeletRegistry(5)

    def test_decompositions_export(self, registry):
        rows = registry.decompositions_of_size(3)
        assert len(rows) == len(registry.treelets_of_size(3))
        for treelet, t_prime, t_second, beta in rows:
            assert registry.decomposition(treelet) == (t_prime, t_second, beta)
        with pytest.raises(Exception):
            registry.decompositions_of_size(1)

    def test_level_plan_covers_universe(self, registry):
        compiled = compile_plans(registry)
        for h in range(2, 6):
            level = compiled[h]
            expected = {
                (t, mask)
                for t in registry.treelets_of_size(h)
                for mask in range(1 << registry.k)
                if popcount(mask) == h
            }
            assert set(level.keys) == expected
            assert level.betas.shape == (len(level.keys),)
            assert np.all(level.betas >= 1)

    def test_pair_sizes_consistent(self, registry):
        compiled = compile_plans(registry)
        for h in range(2, 6):
            for group in compiled[h].groups:
                assert group.h_prime + group.h_second == h
                num_slots = group.out_rows.size
                shape = (num_slots, group.pairs_per_slot)
                assert group.prime_rows.shape == shape
                assert group.second_rows.shape == shape
                # Row indices stay inside each size's universe and pick
                # keys of that size.
                for size, rows in (
                    (group.h_prime, group.prime_rows),
                    (group.h_second, group.second_rows),
                ):
                    universe = full_universe_keys(registry, size)
                    assert rows.min() >= 0 and rows.max() < len(universe)
                    assert {
                        getsize(universe[row][0]) for row in rows.ravel()
                    } == {size}
                assert group.out_rows.max() < len(compiled[h].keys)

    def test_compiled_groups_partition_universe(self, registry):
        for level in compile_plans(registry).values():
            covered = np.concatenate([g.out_rows for g in level.groups])
            assert sorted(covered.tolist()) == list(range(len(level.keys)))
            assert list(level.keys) == sorted(level.keys)

    def test_selection_luts_match_pairs(self, registry):
        compiled = compile_plans(registry)
        for level in compiled.values():
            universe = full_universe_keys(registry, level.size)
            assert list(level.keys) == universe
            for group in level.groups:
                if group.h_prime == 1:
                    assert group.select_lut is not None
                    assert group.color_slots is not None
                    sentinel = len(
                        full_universe_keys(registry, group.h_second)
                    )
                    for (slots_c, rows_c) in group.color_slots:
                        assert np.all(rows_c < sentinel)
                else:
                    assert group.select_lut is None

    def test_plans_cached_per_registry(self, registry):
        assert compile_plans(registry) is compile_plans(registry)
        assert compile_plans(registry) is compile_plans(TreeletRegistry(5))
