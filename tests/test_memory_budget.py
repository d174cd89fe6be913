"""The build-up memory budget: tracked, enforced, fail-loud.

Two promises under test.  First, the :class:`MemoryBudget` tracker is a
hard ceiling — any allocation that would overshoot raises
:class:`~repro.errors.MemoryBudgetError` *before* happening, never
after.  Second, a budget the planner accepts is honoured: the build
completes bit-identically to the in-memory kernel with tracked peak at
or below the limit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.sharded import (
    MemoryBudget,
    build_table_sharded,
    plan_shards,
)
from repro.errors import BuildError, MemoryBudgetError, ReproError
from repro.graph.generators import erdos_renyi
from repro.motivo import MotivoConfig, MotivoCounter
from repro.table.layer_store import ShardedStore
from repro.treelets.registry import TreeletRegistry


class TestMemoryBudgetTracker:
    def test_allocate_release_and_peak(self):
        budget = MemoryBudget(1000)
        budget.allocate("a", 400)
        budget.allocate("b", 500)
        assert budget.used == 900
        assert budget.peak == 900
        budget.release(500)
        assert budget.used == 400
        assert budget.peak == 900
        budget.allocate("c", 100)
        assert budget.peak == 900

    def test_overshoot_raises_before_charging(self):
        budget = MemoryBudget(1000)
        budget.allocate("a", 800)
        with pytest.raises(MemoryBudgetError):
            budget.allocate("b", 300)
        assert budget.used == 800  # the failed allocation charged nothing

    def test_hold_scopes_the_charge(self):
        budget = MemoryBudget(1000)
        with budget.hold("scratch", 600):
            assert budget.used == 600
            with pytest.raises(MemoryBudgetError):
                budget.allocate("over", 600)
        assert budget.used == 0
        assert budget.peak == 600

    def test_unlimited_budget_only_tracks(self):
        budget = MemoryBudget(None)
        budget.allocate("huge", 10**15)
        assert budget.peak == 10**15

    def test_fold_peak_takes_the_maximum(self):
        budget = MemoryBudget(None)
        budget.allocate("local", 100)
        budget.fold_peak(5000)
        budget.fold_peak(300)
        assert budget.peak == 5000

    def test_typed_errors(self):
        with pytest.raises(MemoryBudgetError):
            MemoryBudget(0)
        with pytest.raises(MemoryBudgetError):
            MemoryBudget(-5)
        assert issubclass(MemoryBudgetError, BuildError)
        assert issubclass(MemoryBudgetError, ReproError)


class TestPlanShards:
    def test_tighter_budgets_need_more_shards(self):
        graph = erdos_renyi(300, 1200, rng=1)
        registry = TreeletRegistry(4)
        roomy = plan_shards(graph, registry, 1 << 30)
        tight = plan_shards(
            graph, registry, plan_shards_bytes_for(graph, registry) // 4
        )
        assert roomy == 1
        assert tight > roomy

    def test_impossible_budget_fails_loud(self):
        graph = erdos_renyi(60, 240, rng=2)
        registry = TreeletRegistry(5)
        with pytest.raises(MemoryBudgetError):
            plan_shards(graph, registry, 64)
        with pytest.raises(MemoryBudgetError):
            plan_shards(graph, registry, 0)


def plan_shards_bytes_for(graph, registry):
    """The planner's one-shard working-set model, for scaling budgets."""
    from repro.colorcoding.sharded import _plan_bytes

    return _plan_bytes(graph, registry, 1)


class TestBudgetedBuild:
    def test_tiny_budget_correct_and_within_limit(self, tmp_path):
        graph = erdos_renyi(120, 500, rng=4)
        coloring = ColoringScheme.uniform(120, 4, rng=5)
        registry = TreeletRegistry(4)
        # A budget a single shard cannot satisfy.
        limit = plan_shards_bytes_for(graph, registry) // 3
        num_shards = plan_shards(graph, registry, limit)
        assert num_shards > 1
        reference = build_table(graph, coloring, registry=registry)
        store = ShardedStore(
            num_shards, str(tmp_path / "shards"), owns_directory=True
        )
        budget = MemoryBudget(limit)
        table = build_table_sharded(
            graph, coloring, registry=registry, store=store,
            memory_budget=budget,
        )
        assert 0 < budget.peak <= limit
        for size in range(1, 5):
            assert table.has_layer(size) == reference.has_layer(size)
            if reference.has_layer(size):
                assert np.array_equal(
                    np.asarray(table.layer(size).dense_counts()),
                    np.asarray(reference.layer(size).dense_counts()),
                )
        store.close()

    def test_runtime_enforcement_with_explicit_shards(self, tmp_path):
        # One shard with a near-zero budget: planning is bypassed, so the
        # run-time tracker must catch the very first allocation.
        graph = erdos_renyi(80, 320, rng=6)
        coloring = ColoringScheme.uniform(80, 4, rng=7)
        store = ShardedStore(1, str(tmp_path / "s"), owns_directory=True)
        with pytest.raises(MemoryBudgetError):
            build_table_sharded(
                graph, coloring, store=store, memory_budget=256
            )
        store.close()


class TestFacadeBudget:
    def test_counter_reports_peak_and_stays_identical(self, tmp_path):
        graph = erdos_renyi(70, 280, rng=8)
        reference = MotivoCounter(graph, MotivoConfig(k=4, seed=13))
        reference.build()
        expected = reference.sample_naive(300)
        budgeted = MotivoCounter(
            graph,
            MotivoConfig(
                k=4, seed=13, memory_budget=1 << 26,
                shard_dir=str(tmp_path / "shards"),
            ),
        )
        budgeted.build()
        assert budgeted.build_budget is not None
        assert 0 < budgeted.build_budget.peak <= (1 << 26)
        got = budgeted.sample_naive(300)
        assert got.counts == expected.counts
        budgeted.close()
        reference.close()

    def test_impossible_budget_propagates(self):
        graph = erdos_renyi(50, 200, rng=9)
        counter = MotivoCounter(
            graph, MotivoConfig(k=4, seed=1, memory_budget=128)
        )
        with pytest.raises(MemoryBudgetError):
            counter.build()

    def test_sharded_config_validation(self):
        graph = erdos_renyi(30, 90, rng=10)
        with pytest.raises(BuildError):
            MotivoCounter(graph, MotivoConfig(k=4, num_shards=0)).build()
