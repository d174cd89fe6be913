"""Tests for the build-up level step and the ensemble engine.

The contract under test is strong: the build-up must equal the exact
big-int CC hash-table build (``build_hash_table``, the build's oracle)
key for key and entry for entry on every configuration (sizes,
0-rooting, degenerate colorings whose layers hold only part of their
key universe — ``test_properties.py::TestPartialLayers`` draws those
for every builder), and the ensemble engine must give identical results
for a fixed seed no matter how many worker processes it fans out over.
"""

from __future__ import annotations

import pytest

from repro.errors import SamplingError
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.engine import EnsembleResult, PipelineEngine, derive_child_seeds
from repro.graph.generators import erdos_renyi
from repro.motivo import MotivoConfig, MotivoCounter
from repro.util.instrument import Instrumentation
from support.oracle import assert_matches_oracle, has_partial_layer


class TestKernelEquivalence:
    """The build equals the exact CC oracle on the configuration matrix."""

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("zero_rooting", [True, False])
    def test_random_graphs(self, k, zero_rooting):
        graph = erdos_renyi(40, 140, rng=k)
        coloring = ColoringScheme.uniform(40, k, rng=k + 50)
        table = build_table(graph, coloring, zero_rooting=zero_rooting)
        assert_matches_oracle(table, graph, coloring, zero_rooting)

    def test_missing_color_partial_layers(self):
        """A color absent from the graph leaves layers that hold only
        part of their key universe."""
        graph = erdos_renyi(12, 26, rng=5)
        colors = [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]
        coloring = ColoringScheme.fixed(colors, k=4)
        table = build_table(graph, coloring)
        assert has_partial_layer(table)
        assert_matches_oracle(table, graph, coloring)

    def test_biased_coloring(self):
        graph = erdos_renyi(30, 80, rng=6)
        coloring = ColoringScheme.biased(30, 4, lam=0.15, rng=7)
        assert_matches_oracle(build_table(graph, coloring), graph, coloring)

    def test_batched_kernel_instrumentation(self):
        graph = erdos_renyi(25, 70, rng=8)
        coloring = ColoringScheme.uniform(25, 4, rng=9)
        instrumentation = Instrumentation()
        build_table(graph, coloring, instrumentation=instrumentation)
        assert instrumentation["merge_ops"] > 0
        assert instrumentation["spmm_ops"] > 0
        assert instrumentation.timings["buildup"] > 0


class TestDerivedSeeds:
    def test_deterministic(self):
        assert derive_child_seeds(42, 5) == derive_child_seeds(42, 5)

    def test_distinct_across_colorings(self):
        seeds = derive_child_seeds(42, 8)
        assert len(set(seeds)) == 8

    def test_rejects_empty(self):
        with pytest.raises(SamplingError):
            derive_child_seeds(1, 0)


class TestPipelineEngine:
    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(40, 120, rng=1)

    def test_serial_matches_parallel(self, graph):
        config = MotivoConfig(k=4, seed=99)
        serial = PipelineEngine(graph, config, colorings=3, jobs=1)
        parallel = PipelineEngine(graph, config, colorings=3, jobs=2)
        result_serial = serial.run_naive(300)
        result_parallel = parallel.run_naive(300)
        assert result_serial.seeds == result_parallel.seeds
        assert result_serial.estimates.counts == result_parallel.estimates.counts
        assert result_serial.estimates.hits == result_parallel.estimates.hits

    def test_repeat_runs_identical(self, graph):
        config = MotivoConfig(k=4, seed=7)
        first = PipelineEngine(graph, config, colorings=2).run_naive(200)
        second = PipelineEngine(graph, config, colorings=2).run_naive(200)
        assert first.estimates.counts == second.estimates.counts

    def test_ags_ensemble(self, graph):
        config = MotivoConfig(k=4, seed=13)
        result = PipelineEngine(graph, config, colorings=2, jobs=2).run_ags(
            200, cover_threshold=50
        )
        assert isinstance(result, EnsembleResult)
        assert result.estimates.method == "ags-averaged"
        assert result.estimates.total > 0

    def test_merged_instrumentation(self, graph):
        config = MotivoConfig(k=4, seed=3)
        result = PipelineEngine(graph, config, colorings=3).run_naive(100)
        assert result.instrumentation["ensemble_runs"] == 3
        assert result.instrumentation["merge_ops"] > 0
        assert result.instrumentation.timings["buildup"] > 0
        assert result.instrumentation.timings["ensemble"] > 0

    def test_empty_urn_runs_average_as_zero(self):
        tiny = erdos_renyi(3, 2, rng=0)
        result = PipelineEngine(
            tiny, MotivoConfig(k=5, seed=1), colorings=2
        ).run_naive(10)
        assert result.empty_runs == 2
        assert result.estimates.counts == {}
        assert result.instrumentation["ensemble_empty_runs"] == 2

    def test_validation(self, graph):
        with pytest.raises(SamplingError):
            PipelineEngine(graph, MotivoConfig(), colorings=0)
        with pytest.raises(SamplingError):
            PipelineEngine(graph, MotivoConfig(), jobs=0)
        engine = PipelineEngine(graph, MotivoConfig(k=4, seed=1), colorings=2)
        with pytest.raises(SamplingError):
            engine.run_naive(10, seeds=[1])

    def test_parallel_shard_dirs_are_namespaced(self, tmp_path, monkeypatch):
        """Concurrent members must not write shard blocks into the same
        files: each coloring shards under its own subdirectory."""
        import os

        import repro.motivo
        from repro.table.layer_store import ShardedStore

        graph = erdos_renyi(3000, 9000, rng=5)

        def run(jobs):
            config = MotivoConfig(
                k=5, seed=21, num_shards=4,
                shard_dir=str(tmp_path / f"jobs{jobs}"),
            )
            engine = PipelineEngine(graph, config, colorings=4, jobs=jobs)
            return engine.run_naive(4000)

        parallel = run(2)
        opened = []

        class RecordingStore(ShardedStore):
            def __init__(self, num_shards, directory, **kwargs):
                opened.append(directory)
                super().__init__(num_shards, directory, **kwargs)

        monkeypatch.setattr(repro.motivo, "ShardedStore", RecordingStore)
        serial = run(1)
        assert parallel.estimates.counts == serial.estimates.counts
        assert parallel.estimates.hits == serial.estimates.hits
        assert opened == [
            os.path.join(str(tmp_path / "jobs1"), f"coloring-{seed}")
            for seed in serial.seeds
        ]

    def test_shard_dirs_cleaned_up_by_default(self, graph, tmp_path):
        """Ensemble members close their stores: no leaked shard files."""
        import os

        config = MotivoConfig(
            k=4, seed=21, num_shards=2, shard_dir=str(tmp_path / "s")
        )
        result = PipelineEngine(graph, config, colorings=3).run_naive(200)
        reference = PipelineEngine(
            graph, MotivoConfig(k=4, seed=21), colorings=3
        ).run_naive(200)
        # Sharding and cleanup change the leftovers, never the estimates.
        assert result.estimates.counts == reference.estimates.counts
        leftovers = [
            name
            for _root, _dirs, files in os.walk(tmp_path / "s")
            for name in files
            if name.startswith("layer_")
        ]
        assert leftovers == []

    def test_explicit_seeds_respected(self, graph):
        config = MotivoConfig(k=4, seed=None)
        engine = PipelineEngine(graph, config, colorings=2)
        first = engine.run_naive(100, seeds=[11, 22])
        second = engine.run_naive(100, seeds=[11, 22])
        assert first.estimates.counts == second.estimates.counts
        assert first.seeds == [11, 22]


class TestFacadeIntegration:
    def test_averaged_naive_jobs_parity(self):
        graph = erdos_renyi(36, 100, rng=4)
        serial = MotivoCounter(graph, MotivoConfig(k=4, seed=77))
        fanned = MotivoCounter(graph, MotivoConfig(k=4, seed=77))
        estimates_serial = serial.averaged_naive(3, 300)
        estimates_fanned = fanned.averaged_naive(3, 300, jobs=2)
        assert estimates_serial.counts == estimates_fanned.counts
        assert estimates_serial.method == "naive-averaged"


class TestInstrumentationTransport:
    def test_snapshot_roundtrip(self):
        instrumentation = Instrumentation()
        instrumentation.count("merge_ops", 5)
        with instrumentation.timer("buildup"):
            pass
        restored = Instrumentation.from_snapshot(instrumentation.snapshot())
        assert restored["merge_ops"] == 5
        assert restored.timings["buildup"] == pytest.approx(
            instrumentation.timings["buildup"]
        )

    def test_merged_classmethod(self):
        parts = []
        for _ in range(3):
            part = Instrumentation()
            part.count("merge_ops", 2)
            parts.append(part)
        assert Instrumentation.merged(parts)["merge_ops"] == 6
