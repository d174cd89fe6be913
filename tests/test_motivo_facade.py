"""Tests for the high-level MotivoCounter facade."""

from __future__ import annotations

import os

import pytest

from repro.errors import BuildError, SamplingError
from repro.exact.brute import brute_force_counts
from repro.graph.generators import erdos_renyi
from repro.motivo import MotivoConfig, MotivoCounter


class TestLifecycle:
    def test_sampling_requires_build(self):
        counter = MotivoCounter(erdos_renyi(20, 50, rng=0), MotivoConfig(k=4))
        with pytest.raises(SamplingError, match="build"):
            counter.sample_naive(10)

    def test_k_validation(self):
        with pytest.raises(BuildError):
            MotivoCounter(erdos_renyi(10, 20, rng=0), MotivoConfig(k=1))

    def test_build_then_sample(self):
        counter = MotivoCounter(
            erdos_renyi(25, 60, rng=1), MotivoConfig(k=4, seed=2)
        )
        urn = counter.build()
        assert urn.total_treelets > 0
        estimates = counter.sample_naive(500)
        assert estimates.samples == 500
        assert estimates.total > 0

    def test_deterministic_given_seed(self):
        def run():
            counter = MotivoCounter(
                erdos_renyi(25, 60, rng=3), MotivoConfig(k=4, seed=99)
            )
            counter.build()
            return counter.sample_naive(300).counts

        assert run() == run()

    def test_ags_pipeline(self):
        counter = MotivoCounter(
            erdos_renyi(25, 60, rng=4), MotivoConfig(k=4, seed=5)
        )
        counter.build()
        result = counter.sample_ags(800, cover_threshold=100)
        assert result.estimates.samples == 800
        assert sum(result.shape_usage.values()) == 800


class TestConfigurationPlumb:
    def test_sigma_cache_dir_used(self, tmp_path):
        cache_dir = str(tmp_path / "sigma")
        counter = MotivoCounter(
            erdos_renyi(20, 50, rng=8),
            MotivoConfig(k=4, seed=9, sigma_cache_dir=cache_dir),
        )
        counter.build()
        counter.sample_ags(300, cover_threshold=50)
        assert os.path.exists(os.path.join(cache_dir, "sigma_k4.json"))

    def test_biased_coloring_plumbed(self):
        counter = MotivoCounter(
            erdos_renyi(200, 600, rng=10),
            MotivoConfig(k=4, seed=11, biased_lambda=0.1),
        )
        counter.build()
        assert counter.coloring.lam == pytest.approx(0.1)
        histogram = counter.coloring.color_histogram()
        assert histogram[0] > histogram[1:].max() * 2

    def test_zero_rooting_off(self):
        counter = MotivoCounter(
            erdos_renyi(20, 50, rng=12),
            MotivoConfig(k=4, seed=13, zero_rooting=False),
        )
        counter.build()
        assert not counter.urn.table.zero_rooted


class TestAveraging:
    def test_averaged_naive_tightens_estimates(self):
        """Averaging colorings must approach the true (uncolored) counts."""
        graph = erdos_renyi(16, 36, rng=14)
        k = 3
        truth = brute_force_counts(graph, k)
        counter = MotivoCounter(graph, MotivoConfig(k=k, seed=15))
        averaged = counter.averaged_naive(runs=30, samples_per_run=3000)
        assert averaged.method == "naive-averaged"
        for bits, count in truth.items():
            if count >= 5:
                assert averaged.counts[bits] == pytest.approx(count, rel=0.3)

    def test_averaging_needs_runs(self):
        counter = MotivoCounter(erdos_renyi(10, 20, rng=16), MotivoConfig(k=3))
        with pytest.raises(SamplingError):
            counter.averaged_naive(0, 10)
