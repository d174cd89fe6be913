"""Tests for the persistent table-artifact subsystem.

Covers the round-trip contract (bit-identical estimates from a reloaded
artifact vs. a fresh build, from the in-memory and the sharded build
and in both codecs), the typed error paths (corrupted manifest,
graph-fingerprint mismatch, format-version skew), the blob codecs, the
content-addressed cache, ensemble bundles, store lifecycle, and the CLI
build/sample commands.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.artifacts import (
    ArtifactCache,
    FORMAT_VERSION,
    load_manifest,
    open_ensemble,
    open_table,
    save_table,
)
from repro.artifacts.codec import (
    decode_counts_succinct,
    decode_varints,
    encode_counts_succinct,
    encode_varints,
    pack_keys,
    unpack_keys,
)
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.sharded import build_table_sharded
from repro.colorcoding.urn import TreeletUrn
from repro.engine import PipelineEngine
from repro.errors import ArtifactError, TableError
from repro.graph.generators import erdos_renyi
from repro.motivo import MotivoConfig, MotivoCounter
from repro.sampling.naive import naive_estimate
from repro.sampling.occurrences import GraphletClassifier
from repro.table.layer_store import ShardedStore


@pytest.fixture
def host():
    return erdos_renyi(40, 120, rng=5)


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------


class TestCodecs:
    def test_varint_round_trip(self, rng):
        for size in (0, 1, 7, 500):
            values = rng.integers(0, 2**50, size=size).astype(np.uint64)
            blob = encode_varints(values)
            assert np.array_equal(decode_varints(blob, size), values)

    def test_varint_boundaries(self):
        edges = np.array([0, 127, 128, 2**53, 2**63], dtype=np.uint64)
        assert np.array_equal(
            decode_varints(encode_varints(edges), edges.size), edges
        )

    def test_varint_count_mismatch_raises(self):
        blob = encode_varints(np.array([1, 2, 3], dtype=np.uint64))
        with pytest.raises(ArtifactError):
            decode_varints(blob, 2)
        with pytest.raises(ArtifactError):
            decode_varints(blob + b"\x80", 3)  # dangling continuation

    def test_key_packing_round_trip(self):
        keys = [(0, 1), (0, 2), (5, 3), (9, 31), (1023, 16)]
        assert unpack_keys(pack_keys(keys, 5), 5, len(keys)) == keys

    def test_key_packing_rejects_wide_masks(self):
        with pytest.raises(ArtifactError):
            pack_keys([(0, 1 << 6)], 5)

    def test_succinct_round_trip_with_empty_rows(self):
        matrix = np.zeros((6, 33))
        matrix[1, [0, 4, 32]] = [1.0, 9.0, float(2**40)]
        matrix[5, 7] = 3.0  # last row nonzero, rows 0/2/3/4 empty
        blob, sections = encode_counts_succinct(matrix)
        assert np.array_equal(
            decode_counts_succinct(blob, sections, 6, 33), matrix
        )

    def test_succinct_trailing_empty_rows(self):
        matrix = np.zeros((4, 5))
        matrix[0, 2] = 2.0
        blob, sections = encode_counts_succinct(matrix)
        assert np.array_equal(
            decode_counts_succinct(blob, sections, 4, 5), matrix
        )

    def test_succinct_rejects_fractional_counts(self):
        with pytest.raises(ArtifactError):
            encode_counts_succinct(np.array([[0.5]]))


# ----------------------------------------------------------------------
# Table round-trips across builds and codecs
# ----------------------------------------------------------------------


def _build_with(backend, host, coloring, tmp_path):
    if backend == "memory":
        return build_table(host, coloring)
    store = ShardedStore(3, str(tmp_path / "shards"))
    return build_table_sharded(host, coloring, store=store)


class TestTableRoundTrip:
    @pytest.mark.parametrize("backend", ["memory", "sharded"])
    @pytest.mark.parametrize("codec", ["dense", "succinct"])
    def test_reloaded_estimates_bit_identical(
        self, host, tmp_path, backend, codec
    ):
        """The acceptance contract, per build × codec: a table built in
        memory or shard by shard, saved, and reopened produces the exact
        floats a fresh in-memory urn produces."""
        coloring = ColoringScheme.uniform(host.num_vertices, 4, rng=17)
        table = _build_with(backend, host, coloring, tmp_path)
        fresh = naive_estimate(
            TreeletUrn(host, table, coloring),
            GraphletClassifier(host, 4),
            400,
            rng=99,
        )
        artifact_dir = str(tmp_path / "artifact")
        save_table(artifact_dir, table, coloring, host, codec=codec)
        reloaded = open_table(artifact_dir, host, verify=True)
        warm = naive_estimate(
            TreeletUrn(host, reloaded.table, reloaded.coloring),
            GraphletClassifier(host, 4),
            400,
            rng=99,
        )
        assert warm.counts == fresh.counts
        assert warm.hits == fresh.hits

    def test_dense_layers_reopen_memory_mapped(self, host, tmp_path):
        counter = MotivoCounter(host, MotivoConfig(k=4, seed=3))
        counter.build()
        counter.save_artifact(str(tmp_path / "a"))
        warm = MotivoCounter.from_artifact(host, str(tmp_path / "a"))
        for size in range(1, 5):
            assert isinstance(
                warm.urn.table.layer(size).counts, np.memmap
            )

    def test_facade_round_trip_naive_and_ags(self, host, tmp_path):
        cold = MotivoCounter(host, MotivoConfig(k=4, seed=7))
        cold.build()
        cold.save_artifact(str(tmp_path / "a"))
        warm = MotivoCounter.from_artifact(host, str(tmp_path / "a"))
        assert warm.sample_naive(500).counts == cold.sample_naive(500).counts

        cold_ags = MotivoCounter(host, MotivoConfig(k=4, seed=8))
        cold_ags.build()
        cold_ags.save_artifact(str(tmp_path / "b"), codec="succinct")
        warm_ags = MotivoCounter.from_artifact(host, str(tmp_path / "b"))
        assert (
            warm_ags.sample_ags(300, 50).estimates.counts
            == cold_ags.sample_ags(300, 50).estimates.counts
        )

    def test_build_params_restored(self, host, tmp_path):
        config = MotivoConfig(
            k=4, seed=5, descent_cache_bytes=123_456, batch_size=64
        )
        counter = MotivoCounter(host, config)
        counter.build()
        counter.save_artifact(str(tmp_path / "a"))
        warm = MotivoCounter.from_artifact(host, str(tmp_path / "a"))
        assert warm.config.k == 4
        assert warm.config.seed == 5
        assert warm.config.descent_cache_bytes == 123_456
        assert warm.config.batch_size == 64

    def test_from_artifact_without_build_params(self, host, tmp_path):
        """The manifest's top-level k is authoritative: artifacts saved
        without build params (a direct save_table call) must not fall
        back to MotivoConfig defaults."""
        coloring = ColoringScheme.uniform(host.num_vertices, 4, rng=17)
        table = build_table(host, coloring)
        save_table(str(tmp_path / "a"), table, coloring, host)
        warm = MotivoCounter.from_artifact(host, str(tmp_path / "a"))
        assert warm.config.k == 4
        assert warm.sample_naive(100).total > 0

    def test_resave_removes_stale_blobs(self, host, tmp_path):
        """Switching codecs in the same directory must not leave the old
        codec's count blobs behind."""
        counter = MotivoCounter(host, MotivoConfig(k=4, seed=3))
        counter.build()
        target = str(tmp_path / "a")
        counter.save_artifact(target, codec="dense")
        counter.save_artifact(target, codec="succinct")
        names = sorted(os.listdir(target))
        assert not any(name.endswith(".counts.npy") for name in names)
        reopened = open_table(target, host, verify=True)
        assert reopened.codec == "succinct"

    def test_interrupted_resave_fails_loud(self, host, tmp_path, monkeypatch):
        """A crash mid-re-save must leave a directory that errors on
        open (no manifest), never an old manifest over new blobs."""
        counter = MotivoCounter(host, MotivoConfig(k=4, seed=3))
        counter.build()
        target = str(tmp_path / "a")
        counter.save_artifact(target)
        assert open_table(target, host).table is not None

        def crash(*args, **kwargs):
            raise RuntimeError("disk full")

        with monkeypatch.context() as patched:
            patched.setattr(np, "save", crash)
            with pytest.raises(RuntimeError):
                counter.save_artifact(target)
        with pytest.raises(ArtifactError, match="no artifact manifest"):
            open_table(target, host)

    def test_reseed_overrides_stored_stream(self, host, tmp_path):
        counter = MotivoCounter(host, MotivoConfig(k=4, seed=5))
        counter.build()
        counter.save_artifact(str(tmp_path / "a"))
        one = MotivoCounter.from_artifact(
            host, str(tmp_path / "a"), reseed=1
        ).sample_naive(300)
        two = MotivoCounter.from_artifact(
            host, str(tmp_path / "a"), reseed=1
        ).sample_naive(300)
        assert one.counts == two.counts


# ----------------------------------------------------------------------
# Error paths: every failure mode raises a typed TableError subclass
# ----------------------------------------------------------------------


class TestErrorPaths:
    @pytest.fixture
    def saved(self, host, tmp_path):
        counter = MotivoCounter(host, MotivoConfig(k=4, seed=2))
        counter.build()
        counter.save_artifact(str(tmp_path / "a"))
        return str(tmp_path / "a")

    def test_missing_manifest(self, host, tmp_path):
        with pytest.raises(ArtifactError, match="no artifact manifest"):
            open_table(str(tmp_path / "nowhere"), host)

    def test_corrupted_manifest(self, host, saved):
        path = os.path.join(saved, "manifest.json")
        with open(path, "w") as handle:
            handle.write('{"format": "motivo-table-artifact", trunc')
        with pytest.raises(ArtifactError, match="corrupted"):
            open_table(saved, host)

    def test_manifest_missing_fields(self, host, saved):
        path = os.path.join(saved, "manifest.json")
        with open(path, "w") as handle:
            json.dump({"hello": "world"}, handle)
        with pytest.raises(ArtifactError, match="corrupted"):
            open_table(saved, host)

    def test_version_skew(self, host, saved):
        path = os.path.join(saved, "manifest.json")
        manifest = json.load(open(path))
        manifest["format_version"] = FORMAT_VERSION + 1
        json.dump(manifest, open(path, "w"))
        with pytest.raises(ArtifactError, match="version"):
            open_table(saved, host)

    def test_wrong_format_tag(self, host, saved):
        path = os.path.join(saved, "manifest.json")
        manifest = json.load(open(path))
        manifest["format"] = "motivo-ensemble-artifact"
        json.dump(manifest, open(path, "w"))
        with pytest.raises(ArtifactError, match="format"):
            open_table(saved, host)

    def test_graph_fingerprint_mismatch(self, saved):
        other = erdos_renyi(40, 121, rng=6)
        with pytest.raises(ArtifactError, match="different graph"):
            open_table(saved, other)

    def test_tampered_blob_fails_verify(self, host, saved):
        blob = os.path.join(saved, "layer_4.counts.npy")
        data = np.load(blob)
        data = data.copy()
        data.flat[0] += 1
        np.save(blob, data)
        with pytest.raises(ArtifactError, match="digest"):
            open_table(saved, host, verify=True)
        # without verify the structural open still succeeds
        assert open_table(saved, host).table is not None

    def test_verify_with_malformed_blob_entries_is_typed(self, host, saved):
        """verify=True must raise ArtifactError, not KeyError, when a
        manifest's blob entries lack required fields."""
        path = os.path.join(saved, "manifest.json")
        manifest = json.load(open(path))
        del manifest["layers"][0]["counts"]["digest"]
        json.dump(manifest, open(path, "w"))
        with pytest.raises(ArtifactError, match="blob entry"):
            open_table(saved, host, verify=True)

    def test_errors_are_table_errors(self, host, tmp_path):
        """The typed errors promised by the issue are TableError-typed."""
        assert issubclass(ArtifactError, TableError)
        with pytest.raises(TableError):
            open_table(str(tmp_path / "nope"), host)

    def test_corrupted_rng_state_is_typed(self, host, saved):
        path = os.path.join(saved, "manifest.json")
        manifest = json.load(open(path))
        manifest["rng_state"] = {"bit_generator": "default_rng"}
        json.dump(manifest, open(path, "w"))
        with pytest.raises(ArtifactError, match="bit generator"):
            MotivoCounter.from_artifact(host, saved)
        manifest["rng_state"] = {"bit_generator": "PCG64", "state": "junk"}
        json.dump(manifest, open(path, "w"))
        with pytest.raises(ArtifactError, match="RNG state"):
            MotivoCounter.from_artifact(host, saved)

    def test_k_mismatch_with_explicit_config(self, host, saved):
        with pytest.raises(ArtifactError, match="k="):
            MotivoCounter.from_artifact(
                host, saved, config=MotivoConfig(k=5, seed=2)
            )

    def test_seed_mismatch_with_explicit_config(self, host, saved):
        with pytest.raises(ArtifactError, match="seed"):
            MotivoCounter.from_artifact(
                host, saved, config=MotivoConfig(k=4, seed=3)
            )


# ----------------------------------------------------------------------
# Content-addressed cache
# ----------------------------------------------------------------------


class TestArtifactCache:
    def test_hit_miss_and_bit_identity(self, host, tmp_path):
        config = MotivoConfig(k=4, seed=13, artifact_dir=str(tmp_path))
        first = MotivoCounter(host, config)
        first.build()
        assert first.instrumentation["artifact_cache_misses"] == 1
        baseline = first.sample_naive(400)

        second = MotivoCounter(
            host, MotivoConfig(k=4, seed=13, artifact_dir=str(tmp_path))
        )
        second.build()
        assert second.instrumentation["artifact_cache_hits"] == 1
        assert second.sample_naive(400).counts == baseline.counts

        # and the cache is invisible relative to an uncached run
        plain = MotivoCounter(host, MotivoConfig(k=4, seed=13))
        plain.build()
        assert plain.sample_naive(400).counts == baseline.counts

    def test_key_separates_builds(self, host, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        base = MotivoConfig(k=4, seed=1)
        assert cache.key(host, base) == cache.key(host, MotivoConfig(k=4, seed=1))
        assert cache.key(host, base) != cache.key(host, MotivoConfig(k=5, seed=1))
        assert cache.key(host, base) != cache.key(host, MotivoConfig(k=4, seed=2))
        assert cache.key(host, base) != cache.key(
            host, MotivoConfig(k=4, seed=1, zero_rooting=False)
        )
        assert cache.key(host, base) != cache.key(host, base, codec="succinct")
        other = erdos_renyi(40, 121, rng=6)
        assert cache.key(host, base) != cache.key(other, base)

    def test_retired_kernel_build_field_still_opens_and_hits(
        self, host, tmp_path
    ):
        """Manifests written while ``kernel`` was a build field record it
        in their build section; such artifacts still open and still hit
        the cache."""
        root = str(tmp_path)
        first = MotivoCounter(host, MotivoConfig(k=4, seed=13, artifact_dir=root))
        first.build()
        baseline = first.sample_naive(300)
        entry = ArtifactCache(root).entries()[0]
        manifest_path = os.path.join(entry.path, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["build"]["kernel"] = "legacy"
        json.dump(manifest, open(manifest_path, "w"))

        warm = MotivoCounter.from_artifact(host, entry.path)
        assert warm.sample_naive(300).counts == baseline.counts
        again = MotivoCounter(host, MotivoConfig(k=4, seed=13, artifact_dir=root))
        again.build()
        assert again.instrumentation["artifact_cache_hits"] == 1
        assert again.sample_naive(300).counts == baseline.counts

    def test_stale_cached_artifact_is_a_miss_not_a_failure(
        self, host, tmp_path
    ):
        """A version-skewed (or corrupted) cache slot must trigger a
        rebuild + re-admit, not crash build()."""
        root = str(tmp_path)
        config = MotivoConfig(k=4, seed=13, artifact_dir=root)
        first = MotivoCounter(host, config)
        first.build()
        baseline = first.sample_naive(300)
        cache = ArtifactCache(root)
        entry = cache.entries()[0]
        manifest_path = os.path.join(entry.path, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["format_version"] = FORMAT_VERSION + 1
        json.dump(manifest, open(manifest_path, "w"))

        again = MotivoCounter(host, MotivoConfig(k=4, seed=13, artifact_dir=root))
        again.build()
        assert again.instrumentation["artifact_cache_misses"] == 1
        assert again.sample_naive(300).counts == baseline.counts
        # the stale slot was evicted and replaced by a fresh admit
        fresh = json.load(open(manifest_path))
        assert fresh["format_version"] == FORMAT_VERSION

    def test_unseeded_builds_not_addressable(self, host, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        with pytest.raises(ArtifactError):
            cache.key(host, MotivoConfig(k=4, seed=None))
        # facade: artifact_dir with seed=None silently builds fresh
        counter = MotivoCounter(
            host, MotivoConfig(k=4, seed=None, artifact_dir=str(tmp_path))
        )
        counter.build()
        assert cache.entries() == []

    def test_list_evict_verify(self, host, tmp_path):
        root = str(tmp_path)
        for seed in (1, 2):
            counter = MotivoCounter(
                host, MotivoConfig(k=4, seed=seed, artifact_dir=root)
            )
            counter.build()
        cache = ArtifactCache(root)
        entries = cache.entries()
        assert len(entries) == 2
        assert all(entry.k == 4 for entry in entries)
        # bytes_on_disk reports actual usage: payload blobs plus the
        # manifests the old payload-sum accounting ignored, plus the
        # descent-plan blob (recorded in the manifest but excluded from
        # payload_bytes so bits-per-pair keeps measuring count data).
        payload_total = sum(entry.payload_bytes for entry in entries)
        manifest_total = sum(
            os.path.getsize(os.path.join(entry.path, "manifest.json"))
            for entry in entries
        )
        plan_total = sum(
            json.load(open(os.path.join(entry.path, "manifest.json")))
            .get("descent_plan", {})
            .get("bytes", 0)
            for entry in entries
        )
        assert (
            cache.bytes_on_disk()
            == payload_total + manifest_total + plan_total
        )
        for entry in entries:
            cache.verify(entry.key)
        assert cache.evict(entries[0].key)
        assert not cache.evict(entries[0].key)
        assert len(cache.entries()) == 1
        assert cache.clear() == 1
        assert cache.entries() == []

    def test_cache_hit_returns_urn(self, host, tmp_path):
        """build() keeps its documented return type on a cache hit."""
        from repro.colorcoding.urn import TreeletUrn as Urn

        config = MotivoConfig(k=4, seed=13, artifact_dir=str(tmp_path))
        assert isinstance(MotivoCounter(host, config).build(), Urn)  # miss
        assert isinstance(MotivoCounter(host, config).build(), Urn)  # hit

    def test_stale_tmp_dirs_are_not_entries_and_get_reaped(
        self, host, tmp_path
    ):
        """A crash between save and admit leaves '<key>.tmp-<pid>' behind;
        it must not surface as a (phantom) cache entry, and evict/clear
        must reclaim it.  While the writer pid is alive the directory is
        in-flight, not stale — listing must leave it alone."""
        import shutil

        root = str(tmp_path)
        counter = MotivoCounter(
            host, MotivoConfig(k=4, seed=1, artifact_dir=root)
        )
        counter.build()
        cache = ArtifactCache(root)
        entry = cache.entries()[0]
        # Same-pid tmp dir: an in-flight write of this very process.
        tmp_sibling = f"{entry.path}.tmp-{os.getpid()}"
        shutil.copytree(entry.path, tmp_sibling)
        assert [e.key for e in cache.entries()] == [entry.key]
        assert os.path.isdir(tmp_sibling)  # never reaped while we live
        # bytes_on_disk counts what is really on disk — manifests and
        # the in-flight tmp directory included.
        expected = 0
        for directory, _subdirs, files in os.walk(root):
            expected += sum(
                os.path.getsize(os.path.join(directory, name))
                for name in files
            )
        assert cache.bytes_on_disk() == expected
        assert cache.bytes_on_disk() > entry.payload_bytes
        assert cache.evict(entry.key)
        assert os.listdir(root) == []  # tmp sibling reaped too

    def test_cross_pid_stale_tmp_reaped_on_listing(self, host, tmp_path):
        """A tmp dir whose owning pid is dead is a crash leftover; any
        later listing — from any process — reclaims it."""
        import shutil

        root = str(tmp_path)
        counter = MotivoCounter(
            host, MotivoConfig(k=4, seed=1, artifact_dir=root)
        )
        counter.build()
        cache = ArtifactCache(root)
        entry = cache.entries()[0]
        # Find a pid that is certainly not running.
        dead = 2 ** 22 - 7
        while True:
            try:
                os.kill(dead, 0)
            except ProcessLookupError:
                break
            except OSError:
                pass
            dead -= 1
        shutil.copytree(entry.path, f"{entry.path}.tmp-{dead}")
        assert [e.key for e in cache.entries()] == [entry.key]
        assert not os.path.isdir(f"{entry.path}.tmp-{dead}")
        # Unparseable suffixes are left alone (conservative).
        os.makedirs(os.path.join(root, "odd.tmp-notapid"))
        cache.entries()
        assert os.path.isdir(os.path.join(root, "odd.tmp-notapid"))

    def test_clear_sweeps_orphan_tmp_dirs(self, host, tmp_path):
        root = str(tmp_path)
        counter = MotivoCounter(
            host, MotivoConfig(k=4, seed=1, artifact_dir=root)
        )
        counter.build()
        cache = ArtifactCache(root)
        os.makedirs(os.path.join(root, "deadbeef.tmp-42"))
        assert cache.clear() == 1
        assert os.listdir(root) == []

    def test_verify_detects_corruption(self, host, tmp_path):
        root = str(tmp_path)
        counter = MotivoCounter(
            host, MotivoConfig(k=4, seed=1, artifact_dir=root)
        )
        counter.build()
        cache = ArtifactCache(root)
        entry = cache.entries()[0]
        blob = os.path.join(entry.path, "coloring.npy")
        with open(blob, "ab") as handle:
            handle.write(b"x")
        with pytest.raises(ArtifactError):
            cache.verify(entry.key)


# ----------------------------------------------------------------------
# Ensemble bundles
# ----------------------------------------------------------------------


class TestEnsembleArtifacts:
    def test_bundle_matches_live_ensemble(self, host, tmp_path):
        config = MotivoConfig(k=4, seed=11)
        live = PipelineEngine(host, config, colorings=4).run_naive(300)
        bundle = PipelineEngine(host, config, colorings=4).build_artifact(
            str(tmp_path / "ens")
        )
        assert bundle.seeds == live.seeds
        warm = PipelineEngine(host, config, colorings=4).run_naive(
            300, artifact=bundle
        )
        assert warm.estimates.counts == live.estimates.counts
        assert warm.seeds == live.seeds

    def test_bundle_fidelity_survives_engine_config_drift(
        self, host, tmp_path
    ):
        """Member manifests are authoritative: sampling a bundle built
        with a non-default batch size is bit-identical to the live
        ensemble even when the sampling engine's own config says
        otherwise (library-path counterpart of the CLI test).  AGS
        estimates depend on the seed alone, so an explicit batch-size
        override leaves them unchanged too."""
        built_config = MotivoConfig(k=4, seed=11, batch_size=7)
        live = PipelineEngine(host, built_config, colorings=2).run_ags(150, 20)
        PipelineEngine(host, built_config, colorings=2).build_artifact(
            str(tmp_path / "ens")
        )
        defaults_engine = PipelineEngine(
            host, MotivoConfig(k=4), colorings=2
        )
        warm = defaults_engine.run_ags(150, 20, artifact=str(tmp_path / "ens"))
        assert warm.estimates.counts == live.estimates.counts
        # an explicit batch_size override only caps the chunk size
        other = defaults_engine.run_ags(
            150, 20, artifact=str(tmp_path / "ens"), batch_size=4096
        )
        assert other.estimates.samples == warm.estimates.samples
        assert other.estimates.counts == warm.estimates.counts

    def test_bundle_by_path_and_parallel_jobs(self, host, tmp_path):
        config = MotivoConfig(k=4, seed=11)
        live = PipelineEngine(host, config, colorings=3).run_naive(200)
        PipelineEngine(host, config, colorings=3).build_artifact(
            str(tmp_path / "ens")
        )
        warm = PipelineEngine(host, config, colorings=3, jobs=2).run_naive(
            200, artifact=str(tmp_path / "ens")
        )
        assert warm.estimates.counts == live.estimates.counts

    def test_bundle_rejects_mismatched_engine(self, host, tmp_path):
        from repro.errors import SamplingError

        config = MotivoConfig(k=4, seed=11)
        PipelineEngine(host, config, colorings=3).build_artifact(
            str(tmp_path / "ens")
        )
        with pytest.raises(SamplingError, match="colorings"):
            PipelineEngine(host, config, colorings=2).run_naive(
                100, artifact=str(tmp_path / "ens")
            )
        with pytest.raises(SamplingError, match="k="):
            PipelineEngine(
                host, MotivoConfig(k=5, seed=11), colorings=3
            ).run_naive(100, artifact=str(tmp_path / "ens"))

    def test_bundle_graph_mismatch(self, host, tmp_path):
        config = MotivoConfig(k=4, seed=11)
        PipelineEngine(host, config, colorings=2).build_artifact(
            str(tmp_path / "ens")
        )
        other = erdos_renyi(40, 121, rng=6)
        with pytest.raises(ArtifactError, match="different graph"):
            open_ensemble(str(tmp_path / "ens"), other)

    def test_cli_sample_restores_nondefault_sampling_params(
        self, host, tmp_path
    ):
        """Bit-identity survives a non-default batch size recorded in the
        bundle manifest (a chunk cap, which no estimate depends on)."""
        from repro.cli import main
        from repro.graph.io import save_edge_list
        from repro.sampling.estimates import GraphletEstimates

        graph_path = str(tmp_path / "g.txt")
        save_edge_list(host, graph_path)
        config = MotivoConfig(k=4, seed=11, batch_size=7)
        live = PipelineEngine(host, config, colorings=2).run_ags(150, 20)
        PipelineEngine(host, config, colorings=2).build_artifact(
            str(tmp_path / "ens"), source=graph_path
        )
        out = tmp_path / "warm.json"
        assert main([
            "sample", str(tmp_path / "ens"), "--samples", "150", "--ags",
            "--cover-threshold", "20", "--output", str(out),
        ]) == 0
        warm = GraphletEstimates.from_json(out.read_text())
        assert warm.counts == live.estimates.counts

    def test_ensemble_verify_detects_member_corruption(self, host, tmp_path):
        config = MotivoConfig(k=4, seed=11)
        bundle = PipelineEngine(host, config, colorings=2).build_artifact(
            str(tmp_path / "ens")
        )
        bundle.verify()
        blob = os.path.join(
            str(tmp_path / "ens" / "coloring-001"), "coloring.npy"
        )
        with open(blob, "ab") as handle:
            handle.write(b"x")
        with pytest.raises(ArtifactError, match="digest|bytes"):
            bundle.verify()

    def test_missing_member_detected(self, host, tmp_path):
        import shutil

        config = MotivoConfig(k=4, seed=11)
        PipelineEngine(host, config, colorings=2).build_artifact(
            str(tmp_path / "ens")
        )
        shutil.rmtree(str(tmp_path / "ens" / "coloring-001"))
        with pytest.raises(ArtifactError, match="missing members"):
            open_ensemble(str(tmp_path / "ens"), host)


# ----------------------------------------------------------------------
# Store lifecycle
# ----------------------------------------------------------------------


class TestStoreLifecycle:
    def test_sharded_store_preexisting_dir_keeps_foreign_files(
        self, host, tmp_path
    ):
        target = tmp_path / "existing"
        target.mkdir()
        (target / "keep.txt").write_text("mine")
        coloring = ColoringScheme.uniform(host.num_vertices, 4, rng=1)
        store = ShardedStore(2, str(target))
        build_table_sharded(host, coloring, store=store)
        assert any(p.name.startswith("layer_") for p in target.iterdir())
        store.close()
        store.close()  # idempotent
        assert sorted(p.name for p in target.iterdir()) == ["keep.txt"]

    def test_sharded_store_close(self, host, tmp_path):
        target = tmp_path / "shards"
        coloring = ColoringScheme.uniform(host.num_vertices, 4, rng=1)
        with ShardedStore(2, str(target)) as store:
            build_table_sharded(host, coloring, store=store)
            assert any(target.iterdir())
        assert not target.exists()

    def test_counter_close_releases_shards(self, host, tmp_path):
        shards = tmp_path / "s"
        config = MotivoConfig(
            k=4, seed=4, num_shards=2, shard_dir=str(shards)
        )
        with MotivoCounter(host, config) as counter:
            counter.build()
            counter.sample_naive(100)
        assert not shards.exists()


# ----------------------------------------------------------------------
# CLI build / sample
# ----------------------------------------------------------------------


class TestCli:
    @pytest.fixture
    def edge_list(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "g.txt"
        assert main(["generate", "lollipop", str(path)]) == 0
        return str(path)

    def test_build_sample_matches_one_shot_count(
        self, edge_list, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.sampling.estimates import GraphletEstimates

        one_shot = tmp_path / "oneshot.json"
        warm = tmp_path / "warm.json"
        assert main([
            "count", edge_list, "--k", "4", "--samples", "400",
            "--seed", "11", "--output", str(one_shot),
        ]) == 0
        assert main([
            "build", edge_list, "--k", "4", "--seed", "11",
            "--output", str(tmp_path / "art"),
        ]) == 0
        err = capsys.readouterr().err
        assert "table artifact" in err
        assert "bits/pair" in err
        assert main([
            "sample", str(tmp_path / "art"), "--samples", "400",
            "--output", str(warm),
        ]) == 0
        assert "no rebuild" in capsys.readouterr().err
        a = GraphletEstimates.from_json(one_shot.read_text())
        b = GraphletEstimates.from_json(warm.read_text())
        assert a.counts == b.counts

    def test_build_sample_ensemble(self, edge_list, tmp_path, capsys):
        from repro.cli import main

        art = str(tmp_path / "ens")
        assert main([
            "build", edge_list, "--k", "4", "--seed", "3",
            "--colorings", "3", "--codec", "succinct", "--output", art,
        ]) == 0
        assert "ensemble artifact: 3/3" in capsys.readouterr().err
        assert main(["sample", art, "--samples", "200"]) == 0
        assert "sampled ensemble artifact" in capsys.readouterr().err

    def test_sample_ags_flag(self, edge_list, tmp_path, capsys):
        from repro.cli import main

        art = str(tmp_path / "art")
        assert main([
            "build", edge_list, "--k", "4", "--seed", "5", "-o", art,
        ]) == 0
        assert main([
            "sample", art, "--ags", "--samples", "200",
            "--cover-threshold", "50",
        ]) == 0
        assert "ags samples" in capsys.readouterr().err

    def test_sample_uses_recorded_source(self, edge_list, tmp_path):
        """No --graph needed: the manifest's source hint is enough."""
        from repro.cli import main

        art = str(tmp_path / "art")
        assert main(["build", edge_list, "--k", "4", "--seed", "6", "-o", art]) == 0
        assert main(["sample", art, "--samples", "100"]) == 0

    def test_sample_bad_artifact_is_exit_one(self, tmp_path, capsys):
        from repro.cli import main

        status = main(["sample", str(tmp_path / "nothing"), "--samples", "10"])
        assert status == 1
        assert "error:" in capsys.readouterr().err
