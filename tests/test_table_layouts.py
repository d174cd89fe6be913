"""Layout-equivalence matrix: dense vs succinct, everywhere tables live.

The `LayerView` contract promises that the dense matrices and the
succinct CSR records answer every table operation **bit-identically** —
from the in-memory and the sharded build and across artifact reload in
either codec.  These tests are that promise, enforced with exact equality
(never ``approx``): records, `occ`, key sampling, and both estimators.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TableError
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.sharded import build_table_sharded
from repro.colorcoding.urn import TreeletUrn
from repro.graph.generators import erdos_renyi
from repro.motivo import MotivoConfig, MotivoCounter
from repro.sampling.ags import ags_estimate
from repro.sampling.naive import naive_estimate
from repro.sampling.occurrences import GraphletClassifier
from repro.table.count_table import DenseLayer, SuccinctLayer
from repro.table.layer_store import ShardedStore
from repro.treelets.registry import TreeletRegistry

K = 4
N = 80
STORES = ("memory", "sharded")


@pytest.fixture(scope="module")
def workload():
    graph = erdos_renyi(N, 320, rng=5)
    coloring = ColoringScheme.uniform(N, K, rng=6)
    registry = TreeletRegistry(K)
    return graph, coloring, registry


@pytest.fixture(scope="module")
def reference(workload):
    """The dense in-memory build every cell of the matrix compares to."""
    graph, coloring, registry = workload
    return build_table(graph, coloring, registry=registry)


def _build(kind: str, tmp_path, graph, coloring, registry, layout):
    if kind == "memory":
        return build_table(graph, coloring, registry=registry, layout=layout)
    return build_table_sharded(
        graph, coloring, registry=registry,
        store=ShardedStore(3, str(tmp_path / "shards")), layout=layout,
    )


def _assert_tables_equivalent(reference, table, graph, coloring, registry):
    """Exact-equality sweep over the paper operations and both samplers."""
    assert table.total_pairs() == reference.total_pairs()
    rng = np.random.default_rng(99)
    verts = rng.integers(0, N, size=8)
    for h in range(1, K + 1):
        ref_layer = reference.layer(h)
        layer = table.layer(h)
        assert layer.keys == ref_layer.keys
        assert np.array_equal(layer.totals(), ref_layer.totals())
        for treelet in {t for t, _ in ref_layer.keys}:
            assert layer.treelet_rows(treelet) == ref_layer.treelet_rows(
                treelet
            )
        for v in verts.tolist():
            assert table.record(v, h) == reference.record(v, h)
            assert table.cumulative_record(v, h) == reference.cumulative_record(v, h)
            for treelet, mask in ref_layer.keys:
                assert table.occ(treelet, mask, v) == reference.occ(
                    treelet, mask, v
                )

    # Key sampling: scalar and batched, same uniforms, same rows.
    roots = np.flatnonzero(reference.root_weights() > 0)
    us = rng.random(roots.size)
    assert np.array_equal(
        table.sample_key_rows_batch(roots, us),
        reference.sample_key_rows_batch(roots, us),
    )
    for v, u in zip(roots.tolist()[:12], us.tolist()[:12]):
        assert table.sample_key_at(v, u) == reference.sample_key_at(v, u)

    # Full estimators, batched and loop draws.
    ref_urn = TreeletUrn(graph, reference, coloring, registry=registry)
    urn = TreeletUrn(graph, table, coloring, registry=registry)
    for a, b in zip(
        ref_urn.sample_batch(200, np.random.default_rng(3)),
        urn.sample_batch(200, np.random.default_rng(3)),
    ):
        assert np.array_equal(a, b)
    classifier = GraphletClassifier(graph, K)
    naive_ref = naive_estimate(
        ref_urn, classifier, 300, np.random.default_rng(17)
    )
    naive_new = naive_estimate(
        urn, classifier, 300, np.random.default_rng(17)
    )
    assert naive_new.counts == naive_ref.counts
    assert naive_new.hits == naive_ref.hits
    ags_ref = ags_estimate(
        ref_urn, classifier, 300, cover_threshold=40,
        rng=np.random.default_rng(23),
    )
    ags_new = ags_estimate(
        urn, classifier, 300, cover_threshold=40,
        rng=np.random.default_rng(23),
    )
    assert ags_new.estimates.counts == ags_ref.estimates.counts
    assert ags_new.estimates.hits == ags_ref.estimates.hits


class TestLayoutMatrix:
    @pytest.mark.parametrize("kind", STORES)
    @pytest.mark.parametrize("layout", ["dense", "succinct"])
    def test_store_backend_cell(
        self, tmp_path, workload, reference, kind, layout
    ):
        graph, coloring, registry = workload
        table = _build(kind, tmp_path, graph, coloring, registry, layout)
        assert table.layout() == layout
        if layout == "succinct":
            assert all(
                isinstance(table.layer(h), SuccinctLayer)
                for h in range(1, K + 1)
            )
        _assert_tables_equivalent(
            reference, table, graph, coloring, registry
        )

    @pytest.mark.parametrize("codec", ["dense", "succinct"])
    @pytest.mark.parametrize("layout", ["dense", "succinct"])
    def test_artifact_reload_cell(
        self, tmp_path, workload, reference, codec, layout
    ):
        from repro.artifacts import open_table, save_table

        graph, coloring, registry = workload
        save_table(
            str(tmp_path / "art"), reference, coloring, graph, codec=codec
        )
        artifact = open_table(
            str(tmp_path / "art"), graph, layout=layout
        )
        assert artifact.table.layout() == layout
        _assert_tables_equivalent(
            reference, artifact.table, graph, coloring, registry
        )

    def test_native_open_is_zero_copy_csr(self, tmp_path, workload, reference):
        """A succinct-codec artifact opens as CSR records by default."""
        from repro.artifacts import open_table, save_table

        graph, coloring, _registry = workload
        save_table(
            str(tmp_path / "art"), reference, coloring, graph,
            codec="succinct",
        )
        artifact = open_table(str(tmp_path / "art"), graph)
        assert all(
            isinstance(artifact.table.layer(h), SuccinctLayer)
            for h in range(1, K + 1)
        )
        # And a dense-codec artifact stays memory-mapped dense.
        save_table(
            str(tmp_path / "art2"), reference, coloring, graph,
            codec="dense",
        )
        dense = open_table(str(tmp_path / "art2"), graph)
        assert isinstance(dense.table.layer(K), DenseLayer)
        assert isinstance(dense.table.layer(K).counts, np.memmap)

    def test_succinct_blobs_layout_independent(
        self, tmp_path, workload, reference
    ):
        """Dense and sealed tables serialize to byte-identical artifacts."""
        from repro.artifacts import save_table
        from repro.artifacts.table_artifact import file_digest

        graph, coloring, registry = workload
        sealed = build_table(
            graph, coloring, registry=registry, layout="succinct"
        )
        a = save_table(
            str(tmp_path / "a"), reference, coloring, graph, codec="succinct"
        )
        b = save_table(
            str(tmp_path / "b"), sealed, coloring, graph, codec="succinct"
        )
        for la, lb in zip(a.manifest["layers"], b.manifest["layers"]):
            assert la["counts"]["digest"] == lb["counts"]["digest"]
            assert la["keys"]["digest"] == lb["keys"]["digest"]


class TestFacadeThreading:
    def test_counter_layouts_bit_identical(self, workload):
        graph, _coloring, _registry = workload
        results = {}
        for layout in ("dense", "succinct"):
            counter = MotivoCounter(
                graph, MotivoConfig(k=K, seed=41, table_layout=layout)
            )
            counter.build()
            assert counter.urn.table.layout() == layout
            results[layout] = counter.sample_naive(400)
        assert results["dense"].counts == results["succinct"].counts
        assert results["dense"].hits == results["succinct"].hits

    def test_from_artifact_layout_override(self, tmp_path, workload):
        graph, _coloring, _registry = workload
        counter = MotivoCounter(
            graph, MotivoConfig(k=K, seed=41, table_layout="succinct")
        )
        counter.build()
        counter.save_artifact(str(tmp_path / "art"), codec="succinct")
        expected = counter.sample_naive(300)

        # Stored layout wins by default; explicit table_layout overrides.
        warm = MotivoCounter.from_artifact(graph, str(tmp_path / "art"))
        assert warm.config.table_layout == "succinct"
        assert warm.urn.table.layout() == "succinct"
        assert warm.sample_naive(300).counts == expected.counts

        forced = MotivoCounter.from_artifact(
            graph, str(tmp_path / "art"), table_layout="dense"
        )
        assert forced.urn.table.layout() == "dense"
        assert forced.sample_naive(300).counts == expected.counts

    def test_ensemble_artifact_layout_override(self, tmp_path, workload):
        from repro.engine import PipelineEngine

        graph, _coloring, _registry = workload
        engine = PipelineEngine(
            graph, MotivoConfig(k=K, seed=13), colorings=2
        )
        engine.build_artifact(str(tmp_path / "bundle"))
        baseline = engine.run_naive(200, artifact=str(tmp_path / "bundle"))
        succinct = engine.run_naive(
            200, artifact=str(tmp_path / "bundle"), table_layout="succinct"
        )
        assert succinct.estimates.counts == baseline.estimates.counts
        assert succinct.estimates.hits == baseline.estimates.hits


class TestSealSemantics:
    def test_seal_is_idempotent_and_reversible(self, reference, workload):
        graph, coloring, registry = workload
        table = build_table(graph, coloring, registry=registry)
        dense_bytes = table.actual_bytes()
        table.seal("succinct")
        sealed_bytes = table.actual_bytes()
        assert sealed_bytes < dense_bytes
        table.seal("succinct")  # idempotent
        assert table.actual_bytes() == sealed_bytes
        table.seal("dense")
        assert table.layout() == "dense"
        for h in range(1, K + 1):
            assert np.array_equal(
                table.layer(h).counts, reference.layer(h).counts
            )

    def test_memory_accounting_tracks_lazy_caches(self, workload):
        graph, coloring, registry = workload
        table = build_table(
            graph, coloring, registry=registry, layout="succinct"
        )
        before = table.actual_bytes()
        # Sampling builds the cumulative records and the totals cache.
        roots = np.flatnonzero(table.root_weights() > 0)[:8]
        table.sample_key_rows_batch(roots, np.full(roots.size, 0.5))
        after = table.actual_bytes()
        assert after > before

    def test_unknown_layout_rejected(self, workload):
        graph, coloring, registry = workload
        table = build_table(graph, coloring, registry=registry)
        with pytest.raises(TableError):
            table.seal("sparse")
        from repro.errors import BuildError

        with pytest.raises(BuildError):
            build_table(graph, coloring, registry=registry, layout="csc")
