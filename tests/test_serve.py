"""Tests for the concurrent sampling service (repro.serve).

The load-bearing property is the determinism contract: every served
response must be bit-identical to a single-threaded
``MotivoCounter.from_artifact(..., reseed=seed)`` loop issuing the same
request sequence — whatever the concurrency, and whether or not draws
got coalesced into shared batches.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts import ArtifactCache, load_manifest, save_table
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.errors import ReproError, SamplingError, ServeError
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph, normalize_updates
from repro.graph.io import load_graph
from repro.motivo import MotivoConfig, MotivoCounter
from repro.sampling.ags import ags_estimate
from repro.sampling.estimates import GraphletEstimates
from repro.sampling.naive import naive_estimate
from repro.serve import SamplingService, serve_http, session_seed
from repro.serve.http import _as_int, _opt_int
from repro.util.rng import ensure_rng

from support.ags_reference import ags_reference
from support.graphgen import powerlaw_edges


@pytest.fixture(scope="module")
def host():
    return erdos_renyi(90, 270, rng=5)


@pytest.fixture(scope="module")
def cache_root(host, tmp_path_factory):
    """An artifact cache holding one k=4 build of the host graph."""
    root = str(tmp_path_factory.mktemp("serve-cache"))
    counter = MotivoCounter(
        host, MotivoConfig(k=4, seed=11, artifact_dir=root)
    )
    counter.build()
    return root


@pytest.fixture()
def service(host, cache_root):
    with SamplingService(cache_root) as svc:
        svc.add_graph(host)
        yield svc


def _key(cache_root) -> str:
    return ArtifactCache(cache_root).entries()[0].key


def _reference(host, cache_root, seed, plan):
    """Single-threaded reference: one warm counter, requests in order.

    ``plan`` is a list of ("naive", samples) / ("ags", budget, cover)
    tuples; returns the estimates list.
    """
    counter = MotivoCounter.from_artifact(
        host, ArtifactCache(cache_root).path(_key(cache_root)), reseed=seed
    )
    out = []
    for step in plan:
        if step[0] == "naive":
            out.append(counter.sample_naive(step[1]))
        else:
            out.append(counter.sample_ags(step[1], step[2]).estimates)
    return out


class TestUniformsSplitEquivalence:
    """Coalescing correctness rests on row-independence of the batched
    descent: one call over concatenated uniform blocks must equal the
    separate calls bit for bit."""

    def test_sample_batch_concat_equals_split(self, host):
        counter = MotivoCounter(host, MotivoConfig(k=4, seed=3))
        urn = counter.build()
        rng = np.random.default_rng(42)
        uniforms = rng.random((257, urn.draw_width))
        merged = urn.sample_batch(257, uniforms=uniforms)
        for lo, hi in ((0, 100), (100, 101), (101, 257)):
            part = urn.sample_batch(hi - lo, uniforms=uniforms[lo:hi])
            for merged_arr, part_arr in zip(merged, part):
                assert np.array_equal(merged_arr[lo:hi], part_arr)

    def test_sample_shape_batch_concat_equals_split(self, host):
        counter = MotivoCounter(host, MotivoConfig(k=4, seed=3))
        urn = counter.build()
        shape = max(
            (s for s in urn.registry.free_shapes if urn.shape_total(s) > 0),
            key=urn.shape_total,
        )
        rng = np.random.default_rng(43)
        uniforms = rng.random((64, urn.draw_width))
        merged = urn.sample_shape_batch(shape, 64, uniforms=uniforms)
        part_a = urn.sample_shape_batch(shape, 40, uniforms=uniforms[:40])
        part_b = urn.sample_shape_batch(shape, 24, uniforms=uniforms[40:])
        for merged_arr, a, b in zip(merged, part_a, part_b):
            assert np.array_equal(merged_arr[:40], a)
            assert np.array_equal(merged_arr[40:], b)

    def test_uniforms_consume_generator_like_direct_draw(self, host):
        counter = MotivoCounter(host, MotivoConfig(k=4, seed=3))
        urn = counter.build()
        direct = urn.sample_batch(50, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        pre = urn.sample_batch(
            50, uniforms=rng.random((50, urn.draw_width))
        )
        for direct_arr, pre_arr in zip(direct, pre):
            assert np.array_equal(direct_arr, pre_arr)

    def test_bad_uniforms_shape_rejected(self, host):
        counter = MotivoCounter(host, MotivoConfig(k=4, seed=3))
        urn = counter.build()
        with pytest.raises(SamplingError, match="shape"):
            urn.sample_batch(10, uniforms=np.zeros((10, 3)))


class TestServiceDeterminism:
    def test_single_session_matches_reference(self, host, cache_root, service):
        result = service.count(samples=500, session="a", seed=101)
        (ref,) = _reference(host, cache_root, 101, [("naive", 500)])
        assert result.estimates.counts == ref.counts
        assert result.estimates.hits == ref.hits
        assert result.sequence == 0

    def test_session_stream_continues_across_requests(
        self, host, cache_root, service
    ):
        service.count(samples=400, session="a", seed=101)
        second = service.count(samples=400, session="a")
        refs = _reference(
            host, cache_root, 101, [("naive", 400), ("naive", 400)]
        )
        assert second.estimates.counts == refs[1].counts
        assert second.sequence == 1

    def test_ags_matches_reference(self, host, cache_root, service):
        result = service.count(
            estimator="ags", samples=600, session="g", seed=77,
            cover_threshold=200,
        )
        (ref,) = _reference(host, cache_root, 77, [("ags", 600, 200)])
        assert result.estimates.counts == ref.counts
        assert "covered" in result.extras

    def test_default_seed_is_stable_per_session_id(
        self, host, cache_root, service
    ):
        result = service.count(samples=300, session="stable-client")
        (ref,) = _reference(
            host, cache_root, session_seed("stable-client"),
            [("naive", 300)],
        )
        assert result.estimates.counts == ref.counts

    def test_concurrent_sessions_bit_identical(
        self, host, cache_root, service
    ):
        sessions = 8
        barrier = threading.Barrier(sessions)
        results: dict = {}

        def worker(index: int) -> None:
            barrier.wait()
            estimator = "ags" if index % 2 else "naive"
            results[index] = service.count(
                estimator=estimator, samples=700,
                session=f"s{index}", seed=500 + index,
            )

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index in range(sessions):
            plan = (
                [("ags", 700, 300)] if index % 2 else [("naive", 700)]
            )
            (ref,) = _reference(host, cache_root, 500 + index, plan)
            assert results[index].estimates.counts == ref.counts, index
            assert results[index].estimates.hits == ref.hits, index

    def test_seed_conflict_rejected(self, service):
        service.count(samples=100, session="fixed", seed=5)
        with pytest.raises(ServeError, match="already open"):
            service.count(samples=100, session="fixed", seed=6)
        # Same seed again is fine (idempotent declaration).
        service.count(samples=100, session="fixed", seed=5)


def _metric(service, name: str) -> float:
    """One counter's value on a ``/metrics`` scrape (0 when absent)."""
    for line in service.metrics_text().splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


class TestServedAgsSwitching:
    """AGS cuts a chunk at its switching sample, restores the session
    stream and re-draws the kept rows.  Through the coalescer that must
    leave each session exactly where a single-threaded replay does."""

    def test_concurrent_sessions_resume_where_a_replay_does(
        self, host, cache_root, service
    ):
        plans = {
            "ags-a": (701, [("ags", 900, 40), ("naive", 300)]),
            "ags-b": (702, [("ags", 900, 40), ("naive", 300)]),
            "naive": (703, [("naive", 900), ("naive", 300)]),
        }
        barrier = threading.Barrier(len(plans))
        results: dict = {}

        def worker(session: str) -> None:
            seed, plan = plans[session]
            barrier.wait()
            results[session] = [
                service.count(
                    estimator=step[0], samples=step[1], session=session,
                    seed=seed, **(
                        {"cover_threshold": step[2]} if len(step) > 2
                        else {}
                    ),
                )
                for step in plan
            ]

        threads = [
            threading.Thread(target=worker, args=(session,))
            for session in plans
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for session, (seed, plan) in plans.items():
            # The replay runs AGS as the per-sample oracle, so a chunk
            # cut that left the stream misplaced shows in the next step.
            counter = MotivoCounter.from_artifact(
                host, ArtifactCache(cache_root).path(_key(cache_root)),
                reseed=seed,
            )
            for got, step in zip(results[session], plan):
                if step[0] == "ags":
                    want = ags_reference(
                        counter.urn, counter.classifier, step[1], step[2],
                        counter._rng,
                    ).estimates
                else:
                    want = counter.sample_naive(step[1])
                assert _same(got.estimates, want), (session, step)
        assert results["ags-a"][0].extras["switches"] >= 1
        assert results["ags-b"][0].extras["switches"] >= 1
        assert _metric(service, "motivo_ags_discarded_samples_total") > 0

    def test_recorded_batch_size_one_draws_few_chunks(
        self, host, tmp_path, monkeypatch
    ):
        """An artifact recording ``batch_size`` 1 serves AGS in chunks
        (a per-sample loop would make 20,000 draws), and the answer
        equals the facade's replay."""
        from repro.serve.service import TableHandle

        root, slot = _served_artifact(tmp_path, host, "dense", batch_size=1)
        sizes = []
        draw_shape = TableHandle.draw_shape

        def counting(self, shape, n, rng):
            sizes.append(n)
            return draw_shape(self, shape, n, rng)

        monkeypatch.setattr(TableHandle, "draw_shape", counting)
        with SamplingService(root) as service:
            service.add_graph(host)
            served = service.count(
                estimator="ags", samples=20_000, session="big", seed=8,
                cover_threshold=300,
            )
            drawn = _metric(service, "motivo_batched_shape_samples_total")
            discarded = _metric(
                service, "motivo_ags_discarded_samples_total"
            )
        assert max(sizes) == 4096
        assert len(sizes) <= 2 * served.extras["switches"] + 20_000 // 4096 + 8
        assert sum(sizes) == drawn
        assert drawn - discarded == 20_000
        counter = MotivoCounter.from_artifact(host, slot, reseed=8)
        assert counter.config.batch_size == 1
        assert _same(
            served.estimates, counter.sample_ags(20_000, 300).estimates
        )


class TestServiceLifecycle:
    def test_sole_artifact_resolves_without_key(self, service):
        result = service.count(samples=100, session="x", seed=1)
        assert result.key == _key(service.cache.root)

    def test_unknown_key_is_serve_error(self, service):
        with pytest.raises(ServeError, match="no servable artifact"):
            service.count(artifact="deadbeef", samples=10, session="x")

    def test_validation(self, service):
        with pytest.raises(ServeError, match="estimator"):
            service.count(estimator="exact", samples=10)
        with pytest.raises(ServeError, match="samples"):
            service.count(samples=0)

    def test_handle_reused_across_requests(self, service):
        service.count(samples=50, session="r", seed=1)
        service.count(samples=50, session="r")
        assert service.healthz()["open_tables"] == 1
        assert (
            service.instrumentation.counters["serve_tables_opened"] == 1
        )

    def test_evict_while_served(self, host, cache_root):
        """An in-flight request survives eviction; later requests miss."""
        with SamplingService(cache_root) as service:
            service.add_graph(host)
            key = _key(cache_root)
            handle = service.open(key)
            assert handle.acquire()  # simulate an in-flight request
            assert service.evict(key, from_disk=False)
            assert handle.closing
            # The in-flight holder still samples fine.
            estimates, _extras = handle.run(
                "naive", 200, np.random.default_rng(0), 300
            )
            assert estimates.counts
            handle.release()
            assert handle.urn is None  # closed once drained
            # The service reopens from disk for new requests.
            result = service.count(samples=50, session="y", seed=2)
            assert result.estimates.counts

    def test_evict_from_disk_then_request_fails(self, host, cache_root,
                                                tmp_path):
        import shutil

        root = str(tmp_path / "cache")
        shutil.copytree(cache_root, root)
        with SamplingService(root) as service:
            service.add_graph(host)
            key = _key(root)
            service.count(artifact=key, samples=50, session="z", seed=1)
            assert service.evict(key)  # from disk too
            with pytest.raises(ServeError, match="no servable artifact"):
                service.count(artifact=key, samples=50, session="z2")

    def test_failed_request_poisons_the_session(self, service, monkeypatch):
        """A request that dies mid-estimate may have consumed part of
        the session stream; continuing would silently break the
        determinism contract, so the session refuses further use."""
        from repro.serve.service import TableHandle

        service.count(samples=50, session="doomed", seed=4)

        def boom(self, estimator, samples, rng, cover_threshold):
            rng.random(3)  # partially consume the stream
            raise RuntimeError("mid-estimate failure")

        monkeypatch.setattr(TableHandle, "run", boom)
        with pytest.raises(RuntimeError, match="mid-estimate"):
            service.count(samples=50, session="doomed")
        monkeypatch.undo()
        with pytest.raises(ServeError, match="poisoned"):
            service.count(samples=50, session="doomed")
        # Other sessions are unaffected.
        assert service.count(samples=50, session="fine", seed=4)

    def test_sessions_pruned_past_cap_and_dropped_on_evict(
        self, host, cache_root, tmp_path
    ):
        import shutil

        root = str(tmp_path / "cache")
        shutil.copytree(cache_root, root)
        with SamplingService(root, max_sessions=4) as service:
            service.add_graph(host)
            key = _key(root)
            for index in range(7):
                service.count(
                    artifact=key, samples=20,
                    session=f"c{index}", seed=index,
                )
            assert len(service._sessions) == 4
            # Oldest idle sessions went first; the newest survive.
            assert (key, "c6") in service._sessions
            assert (key, "c0") not in service._sessions
            service.evict(key, from_disk=False)
            assert service._sessions == {}

    def test_draw_leader_failure_does_not_strand_waiters(
        self, host, cache_root
    ):
        """If the coalesced urn call blows up, every queued job gets the
        error instead of waiting forever."""
        with SamplingService(cache_root) as service:
            service.add_graph(host)
            handle = service.open(_key(cache_root))

            def explode(*args, **kwargs):
                raise MemoryError("boom")

            original = handle.urn.sample_batch
            handle.urn.sample_batch = explode
            try:
                with pytest.raises(MemoryError):
                    handle.draw(16, np.random.default_rng(0))
            finally:
                handle.urn.sample_batch = original
            # The queue is clean: a later draw succeeds.
            vertices, _t, _m = handle.draw(16, np.random.default_rng(0))
            assert vertices.shape == (16, handle.k)

    def test_artifacts_listing_reports_warm_state(self, service):
        listing = service.artifacts()
        assert len(listing) == 1
        assert listing[0]["warm"] is False
        service.count(samples=50, session="w", seed=1)
        assert service.artifacts()[0]["warm"] is True


class TestEmptyUrnMatrix:
    """The same degenerate input must answer zeros — never raise —
    through every sampling path: single naive, single AGS, the
    ensemble engine, and a served request."""

    @pytest.fixture(scope="class")
    def tiny(self):
        # Two vertices cannot host a connected 4-subgraph.
        return Graph.from_edges([(0, 1)], n=2)

    def test_single_naive(self, tiny):
        counter = MotivoCounter(tiny, MotivoConfig(k=4, seed=1))
        assert counter.build() is None
        assert counter.empty_urn
        estimates = counter.sample_naive(100)
        assert estimates.empty_urn
        assert estimates.counts == {} and estimates.hits == {}
        assert estimates.samples == 100

    def test_single_ags(self, tiny):
        counter = MotivoCounter(tiny, MotivoConfig(k=4, seed=1))
        counter.build()
        result = counter.sample_ags(100)
        assert result.estimates.empty_urn
        assert result.estimates.counts == {}
        assert result.covered == set() and result.switches == 0

    def test_json_round_trips_the_flag(self, tiny):
        from repro.sampling.estimates import GraphletEstimates

        counter = MotivoCounter(tiny, MotivoConfig(k=4, seed=1))
        counter.build()
        restored = GraphletEstimates.from_json(
            counter.sample_naive(10).to_json()
        )
        assert restored.empty_urn

    def test_ensemble_records_null_members(self, tiny):
        from repro.engine import PipelineEngine

        result = PipelineEngine(
            tiny, MotivoConfig(k=4, seed=1), colorings=3
        ).run_naive(50)
        assert result.empty_runs == 3
        assert result.estimates.counts == {}

    def test_save_artifact_refuses_empty_build(self, tiny, tmp_path):
        counter = MotivoCounter(tiny, MotivoConfig(k=4, seed=1))
        counter.build()
        with pytest.raises(SamplingError, match="empty-urn"):
            counter.save_artifact(str(tmp_path / "a"))

    def test_cached_build_skips_persisting_empty(self, tiny, tmp_path):
        root = str(tmp_path / "cache")
        counter = MotivoCounter(
            tiny, MotivoConfig(k=4, seed=1, artifact_dir=root)
        )
        assert counter.build() is None
        assert ArtifactCache(root).entries() == []
        assert counter.sample_naive(10).empty_urn

    def test_served_empty_table_returns_zeros(self, tmp_path):
        """An artifact whose table has no colorful k-treelets serves
        '0 occurrences', not a 500."""
        graph = Graph.from_edges([(0, 1)], n=2)
        coloring = ColoringScheme.fixed([0, 1], k=3)
        table = build_table(graph, coloring)
        root = tmp_path / "cache"
        root.mkdir()
        save_table(str(root / "emptykey"), table, coloring, graph)
        with SamplingService(str(root)) as service:
            service.add_graph(graph)
            result = service.count(
                artifact="emptykey", samples=25, session="e"
            )
        assert result.estimates.empty_urn
        assert result.estimates.counts == {}


def _edit_build(slot, build) -> None:
    """Update a saved manifest's ``build`` section with a dict's fields,
    or replace the section with any other value."""
    path = f"{slot}/manifest.json"
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if isinstance(build, dict):
        manifest["build"].update(build)
    else:
        manifest["build"] = build
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


class TestRecordedBuildParams:
    """The facade and the service read a manifest's ``build`` section
    through one validated reader, so they sample under the same
    parameters and refuse the same hostile values."""

    @pytest.mark.parametrize("batch_size", [0, 1, 64])
    def test_served_count_equals_from_artifact(
        self, host, tmp_path, batch_size
    ):
        root, slot = _served_artifact(
            tmp_path, host, "dense", batch_size=batch_size
        )
        assert load_manifest(slot)["build"]["batch_size"] == batch_size
        with SamplingService(root) as service:
            service.add_graph(host)
            naive = service.count(samples=300, session="n", seed=5)
            ags = service.count(
                estimator="ags", samples=300, session="g", seed=6,
                cover_threshold=20,
            )
        counter = MotivoCounter.from_artifact(host, slot, reseed=5)
        assert counter.config.batch_size == max(batch_size, 1)
        assert _same(naive.estimates, counter.sample_naive(300))
        counter = MotivoCounter.from_artifact(host, slot, reseed=6)
        assert _same(ags.estimates, counter.sample_ags(300, 20).estimates)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(None, id="build-null"),
            pytest.param([64], id="build-list"),
            pytest.param({"batch_size": "x"}, id="batch-size-str"),
            pytest.param({"batch_size": 1.5}, id="batch-size-float"),
            pytest.param({"batch_size": True}, id="batch-size-bool"),
            pytest.param({"descent_cache_bytes": "x"}, id="cache-bytes-str"),
            pytest.param({"descent_cache_bytes": None}, id="cache-bytes-null"),
            pytest.param({"table_layout": "sparse"}, id="layout-unknown"),
            pytest.param({"table_layout": 1}, id="layout-int"),
            pytest.param({"seed": "x"}, id="seed-str"),
            pytest.param({"seed": -1}, id="seed-negative"),
        ],
    )
    def test_hostile_build_section_is_a_typed_error(
        self, host, tmp_path, build
    ):
        root, slot = _served_artifact(tmp_path, host, "dense")
        _edit_build(slot, build)
        with pytest.raises(ReproError):
            MotivoCounter.from_artifact(host, slot)
        with SamplingService(root) as service:
            service.add_graph(host)
            with pytest.raises(ReproError):
                service.count(samples=50, session="h", seed=1)

    def test_legacy_buffer_fields_are_ignored(self, host, tmp_path):
        """Manifests that record the retired ``buffer_threshold`` /
        ``buffer_size`` fields still open, and sample as without them."""
        root, slot = _served_artifact(tmp_path, host, "dense")
        reference = MotivoCounter.from_artifact(host, slot, reseed=3)
        expected = reference.sample_naive(200)
        _edit_build(slot, {"buffer_threshold": 100, "buffer_size": 7})
        counter = MotivoCounter.from_artifact(host, slot, reseed=3)
        assert _same(counter.sample_naive(200), expected)
        with SamplingService(root) as service:
            service.add_graph(host)
            served = service.count(samples=200, session="l", seed=3)
        assert _same(served.estimates, expected)


def _served_artifact(tmp_path, host, codec, **fields):
    """(cache root, artifact directory) of one k=4 build of ``host``;
    ``fields`` are further :class:`MotivoConfig` build fields."""
    root = str(tmp_path / f"cache-{codec}")
    counter = MotivoCounter(
        host,
        MotivoConfig(
            k=4, seed=11, artifact_dir=root, artifact_codec=codec, **fields
        ),
    )
    counter.build()
    counter.close()
    return root, ArtifactCache(root).path(_key(root))


def _replay(counter, samples, seed):
    """A single-threaded naive estimate on one table version."""
    if counter.urn is None:
        return GraphletEstimates.empty(counter.config.k, samples, "naive")
    return naive_estimate(
        counter.urn, counter.classifier, samples, ensure_rng(seed),
        batch_size=counter.config.batch_size,
    )


def _replay_ags(counter, samples, seed, cover_threshold):
    """A single-threaded AGS estimate on one table version."""
    if counter.urn is None:
        return GraphletEstimates.empty(counter.config.k, samples, "ags")
    return ags_estimate(
        counter.urn, counter.classifier, samples,
        cover_threshold=cover_threshold, rng=ensure_rng(seed),
        batch_size=counter.config.batch_size,
    ).estimates


def _same(a, b) -> bool:
    return (a.counts, a.hits, a.empty_urn) == (b.counts, b.hits, b.empty_urn)


def _segment_counters(service) -> tuple:
    """The stale-path counters as ``/healthz`` and ``/metrics`` report
    them: ``((fills, entries), (fills, entries))``."""
    sampling = service.healthz()["sampling"]
    metrics = {}
    for line in service.metrics_text().splitlines():
        if line.startswith("motivo_gathered_segment_"):
            name, value = line.split()
            metrics[name] = float(value)
    return (
        (sampling["segment_fills"], sampling["segment_entries"]),
        (
            metrics.get("motivo_gathered_segment_fills_total", 0.0),
            metrics.get("motivo_gathered_segment_entries_total", 0.0),
        ),
    )


class TestUpdateSwap:
    """``POST /update`` advances the served handle in memory and swaps
    in a warm successor: no reopen, and every response equals a replay
    on the table version its request checked out."""

    def test_hub_update_reads_segments(self, tmp_path):
        """On a hub graph an update keeps the gathered store and routes
        the reads it may have staled through the segment store: both
        stale-path counters move, and they stay 0 on a fresh urn."""
        host = Graph.from_edges(powerlaw_edges(200, 600, 2.2, seed=5), 200)
        root, _directory = _served_artifact(tmp_path, host, "dense")
        with SamplingService(root) as service:
            service.add_graph(host)
            service.count(samples=500, session="fresh", seed=1)
            assert _segment_counters(service) == ((0, 0), (0.0, 0.0))
            hub = int(np.argmax(np.diff(host.indptr)))
            other = next(
                v for v in range(200)
                if v != hub and not host.has_edge(hub, v)
            )
            assert service.update([["+", hub, other]])["swapped"]
            service.count(samples=500, session="stale", seed=2)
            (fills, entries), (metric_fills, metric_entries) = (
                _segment_counters(service)
            )
            assert 0 < fills <= entries
            assert (metric_fills, metric_entries) == (fills, entries)

    @pytest.mark.parametrize("codec", ["dense", "succinct"])
    def test_each_update_serves_the_logged_artifact_warm(
        self, tmp_path, codec
    ):
        host = erdos_renyi(40, 100, rng=5)
        root, directory = _served_artifact(tmp_path, host, codec)
        built = load_manifest(directory)
        edges = [list(edge) for edge in host.edges()]
        absent = next(
            (a, b) for a in range(40) for b in range(a + 1, 40)
            if not host.has_edge(a, b)
        )
        batches = [
            [["+", *absent]],
            [["-", *edges[0]]],
            [["-", *edge] for edge in edges],  # empties the urn
            [["+", *edge] for edge in edges],  # revives it
        ]
        with SamplingService(root) as service:
            service.add_graph(host)
            service.count(samples=100, session="warm", seed=1)
            for index, batch in enumerate(batches):
                stats = service.update(batch)
                assert stats["swapped"] and stats["updates_applied"] > 0
                seed = 300 + index
                served = service.count(
                    samples=250, session=f"after{index}", seed=seed
                )
                manifest = load_manifest(directory)
                assert manifest["log"]["head_fingerprint"] == (
                    stats["fingerprint"]
                )
                # A reopen from the built graph replays the edge log.
                replayed = MotivoCounter.from_artifact(host, directory)
                assert replayed.graph.fingerprint() == stats["fingerprint"]
                assert _same(served.estimates, _replay(replayed, 250, seed))
                replayed.close()
                assert served.estimates.empty_urn == (index == 2)
                assert manifest["rng_state"] == built["rng_state"]
                assert manifest["build"] == built["build"]
                assert (
                    service.instrumentation.counters["serve_tables_opened"]
                    == 1
                )
            assert load_manifest(directory)["lineage"]["update_batches"] == 4
            # An evict folds the log; the key reopens the compacted
            # artifact from disk.
            service.evict(_key(root), from_disk=False)
            manifest = load_manifest(directory)
            assert "log" not in manifest
            assert load_graph(manifest["graph"]["source"]).fingerprint() == (
                stats["fingerprint"]
            )
            reopened = service.count(samples=250, session="re", seed=seed)
            assert _same(reopened.estimates, served.estimates)
            assert service.instrumentation.counters["serve_tables_opened"] == 2

    def test_sigma_tables_survive_the_swap(
        self, host, cache_root, tmp_path, monkeypatch
    ):
        """σ_ij depends only on the graphlet and k: the successor handle
        shares its predecessor's cache, so an AGS ``/count`` after an
        update computes no table for an already-seen graphlet."""
        import shutil

        import repro.graphlets.spanning as spanning

        computed = []
        compute = spanning._union_shape_counts

        def spy(graphlets, k, registry):
            computed.extend(graphlets)
            return compute(graphlets, k, registry)

        monkeypatch.setattr(spanning, "_union_shape_counts", spy)
        root = str(tmp_path / "cache")
        shutil.copytree(cache_root, root)
        absent = next(
            (a, b) for a in range(90) for b in range(a + 1, 90)
            if not host.has_edge(a, b)
        )
        with SamplingService(root) as service:
            service.add_graph(host)
            first = service.count(
                estimator="ags", samples=600, session="a", seed=77
            )
            seen = set(first.estimates.hits)
            assert set(computed) == seen
            old = service.open(_key(root))
            computed.clear()
            service.update([["+", *absent]])
            new = service.open(_key(root))
            assert new is not old and new.sigma_cache is old.sigma_cache
            again = service.count(
                estimator="ags", samples=600, session="b", seed=77
            )
            assert set(again.estimates.hits) & seen
            assert not set(computed) & seen

    def test_in_flight_request_finishes_on_the_old_table(
        self, host, cache_root, tmp_path
    ):
        import shutil

        root = str(tmp_path / "cache")
        shutil.copytree(cache_root, root)
        key = _key(root)
        old_version = MotivoCounter.from_artifact(
            host, ArtifactCache(root).path(key), mmap=False
        )
        absent = next(
            (a, b) for a in range(90) for b in range(a + 1, 90)
            if not host.has_edge(a, b)
        )
        with SamplingService(root) as service:
            service.add_graph(host)
            old = service.open(key)
            assert old.acquire()  # a request checked out the old version
            service.count(samples=50, session="s", seed=4)
            service.update([["+", *absent]])
            assert old.closing and service.open(key) is not old
            estimates, _extras = old.run("naive", 300, ensure_rng(8), 300)
            assert _same(estimates, _replay(old_version, 300, 8))
            old.release()
            assert old.urn is None and old.table is None  # drained
            # The swap dropped the key's sessions, as an evict does.
            assert service.count(samples=50, session="s").sequence == 0
        old_version.close()

    def test_failed_rewrite_keeps_the_old_handle(
        self, host, cache_root, tmp_path, monkeypatch
    ):
        """A manifest write that fails after the log rows landed leaves
        the old handle serving, and a reopen ignores the uncommitted
        rows; the next append overwrites them."""
        import shutil

        from repro.artifacts import table_artifact

        root = str(tmp_path / "cache")
        shutil.copytree(cache_root, root)
        key = _key(root)
        directory = ArtifactCache(root).path(key)
        absent = [
            (a, b) for a in range(90) for b in range(a + 1, 90)
            if not host.has_edge(a, b)
        ][:2]
        write_manifest = table_artifact._write_manifest

        def fail(*_args, **_kwargs):
            raise OSError("disk full")

        with SamplingService(root) as service:
            service.add_graph(host)
            before = service.count(samples=200, session="a", seed=6)
            handle = service.open(key)
            monkeypatch.setattr(table_artifact, "_write_manifest", fail)
            with pytest.raises(OSError):
                service.update([["+", *absent[0]]])
            assert os.path.getsize(os.path.join(directory, "edges.log")) == 24
            assert service.open(key) is handle and not handle.closing
            again = service.count(samples=200, session="b", seed=6)
            assert _same(again.estimates, before.estimates)
            assert "log" not in load_manifest(directory)
            reopened = MotivoCounter.from_artifact(host, directory)
            assert reopened.graph is host
            assert _same(_replay(reopened, 200, 6), before.estimates)
            reopened.close()

            monkeypatch.setattr(table_artifact, "_write_manifest", write_manifest)
            service.update([["+", *absent[1]]])
            head, _ = host.apply_updates([("+", *absent[1])])
            assert load_manifest(directory)["log"] == {
                "rows": 1, "head_fingerprint": head.fingerprint(),
            }
            assert os.path.getsize(os.path.join(directory, "edges.log")) == 24

    @pytest.mark.parametrize("codec", ["dense", "succinct"])
    def test_counts_racing_updates_match_a_table_version(
        self, host, tmp_path, codec
    ):
        import sys

        root, directory = _served_artifact(tmp_path, host, codec)
        versions = [MotivoCounter.from_artifact(host, directory, mmap=False)]
        colors = versions[0].coloring.colors
        # Endpoints of different colors: a same-color edge changes no
        # colorful treelet, so both versions would sample identically.
        edge = next(
            (a, b) for a in range(90) for b in range(a + 1, 90)
            if not host.has_edge(a, b) and colors[a] != colors[b]
        )
        threads_n, per_thread, samples, cover = 8, 25, 200, 40
        responses: list = []
        errors: list = []
        progress = threading.Condition()

        def counts(index: int) -> None:
            # Odd threads run AGS, whose σ tables every version shares.
            estimator = "ags" if index % 2 else "naive"
            try:
                for request in range(per_thread):
                    seed = 1000 + 100 * index + request
                    result = service.count(
                        estimator=estimator, samples=samples,
                        session=f"t{index}-{request}", seed=seed,
                        cover_threshold=cover,
                    )
                    with progress:
                        responses.append((seed, estimator, result.estimates))
                        progress.notify_all()
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def updates() -> None:
            try:
                total = threads_n * per_thread
                for step, op in enumerate("+-+-"):
                    with progress:
                        progress.wait_for(
                            lambda: len(responses) >= total * (step + 1) // 5,
                            timeout=60,
                        )
                    service.update([[op, *edge]])
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        with SamplingService(root) as service:
            service.add_graph(host)
            threads = [
                threading.Thread(target=counts, args=(i,))
                for i in range(threads_n)
            ] + [threading.Thread(target=updates)]
            try:
                sys.setswitchinterval(1e-5)
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert len(responses) == threads_n * per_thread
            opened = service.instrumentation.counters["serve_tables_opened"]
            assert opened == 1
            # One more insert leaves the artifact at the edge's version.
            service.update([["+", *edge]])
        inserted, _ = host.apply_updates([("+", *edge)])
        versions.append(
            MotivoCounter.from_artifact(inserted, directory, mmap=False)
        )
        served_on = [0, 0]
        for seed, estimator, estimates in responses:
            replay = _replay if estimator == "naive" else functools.partial(
                _replay_ags, cover_threshold=cover
            )
            matches = [
                _same(estimates, replay(version, samples, seed))
                for version in versions
            ]
            assert any(matches), seed
            if matches != [True, True]:
                served_on[matches.index(True)] += 1
        assert served_on[0] > 0 and served_on[1] > 0, served_on
        for version in versions:
            version.close()


class TestHTTP:
    @pytest.fixture()
    def server(self, service):
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def _url(self, server, path):
        host, port = server.server_address[:2]
        return f"http://{host}:{port}{path}"

    def _post(self, server, path, payload):
        request = urllib.request.Request(
            self._url(server, path),
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return json.load(response)

    def test_served_sockets_disable_nagle(self, service, monkeypatch):
        """Responses go out as two writes (headers, body); with Nagle
        on, the body would wait for the client's delayed ACK."""
        import socket

        from repro.serve import http as serve_http_module

        nodelay: list = []
        setup = serve_http_module._Handler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ))

        monkeypatch.setattr(
            serve_http_module._Handler, "setup", recording_setup
        )
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(self._url(server, "/healthz")):
                pass
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert nodelay and all(nodelay), nodelay

    def test_healthz_and_artifacts(self, server):
        with urllib.request.urlopen(self._url(server, "/healthz")) as resp:
            health = json.load(resp)
        assert health["status"] == "ok"
        with urllib.request.urlopen(self._url(server, "/artifacts")) as resp:
            listing = json.load(resp)
        assert len(listing["artifacts"]) == 1

    def test_count_matches_cli_sample_document(
        self, host, cache_root, server
    ):
        body = self._post(
            server, "/count",
            {"samples": 300, "session": "h", "seed": 9},
        )
        (ref,) = _reference(host, cache_root, 9, [("naive", 300)])
        assert body["counts"] == json.loads(ref.to_json())["counts"]
        assert body["hits"] == json.loads(ref.to_json())["hits"]
        assert body["sequence"] == 0
        assert body["empty_urn"] is False

    def test_error_statuses(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            self._post(server, "/count", {"estimator": "exact"})
        assert info.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as info:
            self._post(server, "/count", {"artifact": "nope"})
        assert info.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as info:
            self._post(server, "/nope", {})
        assert info.value.code == 404
        with urllib.request.urlopen(self._url(server, "/healthz")):
            pass  # server still alive after errors

    def _status(self, server, path, body: bytes) -> int:
        request = urllib.request.Request(
            self._url(server, path), data=body,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status
        except urllib.error.HTTPError as error:
            return error.code

    @pytest.mark.parametrize(
        "path,body",
        [
            ("/count", b'{"samples": 50, "seed": 1e400}'),
            ("/count", b'{"samples": 1.5}'),
            ("/count", b'{"samples": 50, "seed": -1}'),
            ("/update", b'{"updates": [["+", "a", 1]]}'),
            ("/update", b'{"updates": [["+", [1], 1]]}'),
            ("/update", b'{"updates": [["+", %d, 1]]}' % 2**70),
            ("/update", b'{"updates": [["+", 1.5, 2]]}'),
        ],
    )
    def test_malformed_fields_answer_400(self, server, path, body):
        assert self._status(server, path, body) == 400
        with urllib.request.urlopen(self._url(server, "/healthz")):
            pass  # server still alive

    def test_huge_samples_answer_400_promptly(self, server):
        # An admitted request runs to completion: 2**70 samples would
        # hold the session for ever, so the service refuses it up front.
        from repro.serve.service import MAX_SAMPLES

        started = time.perf_counter()
        body = b'{"samples": %d, "session": "big"}' % 2**70
        assert self._status(server, "/count", body) == 400
        assert self._status(
            server, "/count", b'{"samples": %d}' % (MAX_SAMPLES + 1)
        ) == 400
        assert time.perf_counter() - started < 10.0
        # The cap refuses nothing a client could wait out: the session
        # the refused request named still answers normally.
        assert self._post(
            server, "/count", {"samples": 50, "session": "big"}
        )["samples"] == 50

    def test_metrics_endpoint_serves_prometheus_text(self, server):
        self._post(server, "/count", {"samples": 200, "session": "m",
                                      "seed": 4})
        request = urllib.request.Request(self._url(server, "/metrics"))
        with urllib.request.urlopen(request) as response:
            content_type = response.headers.get("Content-Type")
            body = response.read().decode("utf-8")
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        assert "# TYPE motivo_serve_requests_total counter" in body
        assert "# TYPE motivo_serve_request_seconds histogram" in body
        assert 'motivo_serve_request_seconds_bucket{le="' in body
        assert 'motivo_serve_request_seconds_bucket{le="+Inf"}' in body
        assert "motivo_serve_request_seconds_count" in body
        assert "motivo_serve_open_tables 1" in body
        # Every non-comment line parses as `name[{labels}] value`.
        import re

        line_ok = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? [0-9.eE+-]+$'
        )
        for line in body.splitlines():
            if not line.startswith("# TYPE "):
                assert line_ok.match(line), line

    def test_every_route_echoes_a_trace_id(self, server):
        for path in ("/healthz", "/metrics", "/artifacts"):
            with urllib.request.urlopen(self._url(server, path)) as resp:
                assert resp.headers.get("X-Trace-Id"), path
        # Errors carry one too.
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(self._url(server, "/nope"))
        assert info.value.headers.get("X-Trace-Id")

    def test_inbound_trace_id_honored_and_sanitized(self, server):
        request = urllib.request.Request(
            self._url(server, "/healthz"),
            headers={"X-Trace-Id": "client-123"},
        )
        with urllib.request.urlopen(request) as response:
            assert response.headers.get("X-Trace-Id") == "client-123"
        request = urllib.request.Request(
            self._url(server, "/healthz"),
            headers={"X-Trace-Id": "bad id\twith%chars"},
        )
        with urllib.request.urlopen(request) as response:
            echoed = response.headers.get("X-Trace-Id")
        assert echoed == "bad_id_with_chars"

    def test_concurrent_http_sessions_bit_identical(
        self, host, cache_root, server
    ):
        results: dict = {}
        barrier = threading.Barrier(4)

        def worker(index: int) -> None:
            barrier.wait()
            results[index] = self._post(
                server, "/count",
                {
                    "samples": 400,
                    "session": f"hc{index}",
                    "seed": 900 + index,
                },
            )

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index in range(4):
            (ref,) = _reference(
                host, cache_root, 900 + index, [("naive", 400)]
            )
            expected = json.loads(ref.to_json())["counts"]
            assert results[index]["counts"] == expected, index


#: Arbitrary JSON request values, big integers included.
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**62, max_value=2**80)
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)


class TestRequestFieldsAreTyped:
    """Request bodies yield a valid value or a typed ReproError (HTTP
    400), never a raw exception (HTTP 500)."""

    @settings(max_examples=300, deadline=None)
    @given(
        updates=_JSON
        | st.lists(st.tuples(_JSON, _JSON, _JSON), max_size=4)
        | st.lists(
            st.tuples(st.sampled_from(["+", "-", 1, -1]), _JSON, _JSON),
            max_size=4,
        )
    )
    def test_normalize_updates(self, updates):
        try:
            ops = normalize_updates(updates)
        except ReproError:
            return
        assert ops.dtype == np.int64 and ops.ndim == 2 and ops.shape[1] == 3
        assert np.isin(ops[:, 0], (-1, 1)).all()

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(["samples", "seed", "cover_threshold"]),
        value=_JSON,
    )
    def test_count_integer_fields(self, name, value):
        try:
            parsed = _opt_int({name: value}, name)
        except ReproError:
            return
        if value is None:
            assert parsed is None and _as_int({name: value}, name, 7) == 7
        else:
            assert type(parsed) is int and parsed == value
            assert not isinstance(value, bool)


class TestTelemetryNameStability:
    """Dashboards and alerts key on these names: renaming a metric or a
    healthz field must break this test before it breaks a dashboard."""

    def test_healthz_document_keys_pinned(self, service):
        service.count(samples=200, session="pin", seed=1)
        health = service.healthz()
        assert sorted(health) == [
            "bytes_on_disk",
            "coalesced_batches",
            "coalesced_draws",
            "open_tables",
            "requests",
            "samples",
            "sampling",
            "sessions",
            "status",
            "updates",
            "uptime_seconds",
        ]
        assert sorted(health["updates"]) == [
            "applied",
            "batches",
            "delta_entries",
            "delta_rebuilds",
            "propagate_seconds",
            "rows_touched",
        ]
        assert sorted(health["sampling"]) == [
            "budget_fallbacks",
            "classified",
            "classify_cache_hits",
            "classify_seconds",
            "descent_seconds",
            "gather_builds",
            "gather_seconds",
            "plan_compile_seconds",
            "plan_compiles",
            "segment_entries",
            "segment_fills",
            "transient_builds",
        ]

    def test_metrics_families_pinned(self, service):
        service.count(samples=200, session="pin2", seed=2)
        body = service.metrics_text()
        families = {
            line.split()[3]
            for line in body.splitlines()
            if line.startswith("# TYPE ")
        }
        families_named = {
            line.split()[2]
            for line in body.splitlines()
            if line.startswith("# TYPE ")
        }
        assert families <= {"counter", "gauge", "histogram"}
        # The serving plane's contract families must always be present.
        expected = {
            "motivo_serve_requests_total",
            "motivo_serve_samples_total",
            "motivo_serve_tables_opened_total",
            "motivo_serve_request_seconds",
            "motivo_serve_open_tables",
            "motivo_serve_sessions",
            "motivo_serve_uptime_seconds",
            "motivo_artifact_cache_bytes",
        }
        missing = expected - families_named
        assert not missing, f"missing metric families: {sorted(missing)}"

    def test_request_latency_quantiles_derivable(self, service):
        from repro.telemetry import histogram_quantile

        for index in range(3):
            service.count(samples=100, session=f"q{index}", seed=index)
        state = service.registry.histogram_state("serve_request_seconds")
        assert sum(state["counts"]) == 3
        p50 = histogram_quantile(state, 0.5)
        p99 = histogram_quantile(state, 0.99)
        assert 0 < p50 <= p99
