"""Tests for the telemetry plane (repro.telemetry) and its wiring.

Four load-bearing contracts:

1. **Determinism** — telemetry on or off, estimates and post-run RNG
   states are bit-identical; trace ids never come from the seed stream.
2. **Thread-safety** — the registry (and the ``Instrumentation`` shim
   over it) tallies exactly under concurrent mutation; this is the
   fix for the serve plane's old read-modify-write races.
3. **Transport** — snapshots stay flat, picklable dicts that merge
   losslessly, histograms included, so the process-pool engine and
   artifact manifests keep working.
4. **Name stability** — the ``/healthz`` document and the ``/metrics``
   exposition families are pinned: renaming a metric breaks dashboards,
   so it must break a test first.
"""

from __future__ import annotations

import json
import pickle
import threading
import urllib.request

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi
from repro.motivo import MotivoConfig, MotivoCounter
from repro.telemetry import (
    JsonLinesSink,
    MetricsRegistry,
    TelemetryConfig,
    Tracer,
    activate,
    build_tracer,
    current_tracer,
    exponential_boundaries,
    histogram_quantile,
    render_prometheus,
    span,
)
from repro.telemetry.tracing import NOOP_SPAN, new_trace_id
from repro.util.instrument import Instrumentation


class TestMetricsRegistry:
    def test_counter_and_timer_families(self):
        registry = MetricsRegistry()
        registry.inc("draws")
        registry.inc("draws", 4)
        registry.add_time("descent", 0.5)
        assert registry.counter_value("draws") == 5
        assert registry.timer_value("descent") == 0.5
        assert registry.counter_value("missing") == 0

    def test_timer_context_accumulates(self):
        registry = MetricsRegistry()
        with registry.timer("block"):
            pass
        with registry.timer("block"):
            pass
        assert registry.timer_value("block") > 0

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("bytes", 10)
        registry.set_gauge("bytes", 3)
        assert registry.gauge_value("bytes") == 3.0

    def test_histogram_buckets_and_sum(self):
        registry = MetricsRegistry()
        for value in (0.5, 1.5, 99.0):
            registry.observe("lat", value, boundaries=(1.0, 2.0, 4.0))
        state = registry.histogram_state("lat")
        assert state["le"] == [1.0, 2.0, 4.0]
        assert state["counts"] == [1, 1, 0, 1]  # last bucket is +Inf
        assert state["sum"] == pytest.approx(101.0)

    def test_histogram_boundaries_fixed_by_first_observe(self):
        registry = MetricsRegistry()
        registry.observe("lat", 1.0, boundaries=(1.0, 2.0))
        registry.observe("lat", 1.0, boundaries=(5.0, 6.0))  # ignored
        assert registry.histogram_state("lat")["le"] == [1.0, 2.0]

    def test_snapshot_shape_is_flat_and_json_safe(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.add_time("t", 1.0)
        registry.set_gauge("g", 2.0)
        registry.observe("h", 0.5, boundaries=(1.0,))
        snapshot = registry.snapshot()
        assert snapshot["count.c"] == 1.0
        assert snapshot["time.t"] == 1.0
        assert snapshot["gauge.g"] == 2.0
        assert snapshot["hist.h"]["counts"] == [1, 0]
        json.dumps(snapshot)  # must not raise

    def test_merge_snapshot_adds_counters_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry in (a, b):
            registry.inc("c", 2)
            registry.add_time("t", 0.25)
            registry.observe("h", 0.5, boundaries=(1.0, 2.0))
        b.set_gauge("g", 7.0)
        a.merge_snapshot(b.snapshot())
        assert a.counter_value("c") == 4
        assert a.timer_value("t") == 0.5
        assert a.gauge_value("g") == 7.0  # gauges take the incoming value
        assert a.histogram_state("h")["counts"] == [2, 0, 0]

    def test_merge_rejects_mismatched_boundaries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 0.5, boundaries=(1.0,))
        b.observe("h", 0.5, boundaries=(2.0,))
        with pytest.raises(ValueError, match="boundaries"):
            a.merge_snapshot(b.snapshot())

    def test_reset_zeroes_every_family(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.set_gauge("g", 1)
        registry.observe("h", 1.0)
        registry.reset()
        assert registry.snapshot() == {}

    def test_pickle_round_trip(self):
        registry = MetricsRegistry()
        registry.inc("c", 3)
        registry.observe("h", 0.5, boundaries=(1.0,))
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == registry.snapshot()
        clone.inc("c")  # lock works after unpickling

    def test_exponential_boundaries(self):
        assert exponential_boundaries(0.001, 2, 4) == (
            0.001, 0.002, 0.004, 0.008
        )
        with pytest.raises(ValueError):
            exponential_boundaries(0.0, 2, 4)
        with pytest.raises(ValueError):
            exponential_boundaries(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            exponential_boundaries(1.0, 2.0, 0)

    def test_histogram_quantile_interpolates(self):
        registry = MetricsRegistry()
        boundaries = (1.0, 2.0, 4.0)
        for value in (0.5, 1.5, 1.6, 3.0):
            registry.observe("h", value, boundaries=boundaries)
        state = registry.histogram_state("h")
        # Rank 2 of 4 lands halfway through the (1, 2] bucket (count 2,
        # one rank already consumed): 1 + (2-1) * (2-1)/2 = 1.5.
        assert histogram_quantile(state, 0.5) == pytest.approx(1.5)
        assert 0.0 < histogram_quantile(state, 0.25) <= 1.0
        # p99 lands inside the (2, 4] bucket.
        assert 2.0 < histogram_quantile(state, 0.99) <= 4.0
        assert histogram_quantile({"le": [], "counts": []}, 0.5) == 0.0


class TestThreadSafety:
    """Satellite (a): shared-registry mutation is race-free by
    construction — N threads hammering one Instrumentation must tally
    exactly, where the old dict-bag implementation lost increments."""

    def test_shared_instrumentation_hammer(self):
        registry = MetricsRegistry()
        views = [Instrumentation(registry=registry) for _ in range(8)]
        increments = 2_000

        def hammer(instrumentation) -> None:
            for _ in range(increments):
                instrumentation.count("hits")
                instrumentation.registry.add_time("t", 1.0)
                # Compound read-modify-write through the live view:
                # exact only because the exposed RLock lets callers
                # extend the critical section.
                with instrumentation.registry.lock:
                    instrumentation.timings["rmw"] = (
                        instrumentation.timings["rmw"] + 1.0
                    )

        threads = [
            threading.Thread(target=hammer, args=(view,)) for view in views
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = len(views) * increments
        assert registry.counter_value("hits") == expected
        assert registry.timer_value("t") == float(expected)
        assert registry.timer_value("rmw") == float(expected)

    def test_concurrent_observe_and_snapshot(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def observe() -> None:
            while not stop.is_set():
                registry.observe("lat", 0.01)
                registry.inc("n")

        workers = [threading.Thread(target=observe) for _ in range(4)]
        for worker in workers:
            worker.start()
        try:
            for _ in range(50):
                snapshot = registry.snapshot()
                if "hist.lat" in snapshot:
                    state = snapshot["hist.lat"]
                    # A snapshot is internally consistent: the bucket
                    # total can never exceed what later reads report.
                    assert sum(state["counts"]) <= sum(
                        registry.histogram_state("lat")["counts"]
                    )
        finally:
            stop.set()
            for worker in workers:
                worker.join()
        total = sum(registry.histogram_state("lat")["counts"])
        assert total == registry.counter_value("n")


class TestTracing:
    def test_trace_ids_are_not_rng_draws(self):
        state_before = np.random.get_state()[1].copy()
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 32 for i in ids)
        assert np.array_equal(np.random.get_state()[1], state_before)

    def test_nested_spans_share_trace_and_link_parents(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonLinesSink(str(path)))
        with tracer.span("outer", k=5) as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
        tracer.close()
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        by_name = {record["name"]: record for record in records}
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert by_name["inner"]["trace"] == by_name["outer"]["trace"]
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["attrs"] == {"k": 5}
        assert by_name["inner"]["dur_ms"] >= 0

    def test_inbound_trace_id_seeds_the_root_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonLinesSink(str(path)))
        with tracer.span("root", trace_id="client-abc123"):
            pass
        tracer.close()
        record = json.loads(path.read_text().splitlines()[0])
        assert record["trace"] == "client-abc123"

    def test_error_spans_record_the_exception_type(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonLinesSink(str(path)))
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        tracer.close()
        assert json.loads(path.read_text())["error"] == "ValueError"

    def test_ambient_span_is_shared_noop_when_disabled(self):
        assert current_tracer() is None
        assert span("anything", k=3) is NOOP_SPAN
        with span("still-nothing"):
            pass  # must be a working no-op context manager

    def test_activate_scopes_and_restores(self, tmp_path):
        tracer = Tracer(JsonLinesSink(str(tmp_path / "t.jsonl")))
        with activate(tracer):
            assert current_tracer() is tracer
            with activate(None):  # shield an inner block
                assert current_tracer() is None
            assert current_tracer() is tracer
        assert current_tracer() is None
        tracer.close()

    def test_tracer_is_per_thread(self, tmp_path):
        tracer = Tracer(JsonLinesSink(str(tmp_path / "t.jsonl")))
        seen = {}

        def other_thread() -> None:
            seen["tracer"] = current_tracer()

        with activate(tracer):
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join()
        assert seen["tracer"] is None
        tracer.close()

    def test_sink_reopens_after_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonLinesSink(str(path))
        sink.write({"a": 1})
        sink.close()
        sink.write({"b": 2})  # lazily reopens, appends
        sink.close()
        assert len(path.read_text().splitlines()) == 2

    def test_build_tracer_from_config(self, tmp_path):
        assert build_tracer(None) is None
        assert build_tracer(TelemetryConfig()) is None
        tracer = build_tracer(
            TelemetryConfig(trace_out=str(tmp_path / "t.jsonl"))
        )
        assert isinstance(tracer, Tracer)
        tracer.close()


class TestBitIdentity:
    """The determinism hard bar: telemetry on or off, estimates and
    post-run RNG states are bit-identical."""

    @pytest.fixture(scope="class")
    def host(self):
        return erdos_renyi(70, 210, rng=9)

    def _run(self, host, telemetry):
        config = MotivoConfig(k=4, seed=33, telemetry=telemetry)
        counter = MotivoCounter(host, config)
        counter.build()
        naive = counter.sample_naive(400)
        ags = counter.sample_ags(400, cover_threshold=150)
        rng_state = counter._rng.bit_generator.state
        counter.close()
        return naive, ags, rng_state

    def test_estimates_and_rng_state_identical(self, host, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        off = self._run(host, None)
        on = self._run(host, TelemetryConfig(trace_out=str(trace_path)))
        assert off[0].counts == on[0].counts
        assert off[0].hits == on[0].hits
        assert off[1].estimates.counts == on[1].estimates.counts
        assert off[1].covered == on[1].covered
        assert off[2] == on[2], "telemetry consumed master-seed RNG draws"
        # And the traced run actually traced.
        names = {
            json.loads(line)["name"]
            for line in trace_path.read_text().splitlines()
        }
        assert "buildup" in names
        assert "sample.naive" in names
        assert "sample.ags" in names

    def test_ags_setup_spans_nest_under_sample_ags(self, host, tmp_path):
        """σ tables and shape aliases are traced as ``sample.ags``
        children: one ``ags.sigma`` per chunk that met new graphlets, one
        ``urn.shape_alias`` per shape the run visits."""
        trace_path = tmp_path / "ags.jsonl"
        config = MotivoConfig(
            k=4, seed=33, telemetry=TelemetryConfig(trace_out=str(trace_path))
        )
        counter = MotivoCounter(host, config)
        counter.build()
        result = counter.sample_ags(400, cover_threshold=20)
        counter.close()
        records = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        (ags,) = [r for r in records if r["name"] == "sample.ags"]
        sigma = [r for r in records if r["name"] == "ags.sigma"]
        aliases = [r for r in records if r["name"] == "urn.shape_alias"]
        assert sigma and aliases
        for record in sigma + aliases:
            assert record["parent"] == ags["span"]
            assert record["trace"] == ags["trace"]
        assert sum(r["attrs"]["graphlets"] for r in sigma) == len(
            result.estimates.hits
        )
        used = {shape for shape, n in result.shape_usage.items() if n}
        assert {r["attrs"]["shape"] for r in aliases} == used
        assert len(aliases) == counter.instrumentation.counters[
            "shape_alias_rebuilds"
        ]

    def test_configure_telemetry_swaps_tracer(self, host, tmp_path):
        counter = MotivoCounter(host, MotivoConfig(k=4, seed=33))
        counter.build()
        path = tmp_path / "late.jsonl"
        counter.configure_telemetry(
            TelemetryConfig(trace_out=str(path))
        )
        counter.sample_naive(50)
        counter.configure_telemetry(None)
        counter.sample_naive(50)
        counter.close()
        names = [
            json.loads(line)["name"]
            for line in path.read_text().splitlines()
        ]
        assert names.count("sample.naive") == 1


class TestExposition:
    def test_render_families(self):
        registry = MetricsRegistry()
        registry.inc("serve_requests", 3)
        registry.add_time("sample_gather", 1.5)
        registry.set_gauge("serve_open_tables", 2)
        registry.observe("serve_request_seconds", 0.003,
                         boundaries=(0.001, 0.01))
        body = render_prometheus(registry.snapshot())
        assert "# TYPE motivo_serve_requests_total counter" in body
        assert "motivo_serve_requests_total 3" in body
        assert "motivo_sample_gather_seconds_total 1.5" in body
        assert "# TYPE motivo_serve_open_tables gauge" in body
        assert "motivo_serve_open_tables 2" in body
        assert "# TYPE motivo_serve_request_seconds histogram" in body
        assert 'motivo_serve_request_seconds_bucket{le="0.001"} 0' in body
        assert 'motivo_serve_request_seconds_bucket{le="0.01"} 1' in body
        assert 'motivo_serve_request_seconds_bucket{le="+Inf"} 1' in body
        assert "motivo_serve_request_seconds_count 1" in body
        assert body.endswith("\n")

    def test_bucket_counts_are_cumulative(self):
        registry = MetricsRegistry()
        for value in (0.5, 1.5, 3.0):
            registry.observe("h", value, boundaries=(1.0, 2.0))
        body = render_prometheus(registry.snapshot())
        assert 'motivo_h_bucket{le="1"} 1' in body
        assert 'motivo_h_bucket{le="2"} 2' in body
        assert 'motivo_h_bucket{le="+Inf"} 3' in body

    def test_names_sanitized(self):
        registry = MetricsRegistry()
        registry.inc("weird-name.with spaces")
        body = render_prometheus(registry.snapshot())
        assert "motivo_weird_name_with_spaces_total 1" in body

    def test_prometheus_syntax(self):
        """Every non-comment line is `name[{labels}] value`."""
        import re

        registry = MetricsRegistry()
        registry.inc("c")
        registry.observe("h", 0.5)
        line_ok = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le=\"[^\"]+\"\})? "
            r"[0-9.eE+-]+(\+Inf)?$"
        )
        for line in render_prometheus(registry.snapshot()).splitlines():
            if line.startswith("# TYPE "):
                continue
            assert line_ok.match(line), line


class TestArtifactCacheTelemetry:
    """Satellite (f): cache decisions are visible as counters."""

    @pytest.fixture(scope="class")
    def host(self):
        return erdos_renyi(60, 180, rng=12)

    def test_counters_move_on_warm_reopen(self, host, tmp_path):
        root = str(tmp_path / "cache")
        cold = MotivoCounter(
            host, MotivoConfig(k=4, seed=7, artifact_dir=root)
        )
        cold.build()
        registry = cold.instrumentation.registry
        assert registry.counter_value("artifact_cache_lookup_misses") == 1
        assert registry.counter_value("artifact_cache_lookup_hits") == 0
        cold.close()

        warm = MotivoCounter(
            host, MotivoConfig(k=4, seed=7, artifact_dir=root)
        )
        warm.build()
        registry = warm.instrumentation.registry
        assert registry.counter_value("artifact_cache_lookup_hits") == 1
        assert registry.counter_value("artifact_cache_hits") == 1
        # The adopted artifact's manifest merges the cold build's own
        # instrumentation back in, so the build-time lookup miss rides
        # along — the load-bearing fact is that *this* open was counted
        # as a hit, never a fresh miss on the facade counter.
        assert registry.counter_value("artifact_cache_misses") == 1
        warm.close()

    def test_evict_verify_and_bytes_gauge(self, host, tmp_path):
        from repro.artifacts import ArtifactCache

        root = str(tmp_path / "cache")
        counter = MotivoCounter(
            host, MotivoConfig(k=4, seed=7, artifact_dir=root)
        )
        counter.build()
        counter.close()

        registry = MetricsRegistry()
        cache = ArtifactCache(root, registry=registry)
        (entry,) = cache.entries()
        cache.verify(entry.key)  # raises on digest mismatch
        assert registry.counter_value("artifact_cache_verifies") == 1
        assert cache.bytes_on_disk() > 0
        assert registry.gauge_value("artifact_cache_bytes") > 0
        assert cache.evict(entry.key)
        assert registry.counter_value("artifact_cache_evictions") == 1
        cache.bytes_on_disk()
        assert registry.gauge_value("artifact_cache_bytes") == 0
