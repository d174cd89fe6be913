"""Served dense updates write into spares, not into copies.

``apply_edge_updates`` writes a changed dense level whose keys stay into
a *spare* — a layer a superseded version held — after copying in the
spare's stale columns, and hands back the layers it replaced as the next
spares; ``SamplingService`` keeps them on the successor handle and
passes on only those no open version still reads.  Every table version
must equal :func:`build_table` on its graph, with caches equal to a
recomputation, while a version a request holds never changes a byte.
All comparisons are exact.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.artifacts import ArtifactCache
from repro.colorcoding import incremental
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.incremental import apply_edge_updates
from repro.colorcoding.urn import TreeletUrn
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.motivo import MotivoConfig, MotivoCounter
from repro.sampling.naive import naive_estimate
from repro.sampling.occurrences import GraphletClassifier
from repro.serve import SamplingService
from repro.serve import service as service_module
from repro.util.rng import ensure_rng

from support.graphgen import powerlaw_edges

K = 4
SEED = 11
SAMPLES = 300
HOSTS = ("erdos-renyi", "chung-lu")


def _host(kind: str) -> Graph:
    if kind == "erdos-renyi":
        return erdos_renyi(90, 260, rng=3)
    return Graph.from_edges(powerlaw_edges(120, 400, 2.3, seed=7), 120)


def _digest(table) -> str:
    digest = hashlib.sha256()
    for h in range(1, table.k + 1):
        layer = table.layer(h)
        digest.update(repr(layer.keys).encode())
        digest.update(np.ascontiguousarray(
            layer.dense_counts(), dtype=np.float64).tobytes())
    return digest.hexdigest()


def _warm(table) -> None:
    """Fill every dense layer's caches, so the writes must patch them."""
    for h in range(1, table.k + 1):
        layer = table.layer(h)
        layer.totals()
        layer.row_totals()
        layer.max_value()
        layer.cumulative()


def _assert_current(table, graph, coloring) -> None:
    """``table`` is ``build_table``'s on ``graph``, and every cache it
    holds equals a recomputation."""
    assert _digest(table) == _digest(build_table(graph, coloring))
    for h in range(1, table.k + 1):
        layer = table.layer(h)
        counts = layer.counts
        if layer._totals is not None:
            assert np.array_equal(layer._totals, counts.sum(axis=0)), h
        if layer._row_totals is not None:
            assert np.array_equal(layer._row_totals, counts.sum(axis=1)), h
        if layer._max is not None:
            assert layer._max == float(counts.max()), h
        if layer._cumulative is not None:
            assert np.array_equal(
                layer._cumulative, np.cumsum(counts, axis=0)
            ), h


def _absent_pairs(graph: Graph, colors, count: int, start: int = 0):
    """``count`` absent vertex pairs with endpoints of different colors
    (a same-colored edge changes no colorful count)."""
    n = graph.num_vertices
    found = []
    for a in range(start, n):
        for b in range(a + 1, n):
            if not graph.has_edge(a, b) and colors[a] != colors[b]:
                found.append((a, b))
                if len(found) == count:
                    return found
    raise AssertionError("graph has too few absent pairs")


def _changed_sizes(before, after) -> int:
    return sum(
        after.layer(h) is not before.layer(h) for h in range(2, before.k + 1)
    )


def _read_only(table):
    """``table`` with read-only layers, as a memory-mapped open has."""
    for h in range(1, table.k + 1):
        table.layer(h).counts.flags.writeable = False
    return table


def _counters(service) -> tuple:
    counters = service.instrumentation.counters
    return (
        counters.get("delta_layers_recycled", 0),
        counters.get("delta_layers_copied", 0),
    )


def _served_root(tmp_path, host: Graph) -> str:
    root = str(tmp_path / "cache")
    counter = MotivoCounter(
        host, MotivoConfig(k=K, seed=SEED, artifact_dir=root)
    )
    counter.build()
    counter.close()
    return root


def _replay(graph: Graph, coloring, seed: int, batch_size: int):
    """A single-threaded naive estimate on a fresh build of ``graph``."""
    return naive_estimate(
        TreeletUrn(graph, build_table(graph, coloring), coloring),
        GraphletClassifier(graph, K),
        SAMPLES,
        ensure_rng(seed),
        batch_size=batch_size,
    )


def _same(a, b) -> bool:
    return (a.counts, a.hits) == (b.counts, b.hits)


@pytest.mark.parametrize("kind", HOSTS)
class TestSpareRule:
    """``apply_edge_updates`` with spares, version by version."""

    def _start(self, kind):
        graph = _host(kind)
        coloring = ColoringScheme.uniform(graph.num_vertices, K, rng=SEED)
        table = _read_only(build_table(graph, coloring))
        _warm(table)
        return graph, coloring, table

    def _step(self, table, graph, coloring, batch, spares):
        result = apply_edge_updates(
            table, graph, batch, coloring, spares=spares
        )
        _warm(result.table)
        _assert_current(result.table, result.graph, coloring)
        return result

    def test_toggles_recycle_after_two_copies(self, kind):
        graph, coloring, table = self._start(kind)
        pairs = _absent_pairs(graph, coloring.colors, 3)
        batches = [[("+", *pair)] for pair in pairs] + [
            [("-", *pair)] for pair in pairs
        ]
        spares: dict = {}
        for step, batch in enumerate(batches):
            result = self._step(table, graph, coloring, batch, spares)
            changed = _changed_sizes(table, result.table)
            assert changed > 0
            if step < 2:
                # The read-only base, then no superseded copy yet.
                assert (result.layers_recycled, result.layers_copied) == (
                    0, changed
                )
            else:
                assert (result.layers_recycled, result.layers_copied) == (
                    changed, 0
                )
                for size, spare in spares.items():
                    assert result.table.layer(size) is spare.layer
            if step == 0:
                assert result.spares == {}
            for size, spare in result.spares.items():
                assert spare.layer is table.layer(size)
                assert np.array_equal(
                    spare.stale, result.support[size].cols
                )
            graph, table, spares = result.graph, result.table, result.spares

    def test_key_death_and_birth_copy_that_size(self, kind):
        graph, coloring, table = self._start(kind)
        colors = np.asarray(coloring.colors)
        pair = [
            (u, v) for u, v in graph.edges()
            if {int(colors[u]), int(colors[v])} == {1, 2}
        ]
        toggles = _absent_pairs(graph, colors, 2)
        batches = [
            [("+", *toggles[0])],
            [("+", *toggles[1])],
            [("-", u, v) for u, v in pair],
            [("+", u, v) for u, v in pair],
            [("-", *toggles[0])],
        ]
        spares: dict = {}
        for batch in batches:
            result = self._step(table, graph, coloring, batch, spares)
            rekeyed = {
                h for h in range(2, K + 1)
                if result.table.layer(h).keys != table.layer(h).keys
            }
            if batch[0][0] == "-" and len(batch) > 1:
                assert rekeyed  # the color pair's size-2 key died
            changed = _changed_sizes(table, result.table)
            assert result.layers_recycled + result.layers_copied == changed
            assert result.layers_copied >= len(rekeyed)
            assert not rekeyed & set(result.spares)
            graph, table, spares = result.graph, result.table, result.spares

    def test_rebuilt_batch_yields_no_spares(self, kind, monkeypatch):
        graph, coloring, table = self._start(kind)
        pairs = _absent_pairs(graph, coloring.colors, 4)
        spares: dict = {}
        for pair in pairs[:2]:
            result = self._step(table, graph, coloring, [("+", *pair)], spares)
            graph, table, spares = result.graph, result.table, result.spares
        assert spares
        with monkeypatch.context() as patch:
            patch.setattr(incremental, "_MIN_VOLUME", 0)
            patch.setattr(incremental, "_REBUILD_RATIO", 1 << 40)
            result = self._step(
                table, graph, coloring, [("+", *pairs[2])], spares
            )
        assert result.delta_rebuilds == 1
        assert result.spares == {}
        assert (result.layers_recycled, result.layers_copied) == (0, 0)
        graph, table = result.graph, result.table
        result = self._step(table, graph, coloring, [("+", *pairs[3])], {})
        assert result.layers_recycled == 0
        assert result.layers_copied == _changed_sizes(table, result.table)

    def test_mixed_batch_writes_the_spare_once(self, kind):
        graph, coloring, table = self._start(kind)
        pairs = _absent_pairs(graph, coloring.colors, 4)
        spares: dict = {}
        for pair in pairs[:2]:
            result = self._step(table, graph, coloring, [("+", *pair)], spares)
            graph, table, spares = result.graph, result.table, result.spares
        batch = [("-", *pairs[0]), ("+", *pairs[2]), ("+", *pairs[3])]
        result = self._step(table, graph, coloring, batch, spares)
        changed = _changed_sizes(table, result.table)
        assert (result.layers_recycled, result.layers_copied) == (changed, 0)
        for size, spare in result.spares.items():
            cols = result.support[size].cols
            assert np.array_equal(spare.stale, cols)
            # Outside the stale columns the spare is the new layer.
            rest = np.setdiff1d(np.arange(graph.num_vertices), cols)
            assert np.array_equal(
                spare.layer.counts[:, rest],
                result.table.layer(size).counts[:, rest],
            )
        # The hand-over counts are the final columns over both passes.
        for size, written in result.support.items():
            assert np.array_equal(
                written.counts,
                result.table.layer(size).counts[:, written.cols],
            )

    def test_in_place_keeps_its_bytes(self, kind):
        graph, coloring, _ = self._start(kind)
        table = build_table(graph, coloring)
        pairs = _absent_pairs(graph, coloring.colors, 2)
        layers = [table.layer(h) for h in range(1, K + 1)]
        result = apply_edge_updates(
            table, graph, [("+", *pairs[0]), ("+", *pairs[1])], coloring,
            in_place=True,
        )
        assert [result.table.layer(h) for h in range(1, K + 1)] == layers
        assert (result.layers_recycled, result.layers_copied) == (0, 0)
        assert result.spares == {}
        _assert_current(result.table, result.graph, coloring)


@pytest.mark.parametrize("kind", HOSTS)
class TestServedSpares:
    """The service passes on only the spares no open version reads."""

    def test_first_two_updates_copy_then_recycle(self, kind, tmp_path):
        host = _host(kind)
        root = _served_root(tmp_path, host)
        key = ArtifactCache(root).entries()[0].key
        with SamplingService(root) as service:
            service.add_graph(host)
            handle = service.open(key)
            pairs = _absent_pairs(host, handle.coloring.colors, 3)
            graph = host
            for step, pair in enumerate(pairs + pairs):
                op = "+" if step < len(pairs) else "-"
                before = service.open(key).table
                counted = _counters(service)
                service.count(samples=SAMPLES, session=f"s{step}", seed=step)
                service.update([[op, *pair]])
                graph = graph.apply_updates([(op, *pair)])[0]
                handle = service.open(key)
                _assert_current(handle.table, graph, handle.coloring)
                changed = _changed_sizes(before, handle.table)
                recycled, copied = np.subtract(_counters(service), counted)
                expected = (0, changed) if step < 2 else (changed, 0)
                assert (recycled, copied) == expected, step
            held = handle.spare_bytes()
            assert held > 0
            gauge = service.metrics_snapshot()["gauge.serve_spare_bytes"]
            assert gauge == held
            text = service.metrics_text()
            assert "motivo_delta_layers_recycled_total" in text
            assert "motivo_delta_layers_copied_total" in text
            assert "motivo_serve_spare_bytes" in text
            service.evict(key, from_disk=False)
            assert handle.spare_bytes() == 0
            assert service.metrics_snapshot()["gauge.serve_spare_bytes"] == 0

    def test_held_version_keeps_its_table(self, kind, tmp_path):
        host = _host(kind)
        root = _served_root(tmp_path, host)
        key = ArtifactCache(root).entries()[0].key
        with SamplingService(root) as service:
            service.add_graph(host)
            coloring = service.open(key).coloring
            pairs = _absent_pairs(host, coloring.colors, 4)
            graph = host
            for pair in pairs[:3]:
                service.update([["+", *pair]])
                graph = graph.apply_updates([("+", *pair)])[0]
            held = service._checkout(key)
            held_graph, digest = graph, _digest(held.table)
            copies = []
            batches = [("-", *pair) for pair in pairs[:3]] + [
                ("+", *pairs[3]), ("+", *pairs[0])
            ]
            for op, a, b in batches:
                counted = _counters(service)
                service.update([[op, a, b]])
                graph = graph.apply_updates([(op, a, b)])[0]
                copies.append(
                    int(np.subtract(_counters(service), counted)[1])
                )
                current = service.open(key)
                _assert_current(current.table, graph, coloring)
                assert _digest(held.table) == digest
            # Only the update whose spares the held version holds copied.
            assert copies[0] == 0 and copies[1] > 0
            assert copies[2:] == [0] * (len(copies) - 2)
            estimates, _ = held.run(
                "naive", SAMPLES, ensure_rng(5), cover_threshold=300
            )
            assert _same(
                estimates, _replay(held_graph, coloring, 5, held.batch_size)
            )
            held.release()
            assert held.closed
            counted = _counters(service)
            service.update([["-", *pairs[3]]])
            graph = graph.apply_updates([("-", *pairs[3])])[0]
            recycled, copied = np.subtract(_counters(service), counted)
            assert recycled > 0 and copied == 0
            _assert_current(service.open(key).table, graph, coloring)

    def test_failed_append_drops_the_spares(
        self, kind, tmp_path, monkeypatch
    ):
        host = _host(kind)
        root = _served_root(tmp_path, host)
        key = ArtifactCache(root).entries()[0].key
        with SamplingService(root) as service:
            service.add_graph(host)
            coloring = service.open(key).coloring
            pairs = _absent_pairs(host, coloring.colors, 5)
            graph = host
            for pair in pairs[:3]:
                service.update([["+", *pair]])
                graph = graph.apply_updates([("+", *pair)])[0]
            old = service.open(key)
            assert old._spares
            digest = _digest(old.table)
            written = {}

            def failing(*args, **kwargs):
                written.update(old=True)
                raise OSError("disk full")

            counted = _counters(service)
            with monkeypatch.context() as patch:
                patch.setattr(service_module, "append_edge_log", failing)
                with pytest.raises(OSError):
                    service.update([["+", *pairs[3]]])
            assert written and _counters(service) == counted
            # The old version keeps serving, unchanged, with no spares.
            assert service.open(key) is old
            assert old._spares == {}
            assert _digest(old.table) == digest
            served = service.count(samples=SAMPLES, session="after", seed=3)
            assert _same(
                served.estimates, _replay(graph, coloring, 3, old.batch_size)
            )
            # A different batch, then the failed one: both exact.
            for pair in (pairs[4], pairs[3]):
                service.update([["+", *pair]])
                graph = graph.apply_updates([("+", *pair)])[0]
                _assert_current(service.open(key).table, graph, coloring)
            recycled, copied = np.subtract(_counters(service), counted)
            assert copied > 0 and recycled > 0


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """``kind -> (host, cache root, coloring)``: one dense k=4 build per
    host graph, made on first use and copied by each example."""
    built: dict = {}

    def get(kind: str) -> tuple:
        if kind not in built:
            host = _host(kind)
            root = str(tmp_path_factory.mktemp(f"spares-{kind}"))
            counter = MotivoCounter(
                host, MotivoConfig(k=K, seed=SEED, artifact_dir=root)
            )
            counter.build()
            built[kind] = (host, root, counter.coloring)
            counter.close()
        return built[kind]

    return get


_ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["toggle", "toggle", "mixed", "hold", "release"]),
        st.integers(0, 10_000),
    ),
    min_size=4,
    max_size=12,
)


class TestSpareProperty:
    @pytest.mark.parametrize("kind", HOSTS)
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(actions=_ACTIONS)
    def test_versions_stay_exact_under_holds(
        self, kind, template, tmp_path, actions
    ):
        host, built, coloring = template(kind)
        root = tempfile.mkdtemp(dir=str(tmp_path))
        shutil.rmtree(root)
        shutil.copytree(built, root)
        key = ArtifactCache(root).entries()[0].key
        colors = np.asarray(coloring.colors)
        n = host.num_vertices
        graph = host
        holds: list = []
        with SamplingService(root) as service:
            service.add_graph(host)
            for action, draw in actions:
                rng = np.random.default_rng(draw)
                if action == "hold":
                    handle = service._checkout(key)
                    holds.append((handle, _digest(handle.table)))
                elif action == "release" and holds:
                    handle, _ = holds.pop(int(rng.integers(len(holds))))
                    handle.release()
                elif action != "release":
                    batch = []
                    while not batch:
                        a, b = (int(x) for x in rng.integers(0, n, 2))
                        if a != b and colors[a] != colors[b]:
                            op = "-" if graph.has_edge(a, b) else "+"
                            batch.append((op, a, b))
                    if action == "mixed":
                        edges = list(graph.edges())
                        u, v = edges[int(rng.integers(len(edges)))]
                        batch.append(("-", int(u), int(v)))
                        while len(batch) < 4:
                            a, b = (int(x) for x in rng.integers(0, n, 2))
                            if a != b and not graph.has_edge(a, b):
                                batch.append(("+", a, b))
                    service.update([list(entry) for entry in batch])
                    graph = graph.apply_updates(batch)[0]
                    current = service.open(key)
                    _assert_current(current.table, graph, coloring)
                    urn = current.urn
                    uniforms = rng.random((64, urn.draw_width))
                    batched = urn.sample_batch(64, uniforms=uniforms)
                    looped = urn.sample_batch(
                        64, uniforms=uniforms, method="loop"
                    )
                    for got, want in zip(batched, looped):
                        assert np.array_equal(got, want)
                for handle, digest in holds:
                    assert _digest(handle.table) == digest
            for handle, _ in holds:
                handle.release()
