"""The artifact edge log: updates persist the change, not the state.

A served ``POST /update`` appends its effective edge changes to the
artifact's edge log and commits them in the manifest; reopening replays
the committed rows onto the blobs' table, and compaction folds them
back into blobs.  The contract is the incremental one: whatever path
the table took — logged and reopened from the built graph or from the
head graph, compacted, or kept in memory by the facade — it equals a
fresh build on the head graph, with the same estimates and RNG state.
The log is also a trust boundary: a damaged log or log field opens to
the same table or raises :class:`~repro.errors.ArtifactError`.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.artifacts import (
    FORMAT_VERSION,
    LOG_FORMAT_VERSION,
    ArtifactCache,
    load_manifest,
    open_table,
)
from repro.artifacts.table_artifact import file_digest
from repro.cli import main as cli_main
from repro.colorcoding.buildup import build_table
from repro.errors import ArtifactError, ReproError
from repro.graph.generators import erdos_renyi
from repro.graph.io import load_graph, save_edge_list
from repro.motivo import MotivoConfig, MotivoCounter
from repro.sampling.ags import ags_estimate
from repro.sampling.naive import DEFAULT_BATCH_SIZE, naive_estimate
from repro.serve import SamplingService, TableHandle
from repro.util.rng import ensure_rng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
K = 4
SEED = 11


def _digest(table) -> str:
    digest = hashlib.sha256()
    for size in range(1, table.k + 1):
        layer = table.layer(size)
        digest.update(f"{size}:{list(layer.keys)!r}".encode())
        digest.update(np.ascontiguousarray(
            layer.dense_counts(), dtype=np.float64).tobytes())
    return digest.hexdigest()


def _estimates(counter: MotivoCounter):
    """Naive and AGS estimates under fixed seeds (the counter's own
    stream untouched), as comparable tuples."""
    if counter.urn is None:
        return None
    naive = naive_estimate(
        counter.urn, counter.classifier, 400, ensure_rng(5),
        batch_size=counter.config.batch_size,
    )
    ags = ags_estimate(
        counter.urn, counter.classifier, 300, cover_threshold=40,
        rng=ensure_rng(6), batch_size=counter.config.batch_size,
    ).estimates
    return [(e.counts, e.hits) for e in (naive, ags)]


def _state(counter: MotivoCounter):
    """(table digest, estimates, RNG state) of one counter."""
    return (
        _digest(counter.table),
        _estimates(counter),
        counter._rng.bit_generator.state,
    )


def _cached_artifact(root: str, host, codec: str) -> str:
    counter = MotivoCounter(
        host,
        MotivoConfig(k=K, seed=SEED, artifact_dir=root, artifact_codec=codec),
    )
    counter.build()
    counter.close()
    return ArtifactCache(root).path(ArtifactCache(root).entries()[0].key)


def _batches(host, count: int):
    """``count`` update batches: inserts, deletes, one batch that empties
    the urn (every edge out) and one that revives it, then random churn."""
    rng = np.random.default_rng(8)
    edges = [list(edge) for edge in host.edges()]
    n = host.num_vertices
    batches = [
        [["+", *next(
            (a, b) for a in range(n) for b in range(a + 1, n)
            if not host.has_edge(a, b)
        )]],
        [["-", *edges[0]]],
        [["-", *edge] for edge in edges],
        [["+", *edge] for edge in edges],
    ]
    while len(batches) < count:
        batch = []
        for _ in range(int(rng.integers(1, 4))):
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            batch.append(["+" if rng.random() < 0.5 else "-", u, v])
        batches.append(batch)
    return batches[:count]


class TestReplayEqualsEveryOtherPath:
    """Reopened logged artifacts, compacted artifacts, fresh builds and
    the facade's in-memory counter agree after 1, 2 and 20 batches, and
    while the urn is empty and after it revives."""

    @pytest.mark.parametrize("codec", ["dense", "succinct"])
    def test_logged_reopen_equals_fresh_build_and_facade(
        self, tmp_path, codec
    ):
        host = erdos_renyi(40, 100, rng=5)
        root = str(tmp_path / "cache")
        directory = _cached_artifact(root, host, codec)
        facade = MotivoCounter(host, MotivoConfig(k=K, seed=SEED))
        facade.build()
        # 3 empties the urn and 4 revives it (see _batches).
        checkpoints = {1, 2, 3, 4, 20}
        emptied, swapped = [], 0
        with SamplingService(root) as service:
            service.add_graph(host)
            for index, batch in enumerate(_batches(host, 20), start=1):
                facade.update(batch)
                stats = service.update(batch)
                assert stats["fingerprint"] == facade.graph.fingerprint()
                emptied.append(facade.urn is None)
                swapped += stats["swapped"]
                if index not in checkpoints:
                    continue
                head = facade.graph
                manifest = load_manifest(directory)
                assert manifest["log"]["head_fingerprint"] == (
                    head.fingerprint()
                )
                expected = _state(facade)
                assert expected[0] == _digest(
                    build_table(head, facade.coloring)
                )
                for graph in (host, head):
                    reopened = MotivoCounter.from_artifact(graph, directory)
                    assert reopened.graph.fingerprint() == head.fingerprint()
                    assert _state(reopened) == expected
                    reopened.close()
        # Closing the service folded the log into the blobs.
        assert emptied[2] and not emptied[3]
        manifest = load_manifest(directory)
        assert "log" not in manifest
        assert manifest["format_version"] == FORMAT_VERSION
        assert not os.path.exists(os.path.join(directory, "edges.log"))
        compacted = MotivoCounter.from_artifact(facade.graph, directory)
        assert _state(compacted) == _state(facade)
        assert manifest["lineage"]["update_batches"] == swapped
        compacted.close()
        facade.close()

    def test_service_reopens_a_logged_artifact_from_either_graph(
        self, tmp_path
    ):
        """A restarted service serves a logged artifact whether it was
        handed the built graph or only the head graph."""
        host = erdos_renyi(40, 100, rng=5)
        root = str(tmp_path / "cache")
        directory = _cached_artifact(root, host, "dense")
        # Never closed, so nothing folds the log.
        writer = SamplingService(root)
        writer.add_graph(host)
        for batch in _batches(host, 2):
            writer.update(batch)
        head = writer.open(os.path.basename(directory)).graph
        expected = writer.count(samples=300, session="s", seed=3).estimates
        for graph in (host, head):
            service = SamplingService(root)  # not closed: keeps the log
            service.add_graph(graph)
            served = service.count(samples=300, session="s", seed=3)
            handle = service.open(os.path.basename(directory))
            assert handle.graph.fingerprint() == head.fingerprint()
            assert served.estimates.hits == expected.hits
        assert load_manifest(directory)["log"]["rows"] > 0


class TestServedUpdateWritesOnlyTheLog:
    @pytest.mark.parametrize("codec", ["dense", "succinct"])
    def test_only_log_and_manifest_change(self, tmp_path, codec):
        host = erdos_renyi(40, 100, rng=5)
        root = str(tmp_path / "cache")
        directory = _cached_artifact(root, host, codec)

        def digests():
            return {
                name: file_digest(os.path.join(directory, name))
                for name in sorted(os.listdir(directory))
            }

        before = digests()
        with SamplingService(root) as service:
            service.add_graph(host)
            service.count(samples=100, session="a", seed=1)
            for batch in _batches(host, 2):
                service.update(batch)
            after = digests()
            changed = {
                name for name in after if before.get(name) != after[name]
            }
            assert changed == {"edges.log", "manifest.json"}
            assert set(before) <= set(after)
            manifest = load_manifest(directory)
            assert manifest["format_version"] == LOG_FORMAT_VERSION
            assert manifest["log"]["rows"] == 2

    def test_noop_update_reports_elapsed_seconds(self, tmp_path):
        host = erdos_renyi(40, 100, rng=5)
        root = str(tmp_path / "cache")
        directory = _cached_artifact(root, host, "dense")
        before = file_digest(os.path.join(directory, "manifest.json"))
        present = next(iter(host.edges()))
        with SamplingService(root) as service:
            service.add_graph(host)
            stats = service.update([["+", *present]])
        assert stats["updates_applied"] == 0 and not stats["swapped"]
        assert stats["elapsed_seconds"] >= 0.0
        assert file_digest(os.path.join(directory, "manifest.json")) == before


def test_folds_racing_updates_and_counts(tmp_path):
    """Evicts that fold the log race edge updates and count requests:
    the update lock keeps every append and every fold whole, so no
    batch is lost from the lineage and the artifact ends at the head."""
    host = erdos_renyi(60, 180, rng=5)
    root = str(tmp_path / "cache")
    directory = _cached_artifact(root, host, "dense")
    key = os.path.basename(directory)
    edges = [
        (a, b) for a in range(60) for b in range(a + 1, 60)
        if not host.has_edge(a, b)
    ][:6]
    errors: list = []

    def guarded(body):
        def run():
            try:
                body()
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)
        return threading.Thread(target=run)

    def counts(index):
        return lambda: [
            service.count(samples=200, session=f"c{index}-{r}", seed=r)
            for r in range(15)
        ]

    def updates():
        for edge in edges:
            assert service.update([["+", *edge]])["updates_applied"] == 1

    def evicts():
        for _ in range(6):
            service.evict(key, from_disk=False)

    interval = sys.getswitchinterval()
    with SamplingService(root) as service:
        service.add_graph(host)
        threads = [guarded(counts(i)) for i in range(4)]
        threads += [guarded(updates), guarded(evicts)]
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
    head, _ = host.apply_updates([("+", *edge) for edge in edges])
    manifest = load_manifest(directory)
    assert "log" not in manifest
    assert manifest["lineage"]["update_batches"] == len(edges)
    opened = open_table(directory, head)
    assert _digest(opened.table) == _digest(
        build_table(head, opened.coloring)
    )


@pytest.fixture(scope="module")
def logged(tmp_path_factory):
    """A k=4 artifact with a two-batch edge log plus an uncommitted
    tail row, the graphs at its base and head, and the clean open's
    table digest."""
    host = erdos_renyi(40, 100, rng=5)
    root = str(tmp_path_factory.mktemp("logged"))
    directory = _cached_artifact(root, host, "dense")
    # Never closed, so nothing folds the log.
    service = SamplingService(root)
    service.add_graph(host)
    for batch in _batches(host, 2):
        service.update(batch)
    head = service.open(ArtifactCache(root).entries()[0].key).graph
    with open(os.path.join(directory, "edges.log"), "ab") as handle:
        handle.write(np.array([1, 2, 3], dtype="<i8").tobytes())
    clean = open_table(directory, host)
    assert clean.graph.fingerprint() == head.fingerprint()
    return directory, host, head, _digest(clean.table)


def _open_or_refuse(directory, graph, clean_digest, head) -> None:
    """The trust-boundary property: same table, or a typed error."""
    try:
        artifact = open_table(directory, graph)
    except ArtifactError:
        return
    assert artifact.graph.fingerprint() == head.fingerprint()
    assert _digest(artifact.table) == clean_digest


_HOSTILE = st.sampled_from(
    [None, "x", -1, 10**30, [], {}, True, 1.5, 0, 1, 3, 10**6]
)


class TestLogTrustBoundary:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_byte_flip_in_log_opens_identically_or_raises(
        self, logged, data
    ):
        directory, host, head, clean = logged
        with tempfile.TemporaryDirectory() as workdir:
            copy = os.path.join(workdir, "a")
            shutil.copytree(directory, copy)
            path = os.path.join(copy, "edges.log")
            blob = bytearray(open(path, "rb").read())
            at = data.draw(st.integers(0, len(blob) - 1), label="offset")
            blob[at] ^= data.draw(st.integers(1, 255), label="mask")
            with open(path, "wb") as handle:
                handle.write(bytes(blob))
            graph = data.draw(st.sampled_from([host, head]), label="graph")
            _open_or_refuse(copy, graph, clean, head)

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_log_field_mutation_opens_identically_or_raises(
        self, logged, data
    ):
        directory, host, head, clean = logged
        with tempfile.TemporaryDirectory() as workdir:
            copy = os.path.join(workdir, "a")
            shutil.copytree(directory, copy)
            path = os.path.join(copy, "manifest.json")
            manifest = json.load(open(path))
            field = data.draw(
                st.sampled_from(["rows", "head_fingerprint", "log"]),
                label="field",
            )
            value = data.draw(
                st.one_of(
                    _HOSTILE,
                    st.just(manifest["graph"]["fingerprint"]),
                    st.just(manifest["log"]["head_fingerprint"]),
                ),
                label="value",
            )
            if field == "log":
                manifest["log"] = value
            elif data.draw(st.booleans(), label="delete"):
                del manifest["log"][field]
            else:
                manifest["log"][field] = value
            with open(path, "w") as handle:
                json.dump(manifest, handle)
            graph = data.draw(st.sampled_from([host, head]), label="graph")
            _open_or_refuse(copy, graph, clean, head)

    def test_dropped_row_count_is_refused(self, logged, tmp_path):
        """Setting the row count to 0 must not pass for the base table."""
        directory, host, _head, _clean = logged
        copy = str(tmp_path / "a")
        shutil.copytree(directory, copy)
        path = os.path.join(copy, "manifest.json")
        manifest = json.load(open(path))
        manifest["log"]["rows"] = 0
        json.dump(manifest, open(path, "w"))
        with pytest.raises(ArtifactError, match="version"):
            open_table(copy, host)


@pytest.mark.parametrize("section", [[], "x", 5, None])
def test_non_object_graph_section_is_refused(tmp_path, section):
    host = erdos_renyi(40, 100, rng=5)
    directory = _cached_artifact(str(tmp_path / "cache"), host, "dense")
    path = os.path.join(directory, "manifest.json")
    manifest = json.load(open(path))
    manifest["graph"] = section
    json.dump(manifest, open(path, "w"))
    with pytest.raises(ArtifactError, match="graph section"):
        open_table(directory, host)
    with SamplingService(str(tmp_path / "cache")) as service:
        service.add_graph(host)
        with pytest.raises(ReproError):
            service.count(samples=10)


def test_benchmark_entry_points_resolve():
    """Every lookup site the end-to-end benchmark's span recorder wraps
    (``e2ebench/spans.py::ENTRY_POINTS``) still exists and is callable."""
    spec = importlib.util.spec_from_file_location(
        "e2ebench_spans", os.path.join(ROOT, "e2ebench", "spans.py")
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.ENTRY_POINTS) >= 25
    for module_name, path, _name in spans.ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        for attribute in path.split("."):
            assert hasattr(owner, attribute), (module_name, path)
            owner = getattr(owner, attribute)
        assert callable(owner), (module_name, path)


def test_naive_count_draws_in_default_chunks(tmp_path, monkeypatch):
    """An artifact recording ``batch_size`` 1 serves a naive /count in
    ⌈s/4096⌉ draws, with the hits of 4096-sample chunks."""
    host = erdos_renyi(60, 180, rng=3)
    root = str(tmp_path / "cache")
    counter = MotivoCounter(
        host, MotivoConfig(k=K, seed=SEED, batch_size=1, artifact_dir=root)
    )
    counter.build()
    counter.close()
    directory = ArtifactCache(root).path(ArtifactCache(root).entries()[0].key)
    assert load_manifest(directory)["build"]["batch_size"] == 1
    calls = []
    draw = TableHandle.draw

    def spy(self, n, rng):
        calls.append(n)
        return draw(self, n, rng)

    monkeypatch.setattr(TableHandle, "draw", spy)
    samples = 2 * DEFAULT_BATCH_SIZE + 100
    with SamplingService(root) as service:
        service.add_graph(host)
        served = service.count(samples=samples, session="s", seed=9)
    assert len(calls) == -(-samples // DEFAULT_BATCH_SIZE) == 3
    reference = MotivoCounter.from_artifact(host, directory)
    expected = naive_estimate(
        reference.urn, reference.classifier, samples, ensure_rng(9),
        batch_size=DEFAULT_BATCH_SIZE,
    )
    assert served.estimates.hits == expected.hits
    reference.close()


def test_sigterm_stops_serve_and_compacts(tmp_path):
    """``motivo-py serve`` treats SIGTERM like Ctrl-C: it exits 0 after
    the service close, which folds the edge log, so the artifact opens
    against the head graph."""
    host = erdos_renyi(40, 100, rng=5)
    graph_path = str(tmp_path / "g.txt")
    save_edge_list(host, graph_path)
    artifact = str(tmp_path / "cache" / "smoke")
    assert cli_main([
        "build", graph_path, "--k", str(K), "--seed", str(SEED),
        "--output", artifact,
    ]) == 0
    graph = load_graph(graph_path)
    absent = next(
        (a, b) for a in range(40) for b in range(a + 1, 40)
        if not graph.has_edge(a, b)
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--artifact-dir",
         str(tmp_path / "cache"), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    try:
        line = server.stdout.readline()
        port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/update",
            data=json.dumps(
                {"artifact": "smoke", "updates": [["+", *absent]]}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            assert json.load(response)["updates_applied"] == 1
        assert load_manifest(artifact)["log"]["rows"] == 1
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=60) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
        server.stderr.close()
    manifest = load_manifest(artifact)
    assert "log" not in manifest
    head, _ = graph.apply_updates([("+", *absent)])
    opened = open_table(artifact, head)
    assert opened.graph is head
    assert _digest(opened.table) == _digest(
        build_table(head, opened.coloring)
    )
