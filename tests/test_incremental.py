"""Incremental maintenance under edge updates: bit-identity everywhere.

The delta subsystem's contract mirrors the sharded build's: *exact*
equality with the oracle — a fresh build on the updated graph under the
same coloring — for the table bytes, the kept key lists, the estimates,
and the master RNG stream.  Every assertion here is exact
(``array_equal``/``==``), never ``approx``.

The harness churns random graphs with random mixed insert/delete
batches and checks the maintained state against fresh rebuilds across
layouts (dense, succinct), builds (in-memory, sharded) and both
sampling methods, plus the sparse delta's own cases (repeated pairs,
key births and deaths, same-colored edges, the exact-integer bound),
the sampling-plane cache retention
paths (a kept gathered store whose stale reads go through the segment
store, on sparse and hub graphs), the
empty-urn lifecycle, the artifact edge log and its compaction, and the
facade / serve / CLI wiring.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import artifacts as artifacts_module
from repro.artifacts import (
    ArtifactCache,
    append_edge_log,
    compact_table,
    load_manifest,
    open_table,
    save_table,
)
from repro.cli import main as cli_main
from repro.colorcoding import incremental
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.incremental import (
    apply_edge_updates,
    touched_frontiers,
)
from repro.colorcoding.plans import compile_plans
from repro.colorcoding import urn as urn_module
from repro.colorcoding.urn import TreeletUrn
from repro.errors import ArtifactError, BuildError, SamplingError
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph, change_rows
from repro.graph.io import load_graph, save_binary
from repro.motivo import MotivoConfig, MotivoCounter
from repro.sampling.ags import ags_estimate
from repro.sampling.estimates import GraphletEstimates
from repro.sampling.naive import naive_estimate
from repro.sampling.occurrences import GraphletClassifier
from repro.serve import SamplingService, serve_http
from repro.telemetry import render_prometheus
from repro.treelets.registry import TreeletRegistry
from repro.util.instrument import Instrumentation
from repro.util.rng import ensure_rng

from support.graphgen import powerlaw_edges
from support.oracle import assert_layers_revalidate


def _edge_list(graph: Graph):
    return [(u, v) for u, v in graph.edges()]


def _mixed_batch(rng, graph: Graph, inserts: int, deletes: int):
    """A random batch: ``inserts`` absent pairs in, ``deletes`` edges out."""
    n = graph.num_vertices
    batch = []
    present = _edge_list(graph)
    if present and deletes:
        picks = rng.choice(len(present), size=min(deletes, len(present)),
                           replace=False)
        batch.extend(("-", *present[int(i)]) for i in picks)
    seen = set()
    while len(seen) < inserts:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        a, b = min(u, v), max(u, v)
        if (a, b) in seen or graph.has_edge(a, b):
            continue
        seen.add((a, b))
        batch.append(("+", a, b))
    rng.shuffle(batch)
    return batch


def _assert_tables_equal(reference, table, k):
    """Same layers, keys and counts; where both layers are succinct,
    also the same ``indptr``, ``key_row`` and ``values`` bytes and
    dtypes — the arrays the artifact codec writes.  ``table``'s succinct
    layers must also pass the validating constructor unchanged."""
    ref_sizes = [s for s in range(1, k + 1) if reference.has_layer(s)]
    got_sizes = [s for s in range(1, k + 1) if table.has_layer(s)]
    assert got_sizes == ref_sizes
    for size in ref_sizes:
        ref_layer = reference.layer(size)
        layer = table.layer(size)
        assert layer.keys == ref_layer.keys
        assert np.array_equal(
            np.asarray(layer.dense_counts()),
            np.asarray(ref_layer.dense_counts()),
        )
        if layer.layout == ref_layer.layout == "succinct":
            for name in ("indptr", "key_row", "values"):
                got, want = getattr(layer, name), getattr(ref_layer, name)
                assert got.dtype == want.dtype, (size, name)
                assert got.tobytes() == want.tobytes(), (size, name)
    assert_layers_revalidate(table)


def _digest(table, k: int) -> str:
    digest = hashlib.sha256()
    for h in range(1, k + 1):
        layer = table.layer(h)
        digest.update(repr(layer.keys).encode())
        digest.update(np.ascontiguousarray(
            layer.dense_counts(), dtype=np.float64).tobytes())
    return digest.hexdigest()


def _rng_state(counter: MotivoCounter):
    return counter._rng.bit_generator.state


class TestGraphSplice:
    """``Graph.apply_updates`` against the from-scratch constructor."""

    @pytest.mark.parametrize("trial", range(5))
    def test_splice_equals_from_edges(self, trial):
        rng = np.random.default_rng(4100 + trial)
        n = int(rng.integers(15, 60))
        m = min(int(rng.integers(n, 3 * n)), n * (n - 1) // 2)
        graph = Graph.from_edges(powerlaw_edges(n, m, seed=trial), n)
        batch = _mixed_batch(rng, graph, inserts=int(rng.integers(0, 6)),
                             deletes=int(rng.integers(0, 6)))
        new_graph, touched = graph.apply_updates(batch)

        edges = set(_edge_list(graph))
        for op, u, v in batch:
            pair = (min(u, v), max(u, v))
            (edges.add if op == "+" else edges.discard)(pair)
        expected = Graph.from_edges(sorted(edges), n)
        assert np.array_equal(new_graph.indptr, expected.indptr)
        assert np.array_equal(new_graph.indices, expected.indices)
        assert new_graph.fingerprint() == expected.fingerprint()
        assert np.array_equal(touched, np.sort(touched))

    def test_noop_batch_changes_nothing(self):
        graph = erdos_renyi(20, 40, rng=3)
        u, v = next(iter(graph.edges()))
        absent = next(
            (a, b) for a in range(20) for b in range(a + 1, 20)
            if not graph.has_edge(a, b)
        )
        new_graph, touched = graph.apply_updates(
            [("+", u, v), ("-", *absent)]
        )
        assert touched.size == 0
        assert new_graph.fingerprint() == graph.fingerprint()

    @pytest.mark.parametrize("inserts,deletes", [(3, 0), (0, 3), (3, 3)])
    def test_each_batch_resolves_once(self, monkeypatch, inserts, deletes):
        """``apply_edge_updates`` resolves a batch once and hands the
        resolved changes on, for the new graph and for the
        deletions-only graph of a mixed batch alike."""
        graph = Graph.from_edges(powerlaw_edges(60, 150, seed=3), 60)
        batch = _mixed_batch(
            np.random.default_rng(8), graph, inserts, deletes
        )
        coloring = ColoringScheme.uniform(60, 4, rng=2)
        table = build_table(graph, coloring)
        resolves = []
        resolve = Graph.resolve_updates

        def counted(self, updates):
            resolves.append(updates)
            return resolve(self, updates)

        monkeypatch.setattr(Graph, "resolve_updates", counted)
        result = apply_edge_updates(table, graph, batch, coloring)
        assert len(resolves) == 1
        expected, _ = graph.apply_updates(batch)
        assert result.graph.fingerprint() == expected.fingerprint()
        assert result.graph.indptr.tobytes() == expected.indptr.tobytes()
        assert result.graph.indices.tobytes() == expected.indices.tobytes()

    def test_last_op_wins_within_batch(self):
        graph = erdos_renyi(20, 40, rng=3)
        absent = next(
            (a, b) for a in range(20) for b in range(a + 1, 20)
            if not graph.has_edge(a, b)
        )
        new_graph, touched = graph.apply_updates(
            [("+", *absent), ("-", *absent)]
        )
        assert touched.size == 0
        assert new_graph.fingerprint() == graph.fingerprint()


class TestTouchedFrontiers:
    def test_balls_are_union_bfs_balls(self):
        rng = np.random.default_rng(11)
        n = 40
        graph = Graph.from_edges(powerlaw_edges(n, 70, seed=2), n)
        batch = _mixed_batch(rng, graph, inserts=2, deletes=2)
        new_graph, _ = graph.apply_updates(batch)
        _, _, endpoints = graph.resolve_updates(batch)
        k = 5
        balls = touched_frontiers(graph, new_graph, endpoints, k)
        assert len(balls) == k - 1

        # Reference: BFS over the union adjacency.
        union = {v: set() for v in range(n)}
        for g in (graph, new_graph):
            for u, v in g.edges():
                union[u].add(v)
                union[v].add(u)
        ball = set(int(e) for e in endpoints)
        for radius, got in enumerate(balls):
            assert np.array_equal(got, np.asarray(sorted(ball)))
            ball |= {w for v in ball for w in union[v]}

    def test_nested(self):
        graph = erdos_renyi(30, 60, rng=1)
        new_graph, _ = graph.apply_updates([("+", 0, 1)])
        balls = touched_frontiers(
            graph, new_graph, np.asarray([0, 1]), 5
        )
        for inner, outer in zip(balls, balls[1:]):
            assert np.isin(inner, outer).all()


class TestDeltaBitIdentity:
    """The core property: delta-maintained table == fresh rebuild."""

    @pytest.mark.parametrize("trial", range(6))
    def test_random_churn_matches_fresh_build(self, trial):
        rng = np.random.default_rng(5200 + trial)
        k = int(rng.integers(3, 6))
        n = int(rng.integers(24, 60))
        m = min(int(rng.integers(n, 3 * n)), n * (n - 1) // 2)
        layout = "dense" if trial % 2 == 0 else "succinct"
        zero_rooting = trial % 3 != 0
        graph = Graph.from_edges(powerlaw_edges(n, m, seed=trial), n)
        coloring = ColoringScheme.uniform(
            n, k, rng=np.random.default_rng(6200 + trial)
        )
        table = build_table(
            graph, coloring, layout=layout, zero_rooting=zero_rooting
        )
        for _round in range(3):
            batch = _mixed_batch(
                rng, graph,
                inserts=int(rng.integers(1, 6)),
                deletes=int(rng.integers(0, 6)),
            )
            result = apply_edge_updates(table, graph, batch, coloring)
            fresh = build_table(
                result.graph, coloring, layout=layout,
                zero_rooting=zero_rooting,
            )
            _assert_tables_equal(fresh, result.table, k)
            for h in range(2, k + 1):
                assert (
                    result.table.layer(h).layout == fresh.layer(h).layout
                )
            graph, table = result.graph, result.table

    def test_in_place_matches_copy_path(self):
        n, m, k = 40, 90, 4
        graph = erdos_renyi(n, m, rng=8)
        coloring = ColoringScheme.uniform(n, k, rng=9)
        batch = [("+", 0, 1), ("-", *next(iter(graph.edges())))]
        copied = apply_edge_updates(
            build_table(graph, coloring), graph, batch, coloring,
            in_place=False,
        )
        patched = apply_edge_updates(
            build_table(graph, coloring), graph, batch, coloring,
            in_place=True,
        )
        _assert_tables_equal(copied.table, patched.table, k)
        assert copied.dirty_radii is not None
        assert np.array_equal(copied.dirty_radii, patched.dirty_radii)

    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("layout", ["dense", "succinct"])
    def test_keys_born_and_dying_remap_the_layer(self, layout, in_place):
        n, k = 14, 4
        graph = Graph.from_edges(powerlaw_edges(n, 14, seed=57), n)
        coloring = ColoringScheme.uniform(n, k, rng=57)
        table = build_table(
            graph, coloring, layout=layout, zero_rooting=False
        )
        old_keys = set(table.layer(2).keys)
        result = apply_edge_updates(
            table, graph, [("-", 0, 1), ("+", 9, 11)], coloring,
            in_place=in_place,
        )
        new_keys = set(result.table.layer(2).keys)
        assert old_keys - new_keys and new_keys - old_keys
        fresh = build_table(
            result.graph, coloring, layout=layout, zero_rooting=False
        )
        _assert_tables_equal(fresh, result.table, k)

    def test_count_widens_the_packed_dtype(self):
        """A star's size-3 counts cross 255 when it gains a leaf: the
        spliced records widen from uint8 to uint16, as a fresh seal
        does."""
        leaves = 31
        n, k = leaves + 2, 3
        graph = Graph.from_edges([(0, i) for i in range(1, leaves + 1)], n)
        colors = np.asarray([0] + [1 + i % 2 for i in range(1, n)])
        coloring = ColoringScheme(k=k, colors=colors)
        table = build_table(
            graph, coloring, layout="succinct", zero_rooting=False
        )
        assert table.layer(3).values.dtype == np.uint8
        result = apply_edge_updates(
            table, graph, [("+", 0, n - 1)], coloring
        )
        assert result.table.layer(3).values.dtype == np.uint16
        fresh = build_table(
            result.graph, coloring, layout="succinct", zero_rooting=False
        )
        _assert_tables_equal(fresh, result.table, k)

    def test_count_narrows_the_packed_dtype(self):
        """Deleting a leaf takes the star's size-3 counts back under 256:
        the spliced records narrow from uint16 to uint8, as a fresh seal
        does."""
        leaves = 32
        n, k = leaves + 1, 3
        graph = Graph.from_edges([(0, i) for i in range(1, leaves + 1)], n)
        colors = np.asarray([0] + [1 + i % 2 for i in range(1, n)])
        coloring = ColoringScheme(k=k, colors=colors)
        table = build_table(
            graph, coloring, layout="succinct", zero_rooting=False
        )
        assert table.layer(3).values.dtype == np.uint16
        result = apply_edge_updates(
            table, graph, [("-", 0, leaves)], coloring
        )
        assert result.table.layer(3).values.dtype == np.uint8
        fresh = build_table(
            result.graph, coloring, layout="succinct", zero_rooting=False
        )
        _assert_tables_equal(fresh, result.table, k)

    def test_chained_copies_carry_exact_caches(self):
        n, m, k = 60, 150, 5
        graph = erdos_renyi(n, m, rng=31)
        coloring = ColoringScheme.uniform(n, k, rng=32)
        table = build_table(graph, coloring)
        for h in range(1, k + 1):
            table.layer(h).max_value()  # cached, then patched
        rng = np.random.default_rng(33)
        hub = int(np.argmax(np.diff(graph.indptr)))
        # The hub loses edges first, so the largest counts drop too.
        batches = [[("-", hub, int(v)) for v in graph.neighbors(hub)[:3]]]
        for _round in range(3):
            batch = batches.pop() if batches else _mixed_batch(
                rng, graph, inserts=2, deletes=1
            )
            result = apply_edge_updates(
                table, graph, batch, coloring, in_place=False
            )
            graph, table = result.graph, result.table
        _assert_tables_equal(build_table(graph, coloring), table, k)
        cols = np.arange(0, n, 7)
        for h in range(1, k + 1):
            layer = table.layer(h)
            assert np.array_equal(
                layer.row_totals(), layer.counts.sum(axis=1)
            )
            assert layer.max_value() == float(layer.counts.max())
            # A copy carries the caches over patched, with no rescan.
            copy = layer.patched(cols, layer.counts[:, cols] + 1.0)
            assert copy._row_totals is not None and copy._max is not None
            assert np.array_equal(copy.row_totals(), copy.counts.sum(axis=1))
            assert copy.max_value() == float(copy.counts.max())

    def test_isolated_vertex_gains_first_edge(self):
        n, k = 20, 3
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)], n)
        coloring = ColoringScheme.uniform(n, k, rng=4)
        table = build_table(graph, coloring)
        result = apply_edge_updates(
            table, graph, [("+", 10, 11), ("+", 11, 12)], coloring
        )
        fresh = build_table(result.graph, coloring)
        _assert_tables_equal(fresh, result.table, k)

    def test_mismatched_coloring_rejected(self):
        graph = erdos_renyi(20, 40, rng=2)
        coloring = ColoringScheme.uniform(20, 3, rng=2)
        table = build_table(graph, coloring)
        wrong = ColoringScheme.uniform(20, 4, rng=2)
        with pytest.raises(BuildError):
            apply_edge_updates(table, graph, [("+", 0, 1)], wrong)


def _churn_batch(rng, graph: Graph, size: int):
    """A mixed batch of ``size`` ops over a few pairs, each pair named
    more than once: present edges toggled out and back, absent pairs in
    and out, duplicates — the last op on a pair wins."""
    n = graph.num_vertices
    present = _edge_list(graph)
    pairs = []
    while len(pairs) < max(1, size // 2):
        if present and rng.random() < 0.5:
            pairs.append(present[int(rng.integers(len(present)))])
            continue
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            pairs.append((min(u, v), max(u, v)))
    batch = [
        ("+" if rng.random() < 0.5 else "-", *pairs[int(i)])
        for i in rng.integers(0, len(pairs), size=size)
    ]
    rng.shuffle(batch)
    return batch


class TestDeltaRule:
    """The sparse delta under mixed batches, both layouts, both
    ownership modes, on a sparse graph and a hub graph."""

    GRAPHS = {
        "er": lambda: erdos_renyi(70, 120, rng=71),
        "chung_lu": lambda: Graph.from_edges(
            powerlaw_edges(90, 200, 2.2, seed=72), 90
        ),
    }

    def test_support_columns_match_unique(self):
        """A pass locates support columns through its vertex scratch,
        reused across calls, as ``np.unique`` would."""
        graph = self.GRAPHS["er"]()
        coloring = ColoringScheme.uniform(graph.num_vertices, 4, rng=5)
        run = incremental._Pass(
            build_table(graph, coloring), graph, graph,
            np.zeros(0, dtype=np.int64), 1, np.asarray(coloring.colors),
            TreeletRegistry(4),
        )
        rng = np.random.default_rng(6)
        for size in (0, 1, 9, 300, 9):
            verts = rng.integers(0, graph.num_vertices, size)
            cols, at = run._columns(verts)
            want, inverse = np.unique(verts, return_inverse=True)
            assert np.array_equal(cols, want)
            assert np.array_equal(at, inverse.ravel())

    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("layout", ["dense", "succinct"])
    @pytest.mark.parametrize("kind", ["er", "chung_lu"])
    def test_mixed_batches_with_repeated_pairs(self, kind, layout, in_place):
        """Churn, then a batch that deletes three quarters of the edges
        while inserting new pairs (keys die), then one that puts them
        back while deleting others (keys are born), then churn again —
        each batch naming some pairs twice."""
        graph = self.GRAPHS[kind]()
        k = 5
        coloring = ColoringScheme.uniform(
            graph.num_vertices, k, rng=np.random.default_rng(73)
        )
        table = build_table(graph, coloring, layout=layout)
        rng = np.random.default_rng(74)
        edges = _edge_list(graph)
        gone = [
            edges[int(i)]
            for i in rng.choice(len(edges), 3 * len(edges) // 4, replace=False)
        ]
        born = died = 0
        for step in range(4):
            if step == 1:
                batch = [("-", u, v) for u, v in gone] + [
                    ("+", *gone[0]), ("-", *gone[0]),
                ] + _mixed_batch(rng, graph, 3, 0)
            elif step == 2:
                batch = [("+", u, v) for u, v in gone] + [
                    ("-", *gone[1]), ("+", *gone[1]),
                ] + _mixed_batch(rng, graph, 0, 3)
            else:
                batch = _churn_batch(rng, graph, 10)
            before = [set(table.layer(h).keys) for h in range(1, k + 1)]
            result = apply_edge_updates(
                table, graph, batch, coloring, in_place=in_place
            )
            fresh = build_table(result.graph, coloring, layout=layout)
            _assert_tables_equal(fresh, result.table, k)
            assert result.delta_rebuilds == 0
            # Level 2 changes at both ends of every two-colored edge.
            _op, u, v = result.changes.T
            colors = coloring.colors
            assert (result.delta_entries > 0) == bool(
                (colors[u] != colors[v]).any()
            )
            for h, keys in enumerate(before, start=1):
                after = set(result.table.layer(h).keys)
                born += len(after - keys)
                died += len(keys - after)
            graph, table = result.graph, result.table
        assert born and died, (born, died)

    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("layout", ["dense", "succinct"])
    def test_same_color_edges_change_nothing(self, layout, in_place):
        """No colorful copy uses an edge between two vertices of one
        color: the update changes no entry, copies no layer, and still
        equals a fresh build on the changed graph."""
        n, k = 60, 4
        graph = erdos_renyi(n, 150, rng=75)
        coloring = ColoringScheme.uniform(n, k, rng=76)
        colors = coloring.colors
        table = build_table(graph, coloring, layout=layout)
        same = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if colors[u] == colors[v]
        ]
        batch = [("-", u, v) for u, v in same if graph.has_edge(u, v)][:3]
        batch += [("+", u, v) for u, v in same if not graph.has_edge(u, v)][:3]
        layers = [table.layer(h) for h in range(1, k + 1)]
        result = apply_edge_updates(
            table, graph, batch, coloring, in_place=in_place
        )
        assert result.updates_applied == len(batch) == 6
        assert result.delta_entries == 0
        assert result.rows_touched == 0
        assert result.delta_rebuilds == 0
        for h in range(1, k + 1):
            assert result.table.layer(h) is layers[h - 1]
        _assert_tables_equal(
            build_table(result.graph, coloring, layout=layout),
            result.table, k,
        )


class TestExactnessBound:
    """Past ``β_max · max count < 2^53`` the update is the oracle.

    A star at ``k = 6`` whose center has color 0 and whose leaves cycle
    through colors 1..5: the 0-rooted size-6 count at the center grows
    with the fifth power of the leaf count, and 5,600 leaves put
    ``β · max`` at 2^52.97.  A change at the center reaches every leaf,
    as a rebuild does, so the volume guard is lifted here: only the
    exactness bound decides.
    """

    K = 6
    LEAVES = 5600

    @pytest.fixture(autouse=True)
    def _no_volume_guard(self, monkeypatch):
        monkeypatch.setattr(incremental, "_REBUILD_RATIO", 1)

    def _star(self, leaves: int, spare: int):
        n = leaves + 1 + spare
        graph = Graph.from_edges([(0, i) for i in range(1, leaves + 1)], n)
        colors = np.asarray([0] + [1 + i % (self.K - 1) for i in range(n - 1)])
        return graph, ColoringScheme(k=self.K, colors=colors)

    def _past_bound(self, table) -> bool:
        plans = compile_plans(TreeletRegistry(self.K))
        return any(
            plans[h].betas.max() * table.layer(h).max_value() >= 2.0**53
            for h in range(2, self.K + 1)
        )

    @pytest.mark.parametrize("layout", ["dense", "succinct"])
    def test_below_bound_updates_by_delta(self, layout):
        graph, coloring = self._star(self.LEAVES, 1)
        table = build_table(graph, coloring, layout=layout)
        assert not self._past_bound(table)
        result = apply_edge_updates(
            table, graph, [("+", 0, self.LEAVES + 1)], coloring
        )
        assert result.delta_rebuilds == 0 and result.delta_entries > 0
        fresh = build_table(result.graph, coloring, layout=layout)
        assert not self._past_bound(fresh)
        _assert_tables_equal(fresh, result.table, self.K)

    @pytest.mark.parametrize("layout", ["dense", "succinct"])
    def test_insertions_past_bound_rebuild(self, layout):
        """The old table is exact; the new values cross the bound."""
        graph, coloring = self._star(self.LEAVES, 100)
        table = build_table(graph, coloring, layout=layout)
        assert not self._past_bound(table)
        batch = [("+", 0, self.LEAVES + 1 + i) for i in range(100)]
        instrumentation = Instrumentation()
        result = apply_edge_updates(
            table, graph, batch, coloring, instrumentation=instrumentation,
        )
        assert result.delta_rebuilds == 1 and result.delta_entries == 0
        assert instrumentation.counters["delta_rebuilds"] == 1
        fresh = build_table(result.graph, coloring, layout=layout)
        assert self._past_bound(fresh)
        _assert_tables_equal(fresh, result.table, self.K)

    @pytest.mark.parametrize("in_place", [False, True])
    def test_table_past_bound_rebuilds(self, in_place):
        """A table already past the bound never takes the delta, and the
        counter reports the rebuild."""
        graph, coloring = self._star(self.LEAVES + 100, 0)
        table = build_table(graph, coloring)
        assert self._past_bound(table)
        result = apply_edge_updates(
            table, graph, [("-", 0, 1)], coloring, in_place=in_place
        )
        assert result.delta_rebuilds == 1
        assert result.stats()["delta_rebuilds"] == 1
        _assert_tables_equal(
            build_table(result.graph, coloring), result.table, self.K
        )


class TestCounterUpdateAcrossStores:
    """update() bit-identity for every layout × store combination."""

    def _configs(self, tmp_path):
        return {
            "dense": MotivoConfig(k=4, seed=21),
            "succinct": MotivoConfig(k=4, seed=21, table_layout="succinct"),
            "sharded": MotivoConfig(
                k=4, seed=21, num_shards=3,
                shard_dir=str(tmp_path / "shards"),
            ),
        }

    @pytest.mark.parametrize("store", ["dense", "succinct", "sharded"])
    def test_update_equals_fresh_build_and_samples(self, store, tmp_path):
        graph = erdos_renyi(40, 100, rng=6)
        config = self._configs(tmp_path)[store]
        counter = MotivoCounter(graph, config)
        counter.build()
        rng = np.random.default_rng(900)
        batch = _mixed_batch(rng, graph, inserts=3, deletes=3)
        stats = counter.update(batch)
        assert stats["mode"] == "incremental"
        assert stats["updates_applied"] == len(batch)
        assert stats["rows_touched"] > 0

        assert_layers_revalidate(counter.table)
        fresh = MotivoCounter(counter.graph, MotivoConfig(k=4, seed=21))
        fresh.build()
        assert _digest(counter.table, 4) == _digest(fresh.table, 4)
        assert _rng_state(counter) == _rng_state(fresh)
        # Both sampling methods, both counters at identical stream
        # positions: estimates and post-draw states must match exactly.
        naive_inc = counter.sample_naive(200)
        naive_fresh = fresh.sample_naive(200)
        assert naive_inc.counts == naive_fresh.counts
        assert naive_inc.hits == naive_fresh.hits
        ags_inc = counter.sample_ags(150, 20).estimates
        ags_fresh = fresh.sample_ags(150, 20).estimates
        assert ags_inc.counts == ags_fresh.counts
        assert _rng_state(counter) == _rng_state(fresh)
        counter.close()
        fresh.close()

    def test_noop_batch_short_circuits(self):
        graph = erdos_renyi(30, 60, rng=2)
        counter = MotivoCounter(graph, MotivoConfig(k=4, seed=3))
        counter.build()
        table_before = counter.table
        u, v = next(iter(graph.edges()))
        stats = counter.update([("+", u, v)])
        assert stats["updates_applied"] == 0
        assert counter.table is table_before
        assert counter.graph is graph
        counter.close()


class TestEmptyUrnLifecycle:
    def test_delete_to_empty_and_revive(self):
        n, k = 14, 3
        graph = erdos_renyi(n, 20, rng=12)
        counter = MotivoCounter(graph, MotivoConfig(k=k, seed=2))
        counter.build()
        assert not counter.empty_urn

        removed = [("-", u, v) for u, v in graph.edges()]
        counter.update(removed)
        assert counter.graph.num_edges == 0
        assert counter.empty_urn
        estimates = counter.sample_naive(10)
        assert estimates.empty_urn
        assert estimates.counts == {}

        counter.update([("+", u, v) for _op, u, v in removed])
        assert not counter.empty_urn
        assert counter.graph.fingerprint() == graph.fingerprint()
        fresh = MotivoCounter(graph, MotivoConfig(k=k, seed=2))
        fresh.build()
        assert _digest(counter.table, k) == _digest(fresh.table, k)
        assert counter.sample_naive(50).counts == \
            fresh.sample_naive(50).counts
        counter.close()
        fresh.close()


class TestSuccessorProgram:
    def test_key_swap_at_equal_count_recompiles(self):
        """A mixed batch that drops one key of a layer and gains another
        keeps every key count: the successor must not keep the old
        descent program, whose rows now name other keys."""
        graph = Graph.from_edges(
            [(0, 1), (0, 4), (0, 6), (0, 7), (2, 4), (2, 8), (4, 7),
             (4, 8), (5, 7), (6, 7)],
            9,
        )
        coloring = ColoringScheme.uniform(9, 4, rng=113)
        table = build_table(graph, coloring)
        urn = TreeletUrn(graph, table, coloring)
        program = urn.descent_program()
        result = apply_edge_updates(
            table, graph,
            [("+", 8, 6), ("-", 0, 1), ("+", 4, 3), ("-", 4, 8)],
            coloring,
        )
        program.validate_for(result.table)  # the counts alone agree
        successor = urn.successor(result.graph, result.table)
        fresh = TreeletUrn(result.graph, result.table, coloring)
        uniforms = np.random.default_rng(5).random(
            (2000, fresh.draw_width)
        )
        for got, want in zip(
            successor.sample_batch(2000, uniforms=uniforms),
            fresh.sample_batch(2000, uniforms=uniforms),
        ):
            assert np.array_equal(got, want)


class TestGatheredStoreRetention:
    """The sampling plane's snapshot-pinned cache across updates.

    The successor urn takes over its predecessor's gathered-cumulative
    store after every update: stale rows are read only relatively
    (segment differences), so they stay bit-exact wherever a vertex's
    distance label clears the key's size, and the reads that may be
    stale go through the urn's segment store of exact running sums.
    Samples must equal a fresh counter's at matched stream positions,
    and the ``method="loop"`` oracle's under the same uniforms.
    """

    K = 5
    N = 600
    HUB_N = 200
    HUB_M = 600

    def _cycle_counter(self):
        edges = [(i, (i + 1) % self.N) for i in range(self.N)]
        graph = Graph.from_edges(edges, self.N)
        counter = MotivoCounter(graph, MotivoConfig(k=self.K, seed=17))
        counter.build()
        return graph, counter

    def test_store_survives_sparse_update(self):
        graph, counter = self._cycle_counter()
        counter.sample_naive(128)  # materialize gathered rows
        assert counter.urn._gath_slot is not None
        counter.update([("+", 0, self.N // 2)])
        assert counter.urn._gath_radii is not None, "store was flushed"
        assert counter.urn._gath_graph is graph, (
            "store must stay pinned to its build-time snapshot"
        )

        fresh = MotivoCounter(counter.graph, MotivoConfig(k=self.K, seed=17))
        fresh.build()
        fresh.sample_naive(128)  # match the incremental counter's stream
        assert _rng_state(counter) == _rng_state(fresh)
        inc = counter.sample_naive(96)
        ref = fresh.sample_naive(96)
        assert inc.counts == ref.counts
        assert inc.hits == ref.hits
        assert _rng_state(counter) == _rng_state(fresh)
        counter.close()
        fresh.close()

    def test_dirty_set_accumulates_across_updates(self):
        _graph, counter = self._cycle_counter()
        counter.sample_naive(128)
        counter.update([("+", 0, self.N // 2)])
        first = counter.urn._gath_radii.copy()
        counter.update([("+", 100, 400)])
        second = counter.urn._gath_radii
        assert second is not None
        assert np.all(second <= first), "labels merge by minimum"
        assert (second < first).any()
        assert second[[0, self.N // 2, 100, 400]].tolist() == [0, 0, 0, 0]

        fresh = MotivoCounter(counter.graph, MotivoConfig(k=self.K, seed=17))
        fresh.build()
        fresh.sample_naive(128)
        assert counter.sample_naive(96).counts == \
            fresh.sample_naive(96).counts
        assert _rng_state(counter) == _rng_state(fresh)
        counter.close()
        fresh.close()

    def test_store_hand_over_keeps_old_rows(self):
        """The successor shares the gathered matrix: rows below the
        hand-over point stay byte-identical while it draws, and the old
        urn, still valid for in-flight draws, builds later misses
        transiently instead of appending."""
        graph, counter = self._cycle_counter()
        old = counter.urn
        old.sample_batch(4, np.random.default_rng(1))
        handed = old._gathered_cached_rows
        assert 0 < handed < old.descent_program().num_gathered_keys
        rows = old._gath_matrix[:handed].copy()

        result = apply_edge_updates(
            old.table, graph, [("+", 0, self.N // 2)], old.coloring
        )
        new = old.successor(result.graph, result.table)
        assert new.take_gathered(old, result.dirty_radii)
        assert new._gath_matrix is old._gath_matrix

        uniforms = np.random.default_rng(2).random((512, new.draw_width))
        drawn = new.sample_batch(512, uniforms=uniforms)
        assert new._gathered_cached_rows > handed
        assert new._gath_matrix is old._gath_matrix, "appends never copy"
        assert np.array_equal(old._gath_matrix[:handed], rows)
        assert np.array_equal(new._gath_matrix[:handed], rows)
        fresh = TreeletUrn(result.graph, result.table, old.coloring)
        for got, want in zip(drawn, fresh.sample_batch(512, uniforms=uniforms)):
            assert np.array_equal(got, want)

        counters = old.instrumentation.counters
        transient = counters.get("gathered_transient_builds", 0)
        drawn = old.sample_batch(512, uniforms=uniforms)
        assert counters["gathered_transient_builds"] > transient
        assert old._gathered_cached_rows == handed
        assert np.array_equal(old._gath_matrix[:handed], rows)
        fresh = TreeletUrn(graph, old.table, old.coloring)
        for got, want in zip(drawn, fresh.sample_batch(512, uniforms=uniforms)):
            assert np.array_equal(got, want)
        counter.close()

    def test_wide_batch_keeps_store(self):
        _graph, counter = self._cycle_counter()
        rng = np.random.default_rng(44)
        # Chords give the cycle every key shape first, so the wide batch
        # below keeps the key universe and with it the program.
        counter.update(_mixed_batch(rng, counter.graph, 80, 0))
        counter.sample_naive(128)
        counter.update(_mixed_batch(rng, counter.graph, 40, 10))
        radii = counter.urn._gath_radii
        assert radii is not None, "a wide batch keeps the store"
        assert int((radii < self.K - 1).sum()) * 4 > self.N
        fresh = MotivoCounter(counter.graph, MotivoConfig(k=self.K, seed=17))
        fresh.build()
        fresh.sample_naive(128)
        assert counter.sample_naive(96).counts == \
            fresh.sample_naive(96).counts
        assert _rng_state(counter) == _rng_state(fresh)
        counter.close()
        fresh.close()

    # -- hub graphs: one insert's dirty ball covers most vertices ------

    def _hub_graph(self, seed: int = 5) -> Graph:
        return Graph.from_edges(
            powerlaw_edges(self.HUB_N, self.HUB_M, 2.2, seed=seed), self.HUB_N
        )

    @staticmethod
    def _assert_draws(urn, reference, uniforms, loop_rows=None):
        """``urn``'s batched draws equal ``reference``'s, and (on the
        first ``loop_rows``) the loop oracle's, under ``uniforms``."""
        drawn = urn.sample_batch(uniforms.shape[0], uniforms=uniforms)
        want = reference.sample_batch(uniforms.shape[0], uniforms=uniforms)
        for got, ref in zip(drawn, want):
            assert np.array_equal(got, ref)
        if loop_rows:
            head = uniforms[:loop_rows]
            loop = urn.sample_batch(loop_rows, uniforms=head, method="loop")
            for got, ref in zip(drawn, loop):
                assert np.array_equal(got[:loop_rows], ref)

    def test_single_insert_ball_covers_hub_graph(self):
        graph = self._hub_graph()
        hub = int(np.argmax(np.diff(graph.indptr)))
        other = next(
            v for v in range(self.HUB_N)
            if v != hub and not graph.has_edge(hub, v)
        )
        new_graph, _ = graph.apply_updates([("+", hub, other)])
        balls = touched_frontiers(
            graph, new_graph, np.array([hub, other]), self.K
        )
        assert balls[self.K - 2].size * 4 > self.HUB_N

    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("layout", ["dense", "succinct"])
    def test_hub_graph_chained_batches(self, layout, budget):
        """``budget=1`` starves every cache: rows past the 16-row floor
        are built per wave, and the segment store is cleared and
        refilled at every fill, reading succinct layers in place."""
        graph = self._hub_graph()
        coloring = ColoringScheme.uniform(self.HUB_N, self.K, rng=23)
        table = build_table(graph, coloring, layout=layout)
        urn = TreeletUrn(graph, table, coloring, descent_cache_bytes=budget)
        urn.sample_batch(512, np.random.default_rng(0))
        rng = np.random.default_rng(61)
        for step in range(3):
            batch = _mixed_batch(rng, graph, inserts=2, deletes=1)
            result = apply_edge_updates(table, graph, batch, coloring)
            assert_layers_revalidate(result.table)
            successor = urn.successor(result.graph, result.table)
            assert successor.take_gathered(urn, result.dirty_radii)
            assert successor._gath_matrix is urn._gath_matrix

            uniforms = np.random.default_rng(100 + step).random(
                (768, urn.draw_width)
            )
            self._assert_draws(
                successor,
                TreeletUrn(result.graph, result.table, coloring),
                uniforms,
                loop_rows=192,
            )
            # The old urn keeps answering in-flight draws on its table.
            self._assert_draws(
                urn, TreeletUrn(graph, table, coloring), uniforms
            )
            graph, table, urn = result.graph, result.table, successor
        assert urn._gath_matrix is not None
        counters = urn.instrumentation.counters
        assert counters["gathered_segment_fills"] > 0
        assert counters["gathered_segment_entries"] >= (
            counters["gathered_segment_fills"]
        )

    @pytest.mark.parametrize("budget", [1, None])
    def test_segment_store_clears_are_counted(self, budget):
        """A carried store whose budget cannot hold its segments clears
        and refills them at every fill, counted as
        ``gathered_segment_clears`` (``/metrics``:
        ``motivo_gathered_segment_clears_total``); draws stay equal to
        the loop oracle's.  The default budget never clears."""
        graph = self._hub_graph()
        coloring = ColoringScheme.uniform(self.HUB_N, self.K, rng=23)
        table = build_table(graph, coloring)
        urn = TreeletUrn(graph, table, coloring, descent_cache_bytes=budget)
        urn.sample_batch(512, np.random.default_rng(0))
        batch = _mixed_batch(np.random.default_rng(61), graph, 2, 1)
        result = apply_edge_updates(table, graph, batch, coloring)
        successor = urn.successor(result.graph, result.table)
        assert successor.take_gathered(urn, result.dirty_radii)
        uniforms = np.random.default_rng(5).random((768, urn.draw_width))
        self._assert_draws(
            successor, TreeletUrn(result.graph, result.table, coloring),
            uniforms, loop_rows=768,
        )
        counters = successor.instrumentation.counters
        assert counters["gathered_segment_fills"] > 0
        clears = counters.get("gathered_segment_clears", 0)
        scraped = render_prometheus(successor.instrumentation.snapshot())
        if budget is None:
            assert clears == 0
            assert "motivo_gathered_segment_clears_total" not in scraped
        else:
            assert clears > 0
            assert (
                f"motivo_gathered_segment_clears_total {clears}"
                in scraped.splitlines()
            )

    def test_fresh_urn_fills_no_segments(self):
        graph = self._hub_graph()
        coloring = ColoringScheme.uniform(self.HUB_N, self.K, rng=23)
        urn = TreeletUrn(graph, build_table(graph, coloring), coloring)
        urn.sample_batch(512, np.random.default_rng(0))
        assert "gathered_segment_fills" not in urn.instrumentation.counters
        assert urn._segments is None

    def test_frozen_store_builds_only_missing_rows(self):
        """An urn that handed its store over keeps answering in-flight
        draws: each wave builds the rows it misses into a transient
        matrix of exactly those rows and reads the cached ones from the
        shared store in place."""
        graph = self._hub_graph()
        coloring = ColoringScheme.uniform(self.HUB_N, self.K, rng=23)
        table = build_table(graph, coloring)
        urn = TreeletUrn(graph, table, coloring)
        urn.sample_batch(16, np.random.default_rng(0))
        handed = urn._gathered_cached_rows
        result = apply_edge_updates(
            table, graph,
            _mixed_batch(np.random.default_rng(7), graph, 1, 0), coloring,
        )
        successor = urn.successor(result.graph, result.table)
        assert successor.take_gathered(urn, result.dirty_radii)

        waves = []
        gathered_rows = urn._gathered_rows

        def recording(gkids):
            rows = gathered_rows(gkids)
            waves.append((np.unique(gkids), rows))
            return rows

        urn._gathered_rows = recording
        uniforms = np.random.default_rng(3).random((768, urn.draw_width))
        self._assert_draws(
            urn, TreeletUrn(graph, table, coloring), uniforms, loop_rows=192
        )
        assert urn._gathered_cached_rows == handed
        built_rows = 0
        for wanted, (matrix, slot, built) in waves:
            assert matrix is urn._gath_matrix
            missing = wanted[slot[wanted] < 0]
            if built is None:
                assert missing.size == 0
                continue
            transient, built_of = built
            assert transient.shape[0] == missing.size
            assert np.array_equal(
                built_of[missing], np.arange(missing.size)
            )
            built_rows += missing.size
        # Pinned: the waves build only the missing rows of keys a draw
        # can choose (those at admissible candidates with a positive
        # prime factor), and the counter agrees with the recorded waves.
        counters = urn.instrumentation.counters
        assert counters["gathered_transient_builds"] == built_rows == 5
        assert counters["gathered_budget_fallbacks"] == 2

    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=40, max_value=90),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=12, deadline=None)
    def test_carried_store_matches_fresh_property(self, seed, n, batches):
        graph = Graph.from_edges(powerlaw_edges(n, 3 * n, 2.2, seed=seed), n)
        rng = np.random.default_rng(seed)
        coloring = ColoringScheme.uniform(n, 4, rng=seed + 1)
        table = build_table(graph, coloring)
        try:
            urn = TreeletUrn(graph, table, coloring)
        except SamplingError:
            return  # an empty urn has no store to carry
        urn.sample_batch(64, rng)
        for _ in range(batches):
            batch = _mixed_batch(
                rng, graph, inserts=int(rng.integers(1, 4)),
                deletes=int(rng.integers(0, 3)),
            )
            result = apply_edge_updates(table, graph, batch, coloring)
            try:
                successor = urn.successor(result.graph, result.table)
            except SamplingError:
                return
            successor.take_gathered(urn, result.dirty_radii)
            uniforms = rng.random((256, urn.draw_width))
            self._assert_draws(
                successor,
                TreeletUrn(result.graph, result.table, coloring),
                uniforms,
                loop_rows=64,
            )
            graph, table, urn = result.graph, result.table, successor


class TestCarriedFillSources:
    """The dense copies segment fills read succinct layers through
    survive updates: the successor urn takes them over with the store
    and rewrites the batch's support columns from its own layers.

    A chain of updates on a succinct hub-graph table — toggle pairs, a
    batch sent to the rebuild, a batch that removes a key (and its
    reversal), so the program is not carried, and a mixed batch — driven
    through ``MotivoCounter.update`` and through a served
    ``POST /update``.  The hand-over copies the batch's final counts
    (:attr:`DeltaResult.support`) and reads no layer record.  After each
    update every source equals its layer decoded afresh, the next count
    equals a one-shot replay, and batched draws equal ``method="loop"``.
    """

    K = 4
    N = 200
    SAMPLES = 400

    def _host(self) -> Graph:
        return Graph.from_edges(
            powerlaw_edges(self.N, 600, 2.2, seed=5), self.N
        )

    def _steps(self, host: Graph, colors: np.ndarray):
        """``(kind, batch)`` pairs; kind ``"rebuild"`` runs with the
        volume guard set so that any delta outgrows it."""
        degrees = np.diff(host.indptr)
        hub = int(np.argmax(degrees))
        # Leaves first: a toggle to one makes and then kills entries.
        others = sorted(
            (
                v for v in range(self.N)
                if colors[v] != colors[hub] and not host.has_edge(hub, v)
            ),
            key=lambda v: (degrees[v], v),
        )
        # Every edge between colors 1 and 2: without them the size-2 key
        # of that color pair (and the keys above it) is gone.
        pair = [
            (u, v) for u, v in host.edges()
            if {int(colors[u]), int(colors[v])} == {1, 2}
        ]
        return [
            ("toggle", [("+", hub, others[0])]),
            ("toggle", [("-", hub, others[0])]),
            ("toggle", [("+", hub, others[1])]),
            ("rebuild", [("-", hub, others[1])]),
            ("toggle", [("+", hub, others[2])]),
            ("keys", [("-", u, v) for u, v in pair]),
            ("keys", [("+", u, v) for u, v in pair]),
            ("toggle", [("-", hub, others[2])]),
            ("toggle", [("+", hub, others[3])]),
            ("toggle", [("-", hub, others[3]), ("+", hub, others[4])]),
        ]

    @staticmethod
    def _assert_sources_current(urn: TreeletUrn) -> None:
        for size, source in urn._dense_sources.items():
            layer = urn.table.layer(size)
            assert layer.layout == "succinct"
            assert source.keys == layer.keys
            assert np.array_equal(source.counts, layer.dense_counts()), size

    def _check_step(
        self, kind, stats, previous, urn, carried, results, reads
    ) -> None:
        """The hand-over's effect on the fill sources: carried whole
        across a delta that keeps the program, with the batch's final
        support counts copied in and no record read, dropped across a
        rebuild or a key change."""
        assert stats["delta_rebuilds"] == (kind == "rebuild")
        assert (urn._program is previous._program) == (kind != "keys")
        assert reads == []
        (result,) = results
        if kind == "toggle":
            assert set(urn._dense_sources) == carried
            assert previous._dense_sources == {}
            for size, written in result.support.items():
                assert np.array_equal(
                    written.counts,
                    urn.table.layer(size).dense_counts()[:, written.cols],
                )
        else:
            assert urn._dense_sources == {}
        self._assert_sources_current(urn)

    @staticmethod
    def _watch(monkeypatch) -> tuple:
        """Lists filled by the next update: its ``DeltaResult`` and the
        layer records any hand-over reads."""
        results, reads = [], []
        apply = incremental.apply_edge_updates
        write = urn_module._write_records

        def applying(*args, **kwargs):
            results.append(apply(*args, **kwargs))
            return results[-1]

        def writing(records, layer, verts):
            reads.append(int(verts.size))
            write(records, layer, verts)

        monkeypatch.setattr(incremental, "apply_edge_updates", applying)
        monkeypatch.setattr(urn_module, "_write_records", writing)
        return results, reads

    def _assert_loop(self, urn: TreeletUrn, seed: int) -> None:
        uniforms = np.random.default_rng(seed).random((256, urn.draw_width))
        batched = urn.sample_batch(256, uniforms=uniforms)
        loop = urn.sample_batch(256, uniforms=uniforms, method="loop")
        for got, want in zip(batched, loop):
            assert np.array_equal(got, want)

    @staticmethod
    def _with_guard(monkeypatch, kind: str, update):
        if kind != "rebuild":
            return update()
        with monkeypatch.context() as patch:
            patch.setattr(incremental, "_MIN_VOLUME", 0)
            patch.setattr(incremental, "_REBUILD_RATIO", 1 << 40)
            return update()

    def _one_shot(self, graph, coloring, seed):
        table = build_table(graph, coloring, layout="succinct")
        return naive_estimate(
            TreeletUrn(graph, table, coloring),
            GraphletClassifier(graph, self.K),
            self.SAMPLES,
            np.random.default_rng(seed),
        )

    def test_counter_updates(self, monkeypatch):
        host = self._host()
        counter = MotivoCounter(
            host, MotivoConfig(k=self.K, seed=11, table_layout="succinct")
        )
        counter.build()
        counter.sample_naive(500)
        counters = counter.instrumentation.counters
        colors = np.asarray(counter.coloring.colors)
        for step, (kind, batch) in enumerate(self._steps(host, colors)):
            previous = counter.urn
            carried = set(previous._dense_sources)
            with monkeypatch.context() as patch:
                results, reads = self._watch(patch)
                stats = self._with_guard(
                    monkeypatch, kind, lambda: counter.update(batch)
                )
            urn = counter.urn
            self._check_step(
                kind, stats, previous, urn, carried, results, reads
            )
            decodes = counters.get("segment_source_decodes", 0)
            seed = 900 + step
            ours = self._one_shot(counter.graph, counter.coloring, seed)
            got = naive_estimate(
                urn, counter.classifier, self.SAMPLES,
                np.random.default_rng(seed),
            )
            assert (got.counts, got.hits) == (ours.counts, ours.hits)
            self._assert_sources_current(urn)
            # A fill decodes only the sizes the hand-over did not carry.
            assert counters.get("segment_source_decodes", 0) - decodes == (
                len(set(urn._dense_sources) - carried)
                if kind == "toggle"
                else len(urn._dense_sources)
            )
            self._assert_loop(urn, seed)
        assert counters["segment_source_patched_columns"] > 0
        counter.close()

    def test_served_updates(self, tmp_path, monkeypatch):
        host = self._host()
        root = str(tmp_path / "cache")
        built = MotivoCounter(
            host,
            MotivoConfig(
                k=self.K, seed=11, artifact_dir=root,
                artifact_codec="succinct", table_layout="succinct",
            ),
        )
        built.build()
        colors = np.asarray(built.coloring.colors)
        built.close()
        key = ArtifactCache(root).entries()[0].key
        with SamplingService(root) as service:
            service.add_graph(host)
            service.count(samples=500, session="warm", seed=1)
            directory = service.open(key).directory
            for step, (kind, batch) in enumerate(self._steps(host, colors)):
                previous = service.open(key).urn
                carried = set(previous._dense_sources)
                with monkeypatch.context() as patch:
                    results, reads = self._watch(patch)
                    stats = self._with_guard(
                        monkeypatch, kind, lambda: service.update(batch)
                    )
                urn = service.open(key).urn
                self._check_step(
                    kind, stats, previous, urn, carried, results, reads
                )
                seed = 900 + step
                served = service.count(
                    samples=self.SAMPLES, session=f"s{step}", seed=seed
                )
                replayed = MotivoCounter.from_artifact(host, directory)
                assert replayed.graph.fingerprint() == stats["fingerprint"]
                ours = self._one_shot(
                    replayed.graph, replayed.coloring, seed
                )
                assert (served.estimates.counts, served.estimates.hits) == (
                    ours.counts, ours.hits
                )
                replayed.close()
                self._assert_sources_current(urn)
                self._assert_loop(urn, seed)
            scraped = {
                line.split()[0]: float(line.split()[1])
                for line in service.metrics_text().splitlines()
                if line.startswith("motivo_segment_source_")
            }
        assert scraped["motivo_segment_source_patched_columns_total"] > 0
        # Each size decodes once after the first update, once after the
        # rebuild and once after the key change, never per update.
        assert 0 < scraped["motivo_segment_source_decodes_total"] <= (
            3 * self.K
        )


def _logged_update(directory: str, counter: MotivoCounter, batch) -> dict:
    """Update ``counter`` and append the batch's change rows to the
    artifact's edge log, as ``motivo-py update`` does before it folds."""
    changes = counter.update(batch)["changes"]
    return append_edge_log(
        directory, load_manifest(directory), changes, counter.graph
    )


class TestDeltaArtifacts:
    """The artifact edge log: appended batches, their replay on open,
    and compaction back into blobs."""

    def _graph(self):
        return erdos_renyi(30, 70, rng=4)

    def _saved(self, tmp_path):
        graph = self._graph()
        counter = MotivoCounter(graph, MotivoConfig(k=4, seed=13))
        counter.build()
        directory = str(tmp_path / "base")
        counter.save_artifact(directory)
        return graph, counter, directory

    def test_save_load_roundtrip(self, tmp_path):
        graph, counter, directory = self._saved(tmp_path)
        absent = next(
            (a, b) for a in range(30) for b in range(a + 1, 30)
            if not graph.has_edge(a, b)
        )
        present = next(iter(graph.edges()))
        manifest = _logged_update(
            directory, counter,
            [("+", *absent), ("-", *present), ("+", *present)],
        )
        assert manifest["log"] == {
            "rows": 1, "head_fingerprint": counter.graph.fingerprint(),
        }
        assert manifest["graph"]["fingerprint"] == graph.fingerprint()
        logged = np.fromfile(str(tmp_path / "base" / "edges.log"), "<i8")
        assert logged.tolist() == [1, *absent]
        reopened = open_table(directory, graph)
        assert reopened.graph.fingerprint() == counter.graph.fingerprint()
        assert _digest(reopened.table, 4) == _digest(counter.table, 4)
        counter.close()

    def test_tampered_blob_rejected(self, tmp_path):
        graph, counter, directory = self._saved(tmp_path)
        absent = next(
            (a, b) for a in range(30) for b in range(a + 1, 30)
            if not graph.has_edge(a, b)
        )
        _logged_update(directory, counter, [("+", *absent)])
        log = tmp_path / "base" / "edges.log"
        log.write_bytes(b"\x05" + log.read_bytes()[1:])  # op 1 -> 5
        with pytest.raises(ArtifactError):
            open_table(directory, graph)
        counter.close()

    def test_compaction_folds_delta_chain(self, tmp_path):
        graph, counter, directory = self._saved(tmp_path)
        rng = np.random.default_rng(77)
        _logged_update(
            directory, counter, _mixed_batch(rng, counter.graph, 3, 2)
        )
        manifest = _logged_update(
            directory, counter, _mixed_batch(rng, counter.graph, 2, 3)
        )
        artifact = compact_table(
            directory, manifest, counter.table, counter.coloring,
            counter.graph,
        )
        assert _digest(artifact.table, 4) == _digest(counter.table, 4)
        assert "log" not in artifact.manifest
        assert not (tmp_path / "base" / "edges.log").exists()
        lineage = artifact.manifest["lineage"]
        assert lineage["parent_fingerprint"] == graph.fingerprint()
        assert lineage["update_batches"] == 2

        source = artifact.manifest["graph"]["source"]
        final_graph = load_graph(source)
        assert final_graph.fingerprint() == counter.graph.fingerprint()
        reopened = open_table(directory, final_graph)
        assert _digest(reopened.table, 4) == _digest(counter.table, 4)
        counter.close()

    def test_compaction_rejects_out_of_order_chain(self, tmp_path):
        """Batches replay in log order: an edge inserted by one batch
        and deleted by the next must not come back when the two rows
        trade places."""
        graph, counter, directory = self._saved(tmp_path)
        absent = next(
            (a, b) for a in range(30) for b in range(a + 1, 30)
            if not graph.has_edge(a, b)
        )
        _logged_update(directory, counter, [("+", *absent)])
        _logged_update(directory, counter, [("-", *absent)])
        log = tmp_path / "base" / "edges.log"
        rows = np.fromfile(str(log), "<i8").reshape(-1, 3)
        rows[::-1].tofile(str(log))
        with pytest.raises(ArtifactError):
            open_table(directory, graph)
        counter.close()

    @pytest.mark.parametrize("build", [None, "x", [], 5])
    def test_compaction_rejects_non_object_build(self, tmp_path, build):
        graph = self._graph()
        coloring = ColoringScheme.uniform(30, 4, rng=5)
        base = str(tmp_path / "base")
        table = build_table(graph, coloring)
        save_table(base, table, coloring, graph)
        manifest = load_manifest(base)
        manifest["build"] = build
        with pytest.raises(ArtifactError):
            compact_table(base, manifest, table, coloring, graph)

    def test_update_lineage_recorded_in_saved_artifact(self, tmp_path):
        graph = self._graph()
        counter = MotivoCounter(graph, MotivoConfig(k=4, seed=13))
        counter.build()
        parent = graph.fingerprint()
        counter.update([("+", 0, 1)] if not graph.has_edge(0, 1)
                       else [("-", 0, 1)])
        counter.update([("+", 2, 5)] if not graph.has_edge(2, 5)
                       else [("-", 2, 5)])
        artifact = counter.save_artifact(str(tmp_path / "art"))
        lineage = artifact.manifest["lineage"]
        assert lineage["parent_fingerprint"] == parent
        assert lineage["update_batches"] == 2
        assert lineage["updates_applied"] == 2
        counter.close()


    def test_reopened_counter_continues_lineage(self, tmp_path):
        graph = self._graph()
        counter = MotivoCounter(graph, MotivoConfig(k=4, seed=13))
        counter.build()
        counter.update([("+", 0, 1)] if not graph.has_edge(0, 1)
                       else [("-", 0, 1)])
        counter.save_artifact(str(tmp_path / "art"))
        reopened = MotivoCounter.from_artifact(
            counter.graph, str(tmp_path / "art")
        )
        reopened.update([("+", 2, 5)] if not counter.graph.has_edge(2, 5)
                        else [("-", 2, 5)])
        lineage = reopened.save_artifact(
            str(tmp_path / "again")
        ).manifest["lineage"]
        assert lineage["parent_fingerprint"] == graph.fingerprint()
        assert lineage["update_batches"] == 2
        assert lineage["updates_applied"] == 2
        counter.close()
        reopened.close()


class TestServeUpdate:
    @pytest.fixture()
    def served(self, tmp_path):
        host = erdos_renyi(40, 100, rng=5)
        root = str(tmp_path / "cache")
        counter = MotivoCounter(
            host, MotivoConfig(k=4, seed=11, artifact_dir=root)
        )
        counter.build()
        counter.close()
        with SamplingService(root) as service:
            service.add_graph(host)
            yield host, service

    def test_service_update_rewrites_artifact(self, served):
        host, service = served
        before = service.count(samples=100, session="a", seed=3)
        absent = [
            (a, b) for a in range(10) for b in range(a + 1, 40)
            if not host.has_edge(a, b)
        ][:2]
        stats = service.update([["+", u, v] for u, v in absent])
        assert stats["updates_applied"] == 2
        assert stats["mode"] == "incremental"
        assert stats["fingerprint"] != host.fingerprint()
        after = service.count(samples=100, session="a", seed=3)
        assert after.estimates.counts  # served from the updated table
        assert before.key == after.key

    def test_lineage_and_stream_kept_across_updates(self, served):
        host, service = served
        key = service.cache.entries()[0].key
        directory = service.cache.path(key)
        built = load_manifest(directory)
        absent = [
            (a, b) for a in range(40) for b in range(a + 1, 40)
            if not host.has_edge(a, b)
        ][:3]
        for u, v in absent:
            assert service.update([["+", u, v]])["updates_applied"] == 1
        manifest = load_manifest(directory)
        lineage = manifest["lineage"]
        assert lineage["update_batches"] == 3
        assert lineage["updates_applied"] == 3
        assert lineage["parent_fingerprint"] == host.fingerprint()
        assert manifest["rng_state"] == built["rng_state"]
        assert manifest["build"] == built["build"]
        assert service.instrumentation.counters["serve_tables_opened"] == 1

    def test_http_update_endpoint(self, served):
        host, service = served
        absent = next(
            (a, b) for a in range(40) for b in range(a + 1, 40)
            if not host.has_edge(a, b)
        )
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            hostname, port = server.server_address[:2]
            url = f"http://{hostname}:{port}/update"

            def post(payload):
                request = urllib.request.Request(
                    url, data=json.dumps(payload).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request) as response:
                    return json.load(response)

            body = post({"updates": [["+", *absent], ["-", *absent]]})
            assert body["updates_applied"] == 0
            body = post({"updates": [["+", *absent]]})
            assert body["updates_applied"] == 1
            assert body["rows_touched"] > 0
            with pytest.raises(urllib.error.HTTPError) as info:
                post({"updates": "nope"})
            assert info.value.code == 400
        finally:
            server.shutdown()
            server.server_close()


    def test_second_writer_is_refused(self, served, tmp_path, capsys):
        """A ``motivo-py update`` between two served updates moves the
        artifact on disk: the service's next ``/update`` gets a typed
        400, and closing the service leaves the CLI's artifact as it
        is."""
        host, service = served
        directory = service.cache.path(service.cache.entries()[0].key)
        first, second, third = [
            (a, b) for a in range(40) for b in range(a + 1, 40)
            if not host.has_edge(a, b)
        ][:3]
        assert service.update([["+", *first]])["updates_applied"] == 1

        graph_path = str(tmp_path / "host.npz")
        save_binary(host, graph_path)
        updates_path = tmp_path / "cli.txt"
        updates_path.write_text(f"+ {second[0]} {second[1]}\n")
        assert cli_main([
            "update", directory, "--graph", graph_path,
            "--updates", str(updates_path),
        ]) == 0
        capsys.readouterr()
        compacted = load_manifest(directory)

        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            hostname, port = server.server_address[:2]
            request = urllib.request.Request(
                f"http://{hostname}:{port}/update",
                data=json.dumps({"updates": [["+", *third]]}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request)
            assert info.value.code == 400
            assert "moved on disk" in json.load(info.value)["error"]
        finally:
            server.shutdown()
            server.server_close()

        service.close()
        manifest = load_manifest(directory)
        assert manifest == compacted
        assert manifest["lineage"]["update_batches"] == 2
        head, _ = host.apply_updates([("+", *first), ("+", *second)])
        assert manifest["graph"]["fingerprint"] == head.fingerprint()
        source = manifest["graph"]["source"]
        reopened = open_table(directory, load_graph(source))
        assert reopened.graph.fingerprint() == head.fingerprint()


class TestCLIUpdate:
    def test_one_resolve_per_update(self, tmp_path, monkeypatch, capsys):
        """``motivo-py update`` resolves its batch once and logs the
        rows the facade hands back: the effective changes only."""
        graph = erdos_renyi(25, 60, rng=9)
        graph_path = tmp_path / "graph.txt"
        graph_path.write_text(
            "".join(f"{u} {v}\n" for u, v in graph.edges())
        )
        artifact = tmp_path / "artifact"
        assert cli_main([
            "build", str(graph_path), "--k", "3", "--seed", "5",
            "-o", str(artifact),
        ]) == 0
        absent = next(
            (a, b) for a in range(25) for b in range(a + 1, 25)
            if not graph.has_edge(a, b)
        )
        present = next(iter(graph.edges()))
        batch = [("+", *absent), ("-", *present), ("+", *present)]
        updates_path = tmp_path / "updates.txt"
        updates_path.write_text(
            "".join(f"{op} {u} {v}\n" for op, u, v in batch)
        )
        added, removed, _ = graph.resolve_updates(batch)
        expected = change_rows(added, removed, graph.num_vertices)
        resolves = []
        logged = []
        resolve = Graph.resolve_updates
        append = artifacts_module.append_edge_log

        def counting(self, updates):
            resolves.append(1)
            return resolve(self, updates)

        def appending(directory, *args, **kwargs):
            manifest = append(directory, *args, **kwargs)
            with open(f"{directory}/edges.log", "rb") as log:
                logged.append(log.read())
            return manifest

        monkeypatch.setattr(Graph, "resolve_updates", counting)
        monkeypatch.setattr(artifacts_module, "append_edge_log", appending)
        capsys.readouterr()
        assert cli_main([
            "update", str(artifact), "--updates", str(updates_path),
        ]) == 0
        assert len(resolves) == 1
        assert logged == [expected.astype("<i8").tobytes()]
        reopened = open_table(str(artifact), graph.apply_updates(batch)[0])
        assert _digest(reopened.table, 3) == _digest(
            build_table(reopened.graph, reopened.coloring), 3
        )

    def test_update_command_applies_and_is_idempotent(
        self, tmp_path, capsys
    ):
        graph = erdos_renyi(25, 60, rng=9)
        graph_path = tmp_path / "graph.txt"
        graph_path.write_text(
            "".join(f"{u} {v}\n" for u, v in graph.edges())
        )
        artifact = tmp_path / "artifact"
        assert cli_main([
            "build", str(graph_path), "--k", "3", "--seed", "5",
            "-o", str(artifact),
        ]) == 0
        capsys.readouterr()

        absent = next(
            (a, b) for a in range(25) for b in range(a + 1, 25)
            if not graph.has_edge(a, b)
        )
        present = next(iter(graph.edges()))
        updates_path = tmp_path / "updates.txt"
        updates_path.write_text(
            "# churn\n"
            f"+ {absent[0]} {absent[1]}\n"
            f"- {present[0]} {present[1]}\n"
        )
        assert cli_main([
            "update", str(artifact), "--updates", str(updates_path),
        ]) == 0
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert stats["updates_applied"] == 2
        assert stats["mode"] == "incremental"

        # The manifest now records the updated graph; replaying the
        # same file is a pure no-op (insert present, delete absent).
        assert cli_main([
            "update", str(artifact), "--updates", str(updates_path),
        ]) == 0
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert stats["updates_applied"] == 0

        manifest = load_manifest(str(artifact))
        new_graph, _ = graph.apply_updates(
            [("+", *absent), ("-", *present)]
        )
        assert manifest["graph"]["fingerprint"] == new_graph.fingerprint()

    def test_lineage_kept_across_update_commands(self, tmp_path, capsys):
        graph = erdos_renyi(25, 60, rng=9)
        graph_path = tmp_path / "graph.txt"
        graph_path.write_text(
            "".join(f"{u} {v}\n" for u, v in graph.edges())
        )
        artifact = tmp_path / "artifact"
        assert cli_main([
            "build", str(graph_path), "--k", "3", "--seed", "5",
            "-o", str(artifact),
        ]) == 0
        built = load_manifest(str(artifact))
        absent = [
            (a, b) for a in range(25) for b in range(a + 1, 25)
            if not graph.has_edge(a, b)
        ][:3]
        for index, (u, v) in enumerate(absent):
            updates_path = tmp_path / f"updates{index}.txt"
            updates_path.write_text(f"+ {u} {v}\n")
            assert cli_main([
                "update", str(artifact), "--updates", str(updates_path),
            ]) == 0
        capsys.readouterr()
        manifest = load_manifest(str(artifact))
        lineage = manifest["lineage"]
        assert lineage["update_batches"] == 3
        assert lineage["updates_applied"] == 3
        assert lineage["parent_fingerprint"] == graph.fingerprint()
        assert manifest["rng_state"] == built["rng_state"]
        assert manifest["build"] == built["build"]


class TestOneUpdateStep:
    """``MotivoCounter.update``, ``SamplingService.update`` and
    ``motivo-py update`` advance a table through one update step.

    One batch sequence from one artifact — toggles, a batch sent to the
    rebuild, a batch that empties the urn and one that revives it —
    goes through all three, dense and succinct.  After every batch the
    three tables equal each other and ``build_table``'s byte for byte,
    the naive and AGS estimates under one seed are equal, and so are
    the update stats.
    """

    K = 4
    SAMPLES = 300
    BUDGET = 200
    COVER = 20
    STATS = (
        "mode", "updates_applied", "edges_added", "edges_removed",
        "rows_touched", "touched_vertices", "delta_entries",
        "delta_rebuilds",
    )

    def _batches(self, host: Graph, colors: np.ndarray) -> list:
        first, second = [
            (a, b) for a in range(host.num_vertices)
            for b in range(a + 1, host.num_vertices)
            if not host.has_edge(a, b) and colors[a] != colors[b]
        ][:2]
        # Cutting the graph down to a matching leaves no connected
        # k-subgraph: the urn empties, and restoring the cut revives it.
        matched: set = set()
        cut = []
        for u, v in host.apply_updates([("+", *second)])[0].edges():
            if u in matched or v in matched:
                cut.append((u, v))
            else:
                matched.update((u, v))
        return [
            [("+", *first)],
            [("-", *first), ("+", *second)],
            [("-", u, v) for u, v in cut],
            [("+", u, v) for u, v in cut],
            [("-", *second)],
        ]

    def _facade(self, counter: MotivoCounter, seed: int) -> tuple:
        if counter.urn is None:
            return (
                GraphletEstimates.empty(self.K, self.SAMPLES, "naive"),
                GraphletEstimates.empty(self.K, self.BUDGET, "ags"),
            )
        batch_size = counter.config.batch_size
        naive = naive_estimate(
            counter.urn, counter.classifier, self.SAMPLES, ensure_rng(seed),
            batch_size=batch_size,
        )
        ags = ags_estimate(
            counter.urn, counter.classifier, self.BUDGET,
            cover_threshold=self.COVER, rng=ensure_rng(seed),
            batch_size=batch_size,
        ).estimates
        return naive, ags

    def _cli(self, directory, tmp_path, seed: int) -> tuple:
        found = []
        for flags in ([], ["--ags", "--cover-threshold", str(self.COVER)]):
            output = tmp_path / "cli-estimates.json"
            samples = self.BUDGET if flags else self.SAMPLES
            assert cli_main([
                "sample", str(directory), "--samples", str(samples),
                "--seed", str(seed), "--output", str(output), *flags,
            ]) == 0
            found.append(GraphletEstimates.from_json(output.read_text()))
        return tuple(found)

    @staticmethod
    def _same(*estimates) -> None:
        first = estimates[0]
        for other in estimates[1:]:
            assert (other.counts, other.hits, other.empty_urn) == (
                first.counts, first.hits, first.empty_urn
            )

    @pytest.mark.parametrize("layout", ["dense", "succinct"])
    def test_three_surfaces_one_successor(
        self, layout, tmp_path, capsys, monkeypatch
    ):
        host = erdos_renyi(40, 90, rng=5)
        root = str(tmp_path / "cache")
        built = MotivoCounter(host, MotivoConfig(
            k=self.K, seed=11, artifact_dir=root,
            artifact_codec=layout, table_layout=layout,
        ))
        built.build()
        built.close()
        key = ArtifactCache(root).entries()[0].key
        cli_dir = tmp_path / "cli"
        shutil.copytree(ArtifactCache(root).path(key), cli_dir)
        host_path = str(tmp_path / "host.npz")
        save_binary(host, host_path)
        counter = MotivoCounter.from_artifact(
            host, ArtifactCache(root).path(key)
        )
        coloring = counter.coloring
        with SamplingService(root) as service:
            service.add_graph(host)
            batches = self._batches(host, np.asarray(coloring.colors))
            for step, batch in enumerate(batches):
                updates_path = tmp_path / f"updates{step}.txt"
                updates_path.write_text(
                    "".join(f"{op} {u} {v}\n" for op, u, v in batch)
                )
                with monkeypatch.context() as patch:
                    if step == 1:  # any delta outgrows the guard
                        patch.setattr(incremental, "_MIN_VOLUME", 0)
                        patch.setattr(incremental, "_REBUILD_RATIO", 1 << 40)
                    facade = counter.update(batch)
                    served = service.update(batch)
                    capsys.readouterr()
                    assert cli_main([
                        "update", str(cli_dir),
                        "--updates", str(updates_path),
                        *(["--graph", host_path] if step == 0 else []),
                    ]) == 0
                logged = json.loads(
                    capsys.readouterr().out.strip().splitlines()[-1]
                )
                assert facade["updates_applied"] == len(batch)
                assert facade["delta_rebuilds"] == (step == 1)
                for stats in (served, logged):
                    assert {name: stats[name] for name in self.STATS} == {
                        name: facade[name] for name in self.STATS
                    }, step

                graph = counter.graph
                assert counter.empty_urn == (step == 2)
                handle = service.open(key)
                assert (handle.urn is None) == (step == 2)
                reference = build_table(graph, coloring, layout=layout)
                for table in (
                    counter.table,
                    handle.table,
                    open_table(str(cli_dir), graph).table,
                ):
                    _assert_tables_equal(reference, table, self.K)

                seed = 700 + step
                naive = service.count(
                    samples=self.SAMPLES, session=f"n{step}", seed=seed
                ).estimates
                ags = service.count(
                    estimator="ags", samples=self.BUDGET,
                    session=f"a{step}", seed=seed,
                    cover_threshold=self.COVER,
                ).estimates
                cli_naive, cli_ags = self._cli(cli_dir, tmp_path, seed)
                facade_naive, facade_ags = self._facade(counter, seed)
                self._same(facade_naive, naive, cli_naive)
                self._same(facade_ags, ags, cli_ags)
        counter.close()
