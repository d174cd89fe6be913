"""Tests for graph loading/saving (text and binary formats)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph.generators import barabasi_albert, cycle_graph, erdos_renyi
from repro.graph.graph import Graph
from repro.graph.io import (
    load_binary,
    load_edge_list,
    load_edge_list_mapped,
    save_binary,
    save_edge_list,
)
from repro.graph.stream import build_csr_external, open_external


def _load_external(path, directory):
    build_csr_external(path, directory)
    return open_external(directory)


#: Both text loaders; each must load a file or raise GraphFormatError.
LOADERS = {
    "in-memory": lambda path, directory: load_edge_list(path),
    "external": _load_external,
}


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        g = barabasi_albert(40, 3, rng=1)
        path = tmp_path / "graph.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded == g

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# header\n\n0 1\n1 2\n# trailing\n")
        g = load_edge_list(path)
        assert g.num_edges == 2

    def test_extra_columns_tolerated(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1 weight=3\n")
        assert load_edge_list(path).num_edges == 1

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError, match="expected"):
            load_edge_list(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            load_edge_list(path)

    def test_duplicate_edges_merged(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 1\n1 0\n0 1\n")
        assert load_edge_list(path).num_edges == 1

    def test_round_trip_preserves_isolated_vertices(self, tmp_path):
        # The header bug: a 6-vertex graph with trailing isolated
        # vertices used to come back with 2 vertices.
        g = Graph.from_edges([(0, 1), (1, 2)], n=6)
        path = tmp_path / "isolated.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.num_vertices == 6
        assert loaded == g

    def test_explicit_n_overrides_header(self, tmp_path):
        g = Graph.from_edges([(0, 1)], n=3)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        assert load_edge_list(path, n=9).num_vertices == 9

    def test_declared_n_must_cover_ids(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# repro graph n=2 m=1\n0 5\n")
        with pytest.raises(GraphFormatError, match="mentions vertex"):
            load_edge_list(path)

    def test_self_loops_in_input_dropped(self, tmp_path):
        path = tmp_path / "loops.txt"
        path.write_text("# repro graph n=3 m=2\n0 0\n0 1\n1 2\n2 2\n")
        g = load_edge_list(path)
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_negative_ids_rejected(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("-1 2\n")
        with pytest.raises(GraphFormatError, match="non-negative"):
            load_edge_list(path)


@pytest.mark.parametrize("loader", sorted(LOADERS))
class TestMalformedFilesAreTyped:
    """Every bad line names the file and the line, in both loaders."""

    def _load(self, loader, tmp_path, content: bytes):
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        return LOADERS[loader](path, tmp_path / "csr")

    def test_vertex_id_past_int64(self, loader, tmp_path):
        with pytest.raises(GraphFormatError, match=r"bad\.txt:2: .*int64"):
            self._load(loader, tmp_path, b"0 1\n0 %d\n" % 2**63)

    def test_non_utf8_byte(self, loader, tmp_path):
        with pytest.raises(GraphFormatError, match=r"bad\.txt:3: not UTF-8"):
            self._load(loader, tmp_path, b"0 1\n1 2\n2 \xff3\n")

    def test_negative_id(self, loader, tmp_path):
        with pytest.raises(
            GraphFormatError, match=r"bad\.txt:1: .*non-negative"
        ):
            self._load(loader, tmp_path, b"-1 2\n")


#: Line material for the fuzzed files: small ids, ids past int64,
#: negative ids, junk tokens and invalid UTF-8.  A *valid* id ``v``
#: makes the external loader allocate a ``v + 1``-vertex CSR (it never
#: compacts ids), and a header's ``n`` does the same for both loaders,
#: so valid ids and declared counts stay small here.
_TOKENS = st.one_of(
    st.integers(0, 30).map(str),
    st.integers(2**63, 2**70).map(str),
    st.integers(-(2**70), -1).map(str),
    st.sampled_from(["a", "1.5", "0x3", "", "٣", "1_0", "nan"]),
).map(lambda token: token.encode("utf-8"))
_LINES = st.one_of(
    st.lists(_TOKENS, min_size=0, max_size=4).map(b" ".join),
    st.integers(0, 40).map(lambda n: b"# repro graph n=%d m=1" % n),
    st.binary(max_size=6).map(lambda raw: b"# " + raw),
    st.binary(min_size=1, max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(_LINES, max_size=8),
    loader=st.sampled_from(sorted(LOADERS)),
)
def test_any_file_loads_or_raises_graph_format_error(
    tmp_path_factory, lines, loader
):
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "g.txt"
    path.write_bytes(b"\n".join(lines))
    try:
        graph = LOADERS[loader](path, directory / "csr")
    except GraphFormatError:
        return
    assert isinstance(graph, Graph)


class TestSparseIdCompaction:
    def test_snap_style_ids_compacted(self, tmp_path):
        # The allocation bug: ids like 10**6 used to allocate a
        # million-vertex CSR for a 3-vertex graph.
        path = tmp_path / "snap.txt"
        path.write_text("1000000 5\n5 42\n")
        g, original = load_edge_list_mapped(path)
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert original.tolist() == [5, 42, 1000000]
        # Remap is rank-order: edge (5, 42) became (0, 1), etc.
        assert sorted(g.neighbors(0).tolist()) == [1, 2]

    def test_compact_false_keeps_raw_ids(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("1000000 5\n")
        g, original = load_edge_list_mapped(path, compact=False)
        assert g.num_vertices == 1000001
        assert original is None

    def test_contiguous_ids_left_alone_by_auto(self, tmp_path):
        path = tmp_path / "dense.txt"
        path.write_text("0 1\n1 2\n")
        g, original = load_edge_list_mapped(path)
        assert g.num_vertices == 3
        assert original is None

    def test_one_indexed_files_left_alone_by_auto(self, tmp_path):
        # Mildly gappy headerless inputs (the common 1-indexed list)
        # keep their ids — auto-compaction needs substantial sparsity.
        path = tmp_path / "oneidx.txt"
        path.write_text("1 2\n2 3\n")
        g, original = load_edge_list_mapped(path)
        assert g.num_vertices == 4
        assert original is None

    def test_header_disables_auto_compaction(self, tmp_path):
        # A declared n fixes the id space: gaps are isolated vertices.
        g = Graph.from_edges([(0, 3)], n=5)
        path = tmp_path / "gap.txt"
        save_edge_list(g, path)
        loaded, original = load_edge_list_mapped(path)
        assert original is None
        assert loaded == g

    def test_forced_compact_conflicts_with_declared_n(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# repro graph n=4 m=1\n0 3\n")
        with pytest.raises(GraphFormatError, match="compact"):
            load_edge_list(path, compact=True)

    def test_forced_compact_on_headerless_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("7 9\n")
        g, original = load_edge_list_mapped(path, compact=True)
        assert g.num_vertices == 2
        assert original.tolist() == [7, 9]


class TestRoundTripProperties:
    """load ∘ save = id over randomized graphs, both formats."""

    @pytest.mark.parametrize("seed", range(6))
    def test_text_round_trip_random_graphs(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 3 * n))
        edges = [
            (int(rng.integers(n)), int(rng.integers(n))) for _ in range(m)
        ]
        # Random extra head-room: trailing isolated vertices must survive.
        g = Graph.from_edges(edges, n=n + int(rng.integers(0, 5)))
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        assert load_edge_list(path) == g

    @pytest.mark.parametrize("seed", range(6))
    def test_text_binary_parity(self, tmp_path, seed):
        g = erdos_renyi(30, 45, rng=seed)
        text, binary = tmp_path / "g.txt", tmp_path / "g.npz"
        save_edge_list(g, text)
        save_binary(g, binary)
        from_text = load_edge_list(text)
        from_binary = load_binary(binary)
        assert from_text == from_binary == g
        assert np.array_equal(from_text.indptr, from_binary.indptr)
        assert np.array_equal(from_text.indices, from_binary.indices)

    def test_empty_graph_round_trips_in_text(self, tmp_path):
        g = Graph.empty(4)
        path = tmp_path / "empty.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.num_vertices == 4
        assert loaded.num_edges == 0


class TestBinary:
    def test_round_trip(self, tmp_path):
        g = barabasi_albert(60, 4, rng=2)
        path = tmp_path / "graph.npz"
        save_binary(g, path)
        assert load_binary(path) == g

    def test_written_uncompressed(self, tmp_path):
        import zipfile

        path = tmp_path / "graph.npz"
        save_binary(barabasi_albert(60, 4, rng=2), path)
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_STORED
            }

    def test_compressed_blob_still_loads(self, tmp_path):
        # The format earlier versions wrote (and artifacts may still
        # carry beside their blobs): the same arrays, deflated.
        g = barabasi_albert(60, 4, rng=2)
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path,
            magic=np.array("repro-graph-v1"),
            indptr=g.indptr,
            indices=g.indices,
        )
        assert load_binary(path).fingerprint() == g.fingerprint()

    def test_bad_payload(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(GraphFormatError, match="not a repro binary"):
            load_binary(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "magic.npz"
        g = cycle_graph(4)
        np.savez(
            path,
            magic=np.array("other-format"),
            indptr=g.indptr,
            indices=g.indices,
        )
        with pytest.raises(GraphFormatError, match="bad magic"):
            load_binary(path)

    def test_inconsistent_csr(self, tmp_path):
        path = tmp_path / "broken.npz"
        g = cycle_graph(4)
        np.savez(
            path,
            magic=np.array("repro-graph-v1"),
            indptr=g.indptr,
            indices=g.indices[:-1],
        )
        with pytest.raises(GraphFormatError, match="inconsistent"):
            load_binary(path)

    def test_empty_graph(self, tmp_path):
        from repro.graph.graph import Graph

        path = tmp_path / "empty.npz"
        save_binary(Graph.empty(7), path)
        loaded = load_binary(path)
        assert loaded.num_vertices == 7
        assert loaded.num_edges == 0
