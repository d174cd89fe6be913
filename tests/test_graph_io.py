"""Tests for graph loading/saving (text and binary formats)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from repro.errors import GraphFormatError
from repro.graph import io as graph_io
from repro.graph import stream as graph_stream
from repro.graph.generators import barabasi_albert, cycle_graph, erdos_renyi
from repro.graph.graph import Graph
from repro.graph.io import (
    MAX_VERTICES,
    EdgeLines,
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

    def test_huge_declared_vertex_count(self, loader, tmp_path):
        # Used to allocate a 728 TiB CSR and die with a raw MemoryError.
        with pytest.raises(
            GraphFormatError, match=r"bad\.txt: declares n=100000000000000,"
        ):
            self._load(
                loader, tmp_path, b"# repro graph n=100000000000000 m=1\n0 1\n"
            )

    def test_header_only_file_keeps_declared_vertices(self, loader, tmp_path):
        graph = self._load(loader, tmp_path, b"# repro graph n=4 m=0\n")
        assert graph.num_vertices == 4 and graph.num_edges == 0


def test_external_loader_refuses_a_huge_raw_id(tmp_path):
    # The external loader takes ids as they are: 9e14 would be its
    # vertex count.  The in-memory loader compacts the same file.
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 1\n1 900000000000000\n")
    with pytest.raises(
        GraphFormatError, match=r"bad\.txt: vertex id 900000000000000 "
    ):
        _load_external(path, tmp_path / "csr")
    assert load_edge_list(path).num_vertices == 3


def test_external_loader_names_the_duplicate_neighbor(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_bytes(b"0 1\n2 3\n1 4\n3 2\n")
    with pytest.raises(GraphFormatError) as info:
        _load_external(path, tmp_path / "csr")
    assert str(info.value) == (
        f"{path}: vertex 2 has a duplicate neighbor — the external loader "
        "requires each undirected edge to appear exactly once"
    )


#: Line material for the fuzzed files: small ids, valid ids past the
#: vertex cap, ids past int64, negative ids, junk tokens, invalid UTF-8,
#: and headers declaring small or huge vertex counts.  Valid ids and
#: counts between the small and the huge ranges are left out: a loader
#: would really allocate them.
_TOKENS = st.one_of(
    st.integers(0, 30).map(str),
    st.integers(MAX_VERTICES, 2**63 - 1).map(str),
    st.integers(2**63, 2**70).map(str),
    st.integers(-(2**70), -1).map(str),
    st.sampled_from(["a", "1.5", "0x3", "", "٣", "1_0", "nan", "+1"]),
).map(lambda token: token.encode("utf-8"))
_LINES = st.one_of(
    st.lists(_TOKENS, min_size=0, max_size=4).map(b" ".join),
    st.integers(0, 40).map(lambda n: b"# repro graph n=%d m=1" % n),
    st.integers(MAX_VERTICES + 1, 10**30).map(
        lambda n: b"# repro graph n=%d m=1" % n
    ),
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
    outcomes = []
    # Chunk boundaries anywhere in the file never decide whether it
    # loads, nor what it loads as.
    for chunk_bytes in (graph_io._CHUNK_BYTES, 5):
        with mock.patch.object(graph_io, "_CHUNK_BYTES", chunk_bytes):
            try:
                graph = LOADERS[loader](path, directory / "csr")
            except GraphFormatError:
                outcomes.append(None)
                continue
        assert isinstance(graph, Graph)
        outcomes.append(graph.fingerprint())
    assert outcomes[0] == outcomes[1]


def _plain_line(pair, sep, end, lead, extra):
    return b"%s%d%s%d%s%s" % (lead, pair[0], sep, pair[1], extra, end)


#: Plain-digit files the fast path must accept: separators, CRLF,
#: leading and trailing blanks, extra digit columns, comments, blanks.
_PLAIN_LINES = st.one_of(
    st.builds(
        _plain_line,
        st.tuples(st.integers(0, 10**18 - 1), st.integers(0, 10**18 - 1)),
        st.sampled_from([b" ", b"\t", b"  ", b" \t "]),
        st.sampled_from([b"\n", b"\r\n", b" \n", b"\t\r\n"]),
        st.sampled_from([b"", b" ", b"\t"]),
        st.sampled_from([b"", b" 7", b"\t0012"]),
    ),
    st.sampled_from([b"\n", b"  \n", b"\r\n", b"# comment 1 2\n", b" #x\n"]),
    st.integers(0, 10**20).map(lambda n: b"# repro graph n=%d m=3\n" % n),
)


@settings(max_examples=200, deadline=None)
@given(
    content=st.one_of(
        st.lists(_LINES, max_size=8).map(b"\n".join),
        st.lists(_PLAIN_LINES, max_size=12).map(b"".join),
    ),
)
def test_fast_path_declines_or_matches_the_line_loop(
    tmp_path_factory, content
):
    path = tmp_path_factory.mktemp("fast") / "g.txt"
    path.write_bytes(content)
    fast = graph_io._parse_fast(content, "#", True)
    lines = EdgeLines(path)
    try:
        reference = lines._parse_lines(content, 0, 0)
    except GraphFormatError:
        assert fast is None
        return
    if fast is None:
        return
    pairs, header_n = fast
    assert pairs.dtype == np.int64 and np.array_equal(pairs, reference)
    assert header_n == lines.header_n


@settings(max_examples=100, deadline=None)
@given(content=st.lists(_PLAIN_LINES, max_size=12).map(b"".join))
def test_fast_path_accepts_plain_digit_files(content):
    assert graph_io._parse_fast(content, "#", True) is not None


def test_fast_path_declines_what_it_cannot_judge():
    for chunk in (
        b"0 1\n-1 2\n", b"0 +1\n", b"1_0 2\n", b"0 1\r2 3\n", b"0\n",
        b"0 %d\n" % 10**18, b"0 1\n\xc3\xa9 2\n", b"0 1\x0b\n",
    ):
        assert graph_io._parse_fast(chunk, "#", True) is None, chunk
    assert graph_io._parse_fast(b"0 1\n", "//", True) is None


#: Malformed files and the message both loaders must raise, word for
#: word, wherever the chunk boundaries fall.
_MALFORMED = {
    "past-int64": b"0 1\n0 %d\n" % 2**63,
    "non-utf8": b"0 1\n1 2\n2 \xff3\n",
    "non-utf8-after-lone-cr": b"0 1\r1 2\n2 3\n\xff\n",
    "negative": b"3 4\n-1 2\n",
    "one-column": b"0 1\r\n1 2\r\n0\r\n",
    "non-integer": b"# c\n0 1\na b\n",
    "lone-cr-split": b"0 1\n1 2\r5\n",
    "declared-too-small": b"# repro graph n=2 m=1\n0 5\n",
    "declared-huge": b"# repro graph n=%d m=1\n0 1\n" % 10**14,
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_both_loaders_raise_the_same_message(tmp_path, case):
    path = tmp_path / "bad.txt"
    path.write_bytes(_MALFORMED[case])
    messages = set()
    for loader in sorted(LOADERS):
        for chunk_bytes in (graph_io._CHUNK_BYTES, 1, 6):
            with mock.patch.object(graph_io, "_CHUNK_BYTES", chunk_bytes):
                with pytest.raises(GraphFormatError) as info:
                    LOADERS[loader](path, tmp_path / "csr")
            messages.add(str(info.value))
    assert len(messages) == 1, messages


@pytest.mark.parametrize("seed", range(8))
def test_external_csr_matches_in_memory_across_chunk_boundaries(
    tmp_path, monkeypatch, seed
):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    graph = erdos_renyi(n, int(rng.integers(0, 3 * n)), rng=seed)
    # Each edge once, in random order and orientation, with a header
    # that keeps trailing isolated vertices.
    edges = graph.edge_array()[rng.permutation(graph.num_edges)]
    flip = rng.random(edges.shape[0]) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    lines = [b"# repro graph n=%d m=%d" % (n + 2, edges.shape[0])]
    lines += [b"%d %d" % (u, v) for u, v in edges.tolist()]
    path = tmp_path / "g.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    in_memory = load_edge_list(path)
    monkeypatch.setattr(graph_io, "_CHUNK_BYTES", int(rng.integers(1, 40)))
    monkeypatch.setattr(graph_stream, "_SORT_BLOCK", int(rng.integers(1, 9)))
    build_csr_external(
        path, tmp_path / "csr", chunk_edges=int(rng.integers(1, 6))
    )
    external = open_external(tmp_path / "csr")
    assert external.num_vertices == n + 2
    assert external.fingerprint() == in_memory.fingerprint()


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
