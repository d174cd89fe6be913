"""Graph loading and saving.

Two formats are supported:

* **Text edge lists** — one ``u v`` pair per line, ``#`` comments, the
  format of the SNAP datasets the paper downloads.  Files written by
  :func:`save_edge_list` carry a ``# repro graph n=... m=...`` header so
  trailing isolated vertices survive the round trip; SNAP-style files
  with sparse non-contiguous ids are compacted to ``0..n-1`` (the
  original ids stay available via :func:`load_edge_list_mapped`).
* **Binary** — an ``.npz`` file holding the CSR arrays directly.  This
  stands in for the "motivo binary format" the paper converts its inputs
  to: loading is a pair of array reads with no parsing.

Round-trip contract: ``load_edge_list(save_edge_list(g)) == g`` for
every graph, isolated vertices and all — the header declares ``n``, so
vertices no edge mentions are not silently dropped.
"""

from __future__ import annotations

import io
import itertools
import os
import re
from typing import Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphError, GraphFormatError
from repro.graph.graph import Graph, sorted_unique

__all__ = [
    "EdgeLines",
    "load_edge_list",
    "load_edge_list_mapped",
    "save_edge_list",
    "load_binary",
    "save_binary",
    "load_graph",
    "load_updates",
]

PathLike = Union[str, "os.PathLike[str]"]

_BINARY_MAGIC = "repro-graph-v1"

#: Header line written by :func:`save_edge_list` and honoured by the
#: loaders.  Only ``n`` matters for reconstruction (``m`` is derivable
#: from the edges and duplicate lines make a strict check ambiguous).
_HEADER_RE = re.compile(r"repro graph n=(\d+) m=(\d+)")
_HEADER_BYTES_RE = re.compile(_HEADER_RE.pattern.encode("ascii"))


#: Vertex ids must fit the int64 arrays the loaders build.
_MAX_VERTEX_ID = np.iinfo(np.int64).max

#: The most vertices a loaded graph may have: a declared ``n``, or the
#: ``max id + 1`` of ids taken as they are, past this raises
#: :class:`~repro.errors.GraphFormatError` before anything is allocated.
#: 2^32 is the 32-bit vertex-id space of motivo's own format.
MAX_VERTICES = 2**32

#: Bytes of text parsed at a time.  The fast path's transient arrays
#: hold a few entries per byte or token of one chunk, so this bounds the
#: parser's memory whatever the file size.
_CHUNK_BYTES = 1 << 20

_NO_PAIRS = np.empty((0, 2), dtype=np.int64)


class EdgeLines:
    """The edge-list parser both loaders share.

    Iterating yields the ``(u, v)`` endpoints of the data lines as
    ``(c, 2)`` int64 arrays, one per chunk of the file, in file order
    (extra columns ignored); blank lines and lines starting with
    ``comment`` are skipped, and the first ``# repro graph n=... m=...``
    header seen so far is in :attr:`header_n`.  Every malformed line —
    too few columns, non-integer or negative endpoints, ids past int64,
    bytes that are not UTF-8 — raises
    :class:`~repro.errors.GraphFormatError` naming the file and line.

    The file is read in chunks of about ``_CHUNK_BYTES``, each cut just
    after a newline.  A chunk first goes to an array-at-a-time fast
    path, which tokenizes the whole chunk with NumPy and converts the
    first two tokens of every data line digit column by digit column.
    It *declines* any chunk it cannot judge: a byte that is neither
    printable ASCII nor tab, LF or CR, a CR not followed by LF, a data
    line with fewer than two tokens, an endpoint that is not all digits
    (a sign, an underscore, a letter, a dot), an endpoint of 19 or more
    digits, or a comment prefix that is not one printable character.
    A declined chunk goes through the line loop (:meth:`_parse_lines`),
    with line numbers offset to the chunk's position.  The loop is the
    reference: the fast path returns exactly its pairs and header on
    every chunk it accepts, and every error message comes from the
    loop.
    """

    def __init__(self, path: PathLike, comment: str = "#"):
        self.path = path
        self.comment = comment
        self.header_n: Optional[int] = None

    def __iter__(self) -> Iterator[np.ndarray]:
        # The loop numbers lines by universal newlines; its "not UTF-8"
        # message counts b"\n"-terminated lines instead.
        lines_before = 0
        newlines_before = 0
        for chunk in _text_chunks(self.path, _CHUNK_BYTES):
            parsed = _parse_fast(chunk, self.comment, self.header_n is None)
            if parsed is None:
                pairs = self._parse_lines(chunk, lines_before, newlines_before)
            else:
                pairs, header_n = parsed
                if self.header_n is None:
                    self.header_n = header_n
            yield pairs
            newlines = chunk.count(b"\n")
            lines_before += newlines
            if b"\r" in chunk:
                # Universal newlines: a CR not followed by LF ends a line.
                lines_before += chunk.count(b"\r") - chunk.count(b"\r\n")
            newlines_before += newlines

    def _parse_lines(
        self, chunk: bytes, lines_before: int, newlines_before: int
    ) -> np.ndarray:
        """The line loop over one chunk whose first line is line
        ``lines_before + 1`` of the file."""
        return np.fromiter(
            itertools.chain.from_iterable(
                self._line_loop(chunk, lines_before, newlines_before)
            ),
            dtype=np.int64,
        ).reshape(-1, 2)

    def _line_loop(
        self, chunk: bytes, lines_before: int, newlines_before: int
    ) -> Iterator[Tuple[int, int]]:
        path, comment, limit = self.path, self.comment, _MAX_VERTEX_ID
        text = io.TextIOWrapper(io.BytesIO(chunk), encoding="utf-8")
        try:
            with text as handle:
                for line_number, line in enumerate(
                    handle, start=lines_before + 1
                ):
                    stripped = line.strip()
                    if not stripped:
                        continue
                    if stripped.startswith(comment):
                        if self.header_n is None:
                            match = _HEADER_RE.search(stripped)
                            if match:
                                self.header_n = int(match.group(1))
                        continue
                    parts = stripped.split()
                    if len(parts) < 2:
                        raise GraphFormatError(
                            f"{path}:{line_number}: expected 'u v', got "
                            f"{stripped!r}"
                        )
                    try:
                        u, v = int(parts[0]), int(parts[1])
                    except ValueError as exc:
                        raise GraphFormatError(
                            f"{path}:{line_number}: non-integer endpoints "
                            f"{stripped!r}"
                        ) from exc
                    if not (0 <= u <= limit and 0 <= v <= limit):
                        raise GraphFormatError(
                            f"{path}:{line_number}: vertex ids must be "
                            f"non-negative int64 values, got {stripped!r}"
                        )
                    yield u, v
        except UnicodeDecodeError:
            line_number = newlines_before + _first_undecodable_line(
                io.BytesIO(chunk)
            )
            raise GraphFormatError(
                f"{path}:{line_number}: not UTF-8 text"
            ) from None


def check_vertex_count(
    path: PathLike, n: int, vertex: Optional[int] = None
) -> None:
    """Refuse a vertex count past :data:`MAX_VERTICES` before it is
    allocated: a declared ``n``, or ``vertex + 1`` for an id taken as it
    is."""
    if n <= MAX_VERTICES:
        return
    if vertex is None:
        raise GraphFormatError(
            f"{path}: declares n={n}, more than the {MAX_VERTICES} "
            "vertices a graph may have"
        )
    raise GraphFormatError(
        f"{path}: vertex id {int(vertex)} is past the {MAX_VERTICES} "
        "vertices a graph may have, and ids are taken as they are"
    )


def _text_chunks(path: PathLike, chunk_bytes: int) -> Iterator[bytes]:
    """The file in pieces of about ``chunk_bytes``, each cut just after
    a newline (a line longer than that is one piece of its own)."""
    with open(path, "rb") as handle:
        rest = b""
        while True:
            block = handle.read(chunk_bytes)
            if not block:
                if rest:
                    yield rest
                return
            block = rest + block
            cut = block.rfind(b"\n") + 1
            if cut:
                yield block[:cut]
            rest = block[cut:]


def _parse_fast(
    chunk: bytes, comment: str, want_header: bool
) -> Optional[Tuple[np.ndarray, Optional[int]]]:
    """``(pairs, header_n)`` of one chunk parsed array-at-a-time, or
    ``None`` when it declines the chunk (see :class:`EdgeLines`).

    ``header_n`` is the first header in a comment line of the chunk
    (looked for only when ``want_header``).
    """
    if len(comment) != 1 or not " " < comment < "\x7f":
        return None
    buf = np.frombuffer(chunk, dtype=np.uint8)
    size = buf.size
    if not size:
        return _NO_PAIRS, None
    if buf.max() > 126:
        return None
    newline = buf == 10
    line_ends = np.flatnonzero(newline)
    returns = int(np.count_nonzero(buf == 13))
    if np.count_nonzero(buf < 32) != (
        line_ends.size + returns + np.count_nonzero(buf == 9)
    ):
        return None
    if returns:
        cr = np.flatnonzero(buf == 13)
        if cr[-1] + 1 == size or np.any(buf[cr + 1] != 10):
            return None
    # Tokens are the runs of bytes above the space: whitespace here is
    # only space, tab and CR, so they are exactly ``str.split``'s.
    solid = buf > 32
    bounds = np.flatnonzero(np.diff(solid, prepend=False, append=False))
    starts, stops = bounds[0::2], bounds[1::2]
    # Each line's first token: at the line's start, or (after leading
    # blanks) the next token when it begins before the line ends.
    line_starts = np.concatenate(([0], line_ends + 1))
    if line_starts[-1] == size:
        line_starts = line_starts[:-1]
    lead = buf[line_starts]
    first = np.zeros(size, dtype=bool)
    first[line_starts[lead > 32]] = True
    blank_led = np.flatnonzero((lead == 32) | (lead == 9) | (lead == 13))
    if blank_led.size:
        token = np.searchsorted(starts, line_starts[blank_led])
        line_stop = np.append(line_ends, size)[blank_led]
        inside = token < starts.size
        token, line_stop = token[inside], line_stop[inside]
        first[starts[token[starts[token] < line_stop]]] = True
    heads = np.flatnonzero(first[starts])
    per_line = np.diff(heads, append=starts.size)
    comments = buf[starts[heads]] == ord(comment)
    header_n = None
    if want_header and comments.any():
        header_n = _first_header(chunk, comment.encode("ascii"))
    data_heads = heads[~comments]
    if np.any(per_line[~comments] < 2):
        return None
    picks = np.empty(2 * data_heads.size, dtype=np.int64)
    picks[0::2] = data_heads
    picks[1::2] = data_heads + 1
    values = _digit_values(buf, starts[picks], stops[picks])
    if values is None:
        return None
    return values.reshape(-1, 2), header_n


def _first_header(chunk: bytes, comment: bytes) -> Optional[int]:
    """``n`` of the first header match inside a comment line."""
    for match in _HEADER_BYTES_RE.finditer(chunk):
        line_start = chunk.rfind(b"\n", 0, match.start()) + 1
        line_end = chunk.find(b"\n", match.end())
        line = chunk[line_start:line_end if line_end >= 0 else len(chunk)]
        if line.strip().startswith(comment):
            return int(match.group(1))
    return None


def _digit_values(
    buf: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> Optional[np.ndarray]:
    """The decimal values of the tokens ``buf[lo:hi]``, or ``None`` when
    one is not all digits or has 19 or more (past int64's reach)."""
    width = hi - lo
    if not width.size:
        return np.empty(0, dtype=np.int64)
    top = int(width.max())
    if top > 18:
        return None
    values = np.zeros(width.size, dtype=np.int64)
    shortest = int(width.min())
    for column in range(top):
        live = None if column < shortest else np.flatnonzero(width > column)
        at = lo + column if live is None else lo[live] + column
        digits = buf[at] - np.uint8(48)
        if np.any(digits > 9):
            return None
        if live is None:
            values *= 10
            values += digits
        else:
            values[live] = values[live] * 10 + digits
    return values


def _first_undecodable_line(lines: Iterable[bytes]) -> int:
    """1-based number of the first ``b"\\n"``-terminated line that is not
    valid UTF-8.

    UTF-8 never encodes a newline byte inside a character, so the
    sequence the text decoder rejected lies within one line.
    """
    line_number = 0
    for line_number, raw in enumerate(lines, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return line_number
    return line_number  # pragma: no cover - the file changed since


def load_edge_list_mapped(
    path: PathLike,
    comment: str = "#",
    n: Optional[int] = None,
    compact: Optional[bool] = None,
) -> Tuple[Graph, Optional[np.ndarray]]:
    """Parse an edge list; additionally return the original-id mapping.

    Parameters
    ----------
    path, comment:
        The file and its comment prefix.  Lines starting with ``comment``
        (or empty) are skipped; a ``# repro graph n=... m=...`` header
        (what :func:`save_edge_list` writes) declares the vertex count so
        trailing isolated vertices round-trip.
    n:
        Explicit vertex count, overriding the header.  Must cover every
        mentioned id.
    compact:
        Remap the mentioned vertex ids to ``0..n-1`` (rank order).
        ``None`` (the default) compacts automatically when no vertex
        count is declared *and* the ids are substantially sparse (the
        ``max(id)+1`` allocation would more than double the distinct-id
        count) — the SNAP situation, where ids like ``10**6`` would
        otherwise allocate a million-vertex CSR for a handful of
        vertices.  Mildly gappy headerless files (1-indexed lists, a
        single missing id) load unchanged, so existing inputs keep
        their ids and fingerprints.  ``True`` forces the remap
        (incompatible with a declared ``n``: a declared count fixes the
        id space); ``False`` never remaps.

    Returns
    -------
    (graph, original_ids):
        ``original_ids[new_id] = old_id`` when a remap happened (ids in
        ascending original order), ``None`` when ids were taken as-is.

    Parsing is :class:`EdgeLines`: 1 MiB chunks, each parsed
    array-at-a-time unless it holds something the fast path declines
    (non-ASCII or control bytes, a lone CR, a data line with fewer than
    two tokens, a non-digit such as a sign or underscore in an
    endpoint, an endpoint of 19 or more digits, a comment prefix that
    is not one printable character); declined chunks go through the
    per-line loop, which gives the same pairs and all error messages.
    A vertex count past :data:`MAX_VERTICES` (declared, or ``max id +
    1`` of ids taken as they are) raises
    :class:`~repro.errors.GraphFormatError` instead of being allocated.
    """
    lines = EdgeLines(path, comment)
    pairs = np.concatenate([_NO_PAIRS, *lines])
    declared = n if n is not None else lines.header_n
    if declared is not None:
        check_vertex_count(path, declared)
    if compact is True and declared is not None:
        raise GraphFormatError(
            f"{path}: compact=True remaps ids and cannot honour a "
            f"declared vertex count (n={declared})"
        )
    unique_ids = sorted_unique(pairs)
    # "Substantially sparse": the raw allocation would be more than
    # twice the distinct-id count.  1-indexed or singly-gapped files
    # stay untouched under auto mode; SNAP-style id spaces compact.
    sparse_ids = bool(
        unique_ids.size and int(unique_ids[-1]) + 1 > 2 * unique_ids.size
    )
    if compact is None:
        compact = declared is None and sparse_ids
    if compact and declared is None:
        remapped = np.searchsorted(unique_ids, pairs)
        graph = Graph.from_edges(remapped, n=int(unique_ids.size))
        return graph, unique_ids
    if declared is not None and unique_ids.size \
            and declared <= int(unique_ids[-1]):
        raise GraphFormatError(
            f"{path}: declares n={declared} but an edge mentions vertex "
            f"{int(unique_ids[-1])}"
        )
    if declared is None and unique_ids.size:
        check_vertex_count(path, int(unique_ids[-1]) + 1, unique_ids[-1])
    return Graph.from_edges(pairs, n=declared), None


def load_edge_list(
    path: PathLike,
    comment: str = "#",
    n: Optional[int] = None,
    compact: Optional[bool] = None,
) -> Graph:
    """Parse a whitespace-separated edge list file into a :class:`Graph`.

    The graph is made undirected and simple exactly as motivo
    preprocesses its inputs.  See :func:`load_edge_list_mapped` for the
    header, ``n`` override, and id-compaction semantics (this wrapper
    discards the original-id mapping).
    """
    graph, _mapping = load_edge_list_mapped(
        path, comment=comment, n=n, compact=compact
    )
    return graph


def save_edge_list(graph: Graph, path: PathLike) -> None:
    """Write the graph as a ``u v`` text edge list (``u < v``).

    The ``# repro graph n=... m=...`` header makes the format
    self-describing: :func:`load_edge_list` reads ``n`` back, so graphs
    with trailing isolated vertices round-trip unchanged.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# repro graph n={graph.num_vertices} m={graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def load_updates(path: PathLike, comment: str = "#") -> np.ndarray:
    """Parse an edge-update file into a normalized ``(N, 3)`` batch.

    One update per line: ``+ u v`` inserts the edge, ``- u v`` deletes
    it (the spellings :func:`repro.graph.graph.normalize_updates`
    accepts — ``add``/``insert``/``delete``/… — work too).  Lines
    starting with ``comment`` and blank lines are skipped.  Order is
    preserved: within the batch the last operation on an edge wins.
    This is the ``motivo-py update --updates FILE`` format.
    """
    from repro.graph.graph import normalize_updates

    entries = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith(comment):
                    continue
                parts = stripped.split()
                if len(parts) != 3:
                    raise GraphFormatError(
                        f"{path}:{line_number}: expected 'op u v', got "
                        f"{stripped!r}"
                    )
                try:
                    entries.append((parts[0], int(parts[1]), int(parts[2])))
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{path}:{line_number}: non-integer endpoints "
                        f"{stripped!r}"
                    ) from exc
    except UnicodeDecodeError:
        with open(path, "rb") as raw:
            line_number = _first_undecodable_line(raw)
        raise GraphFormatError(
            f"{path}:{line_number}: not UTF-8 text"
        ) from None
    try:
        return normalize_updates(entries)
    except GraphError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def load_graph(spec: str) -> Graph:
    """Resolve a graph spec: dataset name, ``.npz`` binary, or edge list.

    The one resolution rule shared by the CLI (``count``/``build``/...)
    and the serving layer (artifact manifest source hints), so the same
    spec always loads the same graph: registered dataset names come
    from the registry, ``.npz`` paths load as binaries, anything else
    as a text edge list (with the sparse-id auto-compaction above).
    """
    from repro.graph.datasets import dataset_names, load_dataset

    spec = str(spec)
    if spec in dataset_names():
        return load_dataset(spec)
    if spec.endswith(".npz"):
        return load_binary(spec)
    return load_edge_list(spec)


def save_binary(graph: Graph, path: PathLike) -> None:
    """Save the CSR arrays as an uncompressed ``.npz`` (binary format).

    Uncompressed on purpose: every artifact compaction rewrites the
    graph blob beside the artifact, and deflate dominated that write
    for a few-fold size saving.  :func:`load_binary` still reads the
    compressed files earlier versions wrote.
    """
    np.savez(
        path,
        magic=np.array(_BINARY_MAGIC),
        indptr=graph.indptr,
        indices=graph.indices,
    )


def load_binary(path: PathLike) -> Graph:
    """Load a graph previously written by :func:`save_binary`."""
    with np.load(path, allow_pickle=False) as payload:
        try:
            magic = str(payload["magic"])
            indptr = payload["indptr"]
            indices = payload["indices"]
        except KeyError as exc:
            raise GraphFormatError(f"{path}: not a repro binary graph") from exc
        if magic != _BINARY_MAGIC:
            raise GraphFormatError(f"{path}: bad magic {magic!r}")
        if indptr.ndim != 1 or indices.ndim != 1 or indptr[0] != 0:
            raise GraphFormatError(f"{path}: malformed CSR arrays")
        if indptr[-1] != indices.shape[0]:
            raise GraphFormatError(f"{path}: CSR arrays are inconsistent")
        return Graph(indptr.astype(np.int64), indices.astype(np.int64))
