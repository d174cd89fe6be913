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

import itertools
import os
import re
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphError, GraphFormatError
from repro.graph.graph import Graph

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


#: Vertex ids must fit the int64 arrays the loaders build.
_MAX_VERTEX_ID = np.iinfo(np.int64).max


class EdgeLines:
    """The edge-list line loop both loaders share.

    Iterating yields the ``(u, v)`` endpoints of each data line in file
    order (extra columns ignored); blank lines and lines starting with
    ``comment`` are skipped, and the first ``# repro graph n=... m=...``
    header seen so far is in :attr:`header_n`.  Every malformed line —
    too few columns, non-integer or negative endpoints, ids past int64,
    bytes that are not UTF-8 — raises
    :class:`~repro.errors.GraphFormatError` naming the file and line.
    """

    def __init__(self, path: PathLike, comment: str = "#"):
        self.path = path
        self.comment = comment
        self.header_n: Optional[int] = None

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        path, comment, limit = self.path, self.comment, _MAX_VERTEX_ID
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
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
            raise GraphFormatError(
                f"{path}:{_first_undecodable_line(path)}: not UTF-8 text"
            ) from None


def _first_undecodable_line(path: PathLike) -> int:
    """1-based number of the first line that is not valid UTF-8.

    UTF-8 never encodes a newline byte inside a character, so the
    sequence the text decoder rejected lies within one line.
    """
    line_number = 0
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
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
    """
    lines = EdgeLines(path, comment)
    pairs = np.fromiter(
        itertools.chain.from_iterable(lines), dtype=np.int64
    ).reshape(-1, 2)
    declared = n if n is not None else lines.header_n
    if compact is True and declared is not None:
        raise GraphFormatError(
            f"{path}: compact=True remaps ids and cannot honour a "
            f"declared vertex count (n={declared})"
        )
    unique_ids = np.unique(pairs)
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
        raise GraphFormatError(
            f"{path}:{_first_undecodable_line(path)}: not UTF-8 text"
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

    Uncompressed on purpose: every edge update rewrites the graph blob
    beside its artifact, and deflate dominated that write for a
    few-fold size saving.  :func:`load_binary` still reads the
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
