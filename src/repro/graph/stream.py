"""Out-of-core CSR construction from large text edge lists.

:func:`repro.graph.io.load_edge_list` collects every parsed edge into
one ``(m, 2)`` int64 array before building the CSR — fine for the
surrogate datasets, a memory wall for SNAP-scale inputs.  This module
builds the same CSR with ``O(n + chunk)`` resident state, parsing the
text once:

1. **Degree pass** — parse the file chunk by chunk
   (:class:`~repro.graph.io.EdgeLines`, the in-memory loader's parser),
   drop self-loops, accumulate both endpoints' degrees, and spill the
   pairs to a binary scratch file beside the output; the exclusive
   prefix sum of the degrees is the row-pointer array.
2. **Scatter pass** — read the spilled pairs back in fixed-size edge
   chunks, writing each edge's two directed arcs at per-vertex write
   cursors into an on-disk ``.npy`` opened as a memmap, then sort the
   adjacency rows in place, one block of rows per vectorized sort.

The result is *bit-identical* to ``Graph.from_edges`` on the same edges
— same ``indptr`` (counting sort ≡ degree prefix sum), same ``indices``
(per-row ascending sort ≡ the lexsort), hence the same
:meth:`~repro.graph.graph.Graph.fingerprint` — provided the file lists
each undirected edge **once** (either orientation), the contract of
everything :func:`repro.graph.io.save_edge_list` and the test
synthesizers emit.  Duplicate lines would double-count degrees, so the
sort pass detects the resulting duplicate neighbors and fails loud
rather than silently diverging from the in-memory loader.  Ids are
taken as they are (never compacted), so ``max id + 1`` is the vertex
count and must stay within :data:`repro.graph.io.MAX_VERTICES`.

The finished arrays live in ``directory`` (``indptr.npy``,
``indices.npy``) and reopen memory-mapped via :func:`open_external`, so
a multi-gigabyte graph costs address space, not resident memory, until
the build actually touches its pages.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.graph import Graph
from repro.graph.io import EdgeLines, check_vertex_count

__all__ = [
    "build_csr_external",
    "open_external",
    "load_edge_list_external",
]

PathLike = Union[str, "os.PathLike[str]"]

#: Edges per chunk by default: ~16 MB of int64 pairs.
_CHUNK_EDGES = 1_000_000

#: Adjacency entries (and at most as many rows) per block of the final
#: in-place sort pass.
_SORT_BLOCK = 1 << 21

#: The degree pass's spill of parsed pairs, removed once scattered.
_SPILL_NAME = "pairs.spill"


def _create_npy(path: PathLike, shape: Tuple[int, ...]) -> None:
    """Write an int64 ``.npy`` header and reserve the data extent."""
    header = np.lib.format.header_data_from_array_1_0(
        np.empty((0,), dtype=np.int64)
    )
    header["shape"] = shape
    with open(path, "wb") as handle:
        np.lib.format.write_array_header_1_0(handle, header)
        total = 8 * int(np.prod(shape))
        if total:
            handle.seek(total - 1, os.SEEK_CUR)
            handle.write(b"\0")


def build_csr_external(
    path: PathLike,
    directory: PathLike,
    n: Optional[int] = None,
    chunk_edges: int = _CHUNK_EDGES,
    comment: str = "#",
) -> Tuple[str, str]:
    """External CSR build; returns the two array paths.

    ``path`` must list each undirected edge once (either orientation);
    self-loops are dropped.  ``n`` overrides the file's header
    declaration; with neither, ``1 + max endpoint`` is used.  The arrays
    land in ``directory`` as ``indptr.npy``/``indices.npy``, matching
    ``Graph.from_edges`` bit for bit (see the module docstring).
    ``chunk_edges`` bounds the edges the scatter pass holds at a time.
    """
    if chunk_edges < 1:
        raise GraphFormatError("chunk_edges must be positive")
    os.makedirs(directory, exist_ok=True)
    spill_path = os.path.join(directory, _SPILL_NAME)
    try:
        declared, degrees = _degree_pass(path, spill_path, n, comment)
        indptr = np.zeros(declared + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        del degrees
        indptr_path = os.path.join(directory, "indptr.npy")
        indices_path = os.path.join(directory, "indices.npy")
        np.save(indptr_path, indptr)
        _create_npy(indices_path, (int(indptr[-1]),))
        indices = np.lib.format.open_memmap(indices_path, mode="r+")
        try:
            _scatter_pass(spill_path, indptr, indices, chunk_edges)
            _sort_rows(path, indptr, indices)
            indices.flush()
        finally:
            del indices
    finally:
        if os.path.exists(spill_path):
            os.remove(spill_path)
    return indptr_path, indices_path


def _degree_pass(
    path: PathLike, spill_path: str, n: Optional[int], comment: str
) -> Tuple[int, np.ndarray]:
    """Parse the file once: spill its non-loop pairs, count degrees.

    Returns the vertex count and the ``(n,)`` degree array.
    """
    lines = EdgeLines(path, comment)
    max_vertex = -1
    degrees = np.zeros(0, dtype=np.int64)
    with open(spill_path, "wb") as spill:
        for pairs in lines:
            if not pairs.size:
                continue
            # Vertex-count inference sees self-loop endpoints too,
            # exactly like ``Graph.from_edges`` (the loop edge itself
            # is dropped below).
            top = int(pairs.max())
            if top > max_vertex:
                check_vertex_count(path, top + 1, top)
                max_vertex = top
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            counts = np.bincount(pairs.ravel())
            if counts.size > degrees.size:
                counts[: degrees.size] += degrees
                degrees = counts
            else:
                degrees[: counts.size] += counts
            pairs.tofile(spill)
    declared = n if n is not None else lines.header_n
    inferred = max_vertex + 1
    if declared is None:
        declared = inferred
    else:
        check_vertex_count(path, declared)
        if declared < inferred:
            raise GraphFormatError(
                f"{path}: declares n={declared} but an edge mentions vertex "
                f"{inferred - 1}"
            )
    full = np.zeros(declared, dtype=np.int64)
    full[: degrees.size] = degrees
    return declared, full


def _scatter_pass(
    spill_path: str,
    indptr: np.ndarray,
    indices: np.ndarray,
    chunk_edges: int,
) -> None:
    """Write every spilled edge's two arcs into its endpoints' rows.

    Within a row the arcs land in arrival order; :func:`_sort_rows`
    fixes every row's final order.
    """
    cursors = indptr[:-1].copy()
    with open(spill_path, "rb") as spill:
        while True:
            pairs = np.fromfile(spill, dtype=np.int64, count=2 * chunk_edges)
            if not pairs.size:
                return
            pairs = pairs.reshape(-1, 2)
            heads = np.concatenate([pairs[:, 0], pairs[:, 1]])
            tails = np.concatenate([pairs[:, 1], pairs[:, 0]])
            order = np.argsort(heads)
            heads, tails = heads[order], tails[order]
            # Each arc's rank among the chunk's arcs of the same head.
            runs = np.flatnonzero(np.r_[True, heads[1:] != heads[:-1]])
            lengths = np.diff(np.r_[runs, heads.size])
            ranks = np.arange(heads.size, dtype=np.int64)
            ranks -= np.repeat(runs, lengths)
            indices[cursors[heads] + ranks] = tails
            cursors[heads[runs]] += lengths


def _sort_rows(
    path: PathLike, indptr: np.ndarray, indices: np.ndarray
) -> None:
    """Sort every adjacency row in place, a block of rows at a time.

    Each block sorts ``row * n + neighbor`` keys in one call (rows and
    entries per block stay under ``_SORT_BLOCK``, so keys fit int64
    for any allowed ``n``); equal neighbors are then adjacent, and the
    first row holding a pair of them is the one reported.
    """
    n = indptr.size - 1
    row = 0
    while row < n:
        stop_row = int(
            np.searchsorted(indptr, indptr[row] + _SORT_BLOCK, side="right")
        ) - 1
        stop_row = min(max(stop_row, row + 1), row + _SORT_BLOCK, n)
        start, stop = int(indptr[row]), int(indptr[stop_row])
        local = np.repeat(
            np.arange(stop_row - row, dtype=np.int64),
            np.diff(indptr[row:stop_row + 1]),
        )
        local *= n
        keys = local + np.asarray(indices[start:stop])
        keys.sort()
        repeats = np.flatnonzero(keys[1:] == keys[:-1])
        if repeats.size:
            raise GraphFormatError(
                f"{path}: vertex {row + int(keys[repeats[0]]) // n} has a "
                "duplicate neighbor — the external loader requires each "
                "undirected edge to appear exactly once"
            )
        keys -= local
        indices[start:stop] = keys
        row = stop_row


def open_external(directory: PathLike) -> Graph:
    """Reopen an external CSR build as a memory-mapped :class:`Graph`."""
    indptr_path = os.path.join(directory, "indptr.npy")
    indices_path = os.path.join(directory, "indices.npy")
    if not (os.path.exists(indptr_path) and os.path.exists(indices_path)):
        raise GraphFormatError(
            f"{directory}: no external CSR build (expected indptr.npy "
            "and indices.npy)"
        )
    indptr = np.load(indptr_path, mmap_mode="r")
    indices = np.load(indices_path, mmap_mode="r")
    if indptr.ndim != 1 or indices.ndim != 1 or int(indptr[0]) != 0:
        raise GraphFormatError(f"{directory}: malformed CSR arrays")
    if int(indptr[-1]) != indices.shape[0]:
        raise GraphFormatError(f"{directory}: CSR arrays are inconsistent")
    return Graph(np.asarray(indptr), indices)


def load_edge_list_external(
    path: PathLike,
    directory: PathLike,
    n: Optional[int] = None,
    chunk_edges: int = _CHUNK_EDGES,
    comment: str = "#",
) -> Graph:
    """Stream ``path`` into an external CSR and open it memory-mapped.

    The out-of-core counterpart of
    :func:`repro.graph.io.load_edge_list`: same graph, same fingerprint,
    bounded memory.  ``directory`` keeps the arrays; reopen later with
    :func:`open_external` without re-parsing the text.
    """
    build_csr_external(
        path, directory, n=n, chunk_edges=chunk_edges, comment=comment
    )
    return open_external(directory)
