"""Out-of-core CSR construction from large text edge lists.

:func:`repro.graph.io.load_edge_list` reads the whole file into a Python
list before building the CSR — fine for the surrogate datasets, a memory
wall for SNAP-scale inputs.  This module builds the same CSR in two
chunked passes with ``O(n + chunk)`` resident state:

1. **Degree pass** — stream the file in fixed-size edge chunks, drop
   self-loops, accumulate both endpoints' degrees; the exclusive prefix
   sum is the row-pointer array.
2. **Scatter pass** — stream again, writing each edge's two directed
   arcs at per-vertex write cursors into an on-disk ``.npy`` opened as a
   memmap, then sort every adjacency row in place, block by block.

The result is *bit-identical* to ``Graph.from_edges`` on the same edges
— same ``indptr`` (counting sort ≡ degree prefix sum), same ``indices``
(per-row ascending sort ≡ the lexsort), hence the same
:meth:`~repro.graph.graph.Graph.fingerprint` — provided the file lists
each undirected edge **once** (either orientation), the contract of
everything :func:`repro.graph.io.save_edge_list` and the test
synthesizers emit.  Duplicate lines would double-count degrees, so the
scatter pass detects the resulting unsorted duplicates and fails loud
rather than silently diverging from the in-memory loader.

The finished arrays live in ``directory`` (``indptr.npy``,
``indices.npy``) and reopen memory-mapped via :func:`open_external`, so
a multi-gigabyte graph costs address space, not resident memory, until
the build actually touches its pages.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.graph import Graph
from repro.graph.io import EdgeLines

__all__ = [
    "stream_edge_chunks",
    "build_csr_external",
    "open_external",
    "load_edge_list_external",
]

PathLike = Union[str, "os.PathLike[str]"]

#: Edges parsed per chunk by default: ~16 MB of int64 pairs.
_CHUNK_EDGES = 1_000_000

#: Adjacency entries sorted per block in the final in-place sort pass.
_SORT_BLOCK = 4_000_000


def stream_edge_chunks(
    path: PathLike,
    chunk_edges: int = _CHUNK_EDGES,
    comment: str = "#",
) -> Iterator[Tuple[np.ndarray, Optional[int]]]:
    """Yield ``(pairs, header_n)`` chunks of an edge-list file.

    ``pairs`` is an ``(c, 2)`` int64 array of at most ``chunk_edges``
    rows; ``header_n`` is the ``# repro graph n=...`` declaration when
    one has been seen so far (repeated with every chunk so consumers can
    act on it whenever it appears).  Lines are parsed by
    :class:`~repro.graph.io.EdgeLines`, the in-memory loader's parser, so
    malformed lines raise the same
    :class:`~repro.errors.GraphFormatError`.
    """
    if chunk_edges < 1:
        raise GraphFormatError("chunk_edges must be positive")
    lines = EdgeLines(path, comment)
    edges = iter(lines)
    while True:
        chunk = itertools.islice(edges, chunk_edges)
        flat = np.fromiter(
            itertools.chain.from_iterable(chunk), dtype=np.int64
        )
        if not flat.size:
            return
        yield flat.reshape(-1, 2), lines.header_n


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
    """Two-pass external CSR build; returns the two array paths.

    ``path`` must list each undirected edge once (either orientation);
    self-loops are dropped.  ``n`` overrides the file's header
    declaration; with neither, ``1 + max endpoint`` is used.  The arrays
    land in ``directory`` as ``indptr.npy``/``indices.npy``, matching
    ``Graph.from_edges`` bit for bit (see the module docstring).
    """
    os.makedirs(directory, exist_ok=True)
    header_n: Optional[int] = None
    max_vertex = -1
    degrees: Optional[np.ndarray] = None

    def _grown(array: Optional[np.ndarray], size: int) -> np.ndarray:
        if array is None:
            return np.zeros(size, dtype=np.int64)
        if size <= array.size:
            return array
        grown = np.zeros(size, dtype=np.int64)
        grown[: array.size] = array
        return grown

    for pairs, seen_n in stream_edge_chunks(path, chunk_edges, comment):
        header_n = seen_n if header_n is None else header_n
        if pairs.size:
            # Vertex-count inference sees self-loop endpoints too,
            # exactly like ``Graph.from_edges`` (the loop edge itself
            # is dropped below).
            max_vertex = max(max_vertex, int(pairs.max()))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if pairs.size:
            degrees = _grown(degrees, int(pairs.max()) + 1)
            degrees += np.bincount(
                pairs[:, 0], minlength=degrees.size
            )
            degrees += np.bincount(
                pairs[:, 1], minlength=degrees.size
            )
    declared = n if n is not None else header_n
    inferred = max_vertex + 1
    if declared is None:
        declared = inferred
    elif declared < inferred:
        raise GraphFormatError(
            f"{path}: declares n={declared} but an edge mentions vertex "
            f"{inferred - 1}"
        )
    degrees = _grown(degrees, declared)[:declared]
    indptr = np.zeros(declared + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indptr_path = os.path.join(directory, "indptr.npy")
    indices_path = os.path.join(directory, "indices.npy")
    np.save(indptr_path, indptr)
    total_arcs = int(indptr[-1])
    _create_npy(indices_path, (total_arcs,))

    cursors = indptr[:-1].copy()
    indices = np.lib.format.open_memmap(indices_path, mode="r+")
    try:
        for pairs, _seen_n in stream_edge_chunks(path, chunk_edges, comment):
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            if not pairs.size:
                continue
            heads = np.concatenate([pairs[:, 0], pairs[:, 1]])
            tails = np.concatenate([pairs[:, 1], pairs[:, 0]])
            # Stable within-chunk ordering is irrelevant: the sort pass
            # below fixes every row's final order.
            slots = cursors[heads] + _run_offsets(heads)
            indices[slots] = tails
            np.add.at(cursors, heads, 1)
            # np.add.at re-reads cursors per duplicate head, but slots
            # above were computed before the update — _run_offsets
            # supplies the within-chunk displacement instead.
        if not np.array_equal(cursors, indptr[1:]):
            raise GraphFormatError(
                f"{path}: scatter did not fill every adjacency slot — "
                "duplicate edge lines? the external loader requires each "
                "undirected edge to appear exactly once"
            )
        for lo in range(0, declared, max(1, _SORT_BLOCK // 64)):
            hi = min(declared, lo + max(1, _SORT_BLOCK // 64))
            start, stop = int(indptr[lo]), int(indptr[hi])
            block = np.asarray(indices[start:stop])
            offsets = (indptr[lo:hi + 1] - start).astype(np.int64)
            for row in range(hi - lo):
                row_lo, row_hi = int(offsets[row]), int(offsets[row + 1])
                segment = block[row_lo:row_hi]
                segment.sort()
                if segment.size > 1 and np.any(
                    segment[1:] == segment[:-1]
                ):
                    raise GraphFormatError(
                        f"{path}: vertex {lo + row} has a duplicate "
                        "neighbor — the external loader requires each "
                        "undirected edge to appear exactly once"
                    )
            indices[start:stop] = block
        indices.flush()
    finally:
        del indices
    return indptr_path, indices_path


def _run_offsets(values: np.ndarray) -> np.ndarray:
    """Occurrence rank of each element among equal values (any order)."""
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    boundaries = np.flatnonzero(
        np.r_[True, sorted_values[1:] != sorted_values[:-1]]
    )
    ranks = np.arange(values.size, dtype=np.int64)
    ranks -= np.repeat(
        ranks[boundaries], np.diff(np.r_[boundaries, values.size])
    )
    out = np.empty(values.size, dtype=np.int64)
    out[order] = ranks
    return out


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
