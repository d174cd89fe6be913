"""Vertex-range shard storage for the out-of-core build-up.

:class:`ShardedStore` owns the on-disk side of the sharded build
(:func:`repro.colorcoding.sharded.build_table_sharded`), the paper's
greedy flushing and memory-mapped reads (§3.1/§3.3) at shard
granularity.  Every layer's count matrix is split into contiguous
vertex-range shards, one ``layer_<size>.shard<i>.npy`` file each plus
one shared ``layer_<size>.keys.npy``; shard blocks are written through
``.tmp-<pid>`` files and published by atomic rename, and the finished
layers are assembled from them without the full matrix ever being
resident.  The shard files are also the unit of distribution for
multi-node builds: a worker that owns vertex range ``[lo, hi)`` only
ever needs the shards covering that range.

The sharded build uses the shards as its unit of *work*: each level's
count block is written one shard at a time, and rows are compacted to
the kept keys afterwards.  The store is a context manager whose
:meth:`ShardedStore.close` releases its scratch files (see
:mod:`repro.table.flush` for the ownership rules); the in-memory build
(:func:`repro.colorcoding.buildup.build_table`) keeps its layers in
process memory and needs no store.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TableError
from repro.table.count_table import SuccinctLayer, csr_offsets
from repro.table.flush import remove_scratch, reap_stale_tmp

__all__ = [
    "ShardedStore",
]

Key = Tuple[int, int]

#: Every file name a :class:`ShardedStore` may create in its directory —
#: committed shard blocks, shared key files, assembled full-width layers,
#: the build's per-shard halo layouts — with or without an in-flight
#: ``.tmp-<pid>`` suffix.  ``close`` sweeps by
#: this pattern rather than by the layers it happens to have registered, so
#: scratch written by crashed shard workers is removed too.
_SHARD_SCRATCH_RE = re.compile(
    r"^(layer_\d+\.(keys|shard\d+|full)\.npy|halo\.shard\d+\.bin)"
    r"(\.tmp-\d+)?$"
)


def _npy_extent(path: str) -> Tuple[int, Tuple[int, int], np.dtype]:
    """``(data offset, shape, dtype)`` of a 2-D C-order ``.npy`` file."""
    with open(path, "rb") as handle:
        version = np.lib.format.read_magic(handle)
        read_header = (
            np.lib.format.read_array_header_1_0
            if version == (1, 0)
            else np.lib.format.read_array_header_2_0
        )
        shape, fortran, dtype = read_header(handle)
        if len(shape) != 2 or fortran:
            raise TableError(f"{path} is not a C-order 2-D array")
        return handle.tell(), shape, dtype


class ShardedStore:
    """Layer storage sharded by contiguous vertex ranges, on disk.

    Parameters
    ----------
    num_shards:
        Number of vertex-range shards per layer (ranges are balanced to
        within one vertex).
    directory:
        Where every shard is persisted, as ``layer_<size>.shard<i>.npy``
        plus one shared ``layer_<size>.keys.npy`` per layer.  Created
        when missing.
    owns_directory:
        Whether :meth:`close` removes ``directory`` outright.  Defaults
        to "the store created it"; callers that pre-create the directory
        themselves (``tempfile.mkdtemp``) pass ``True``.
    """

    def __init__(
        self,
        num_shards: int,
        directory: str,
        owns_directory: Optional[bool] = None,
    ):
        if num_shards < 1:
            raise TableError("a sharded store needs at least one shard")
        self.num_shards = num_shards
        self.directory = directory
        self._owns_directory = (
            not os.path.isdir(directory)
            if owns_directory is None
            else owns_directory
        )
        os.makedirs(directory, exist_ok=True)
        #: size → (keys, shard boundary offsets over the vertex axis)
        self._layers: Dict[int, Tuple[List[Key], np.ndarray]] = {}
        #: committed block path → its parsed ``.npy`` extent
        self._extents: Dict[str, Tuple[int, Tuple[int, int], np.dtype]] = {}
        self._closed = False

    def shard_bounds(self, num_vertices: int) -> np.ndarray:
        """Vertex-range boundaries: shard ``i`` owns ``[b[i], b[i+1])``."""
        return np.linspace(0, num_vertices, self.num_shards + 1).astype(
            np.int64
        )

    def sizes(self) -> List[int]:
        """Layer sizes this store has registered, ascending."""
        return sorted(self._layers)

    def shard_tmp_path(self, size: int, shard: int) -> str:
        """In-flight write path for one shard: ``<shard>.npy.tmp-<pid>``.

        Follows the shared ``.tmp-<pid>`` convention (see
        :mod:`repro.table.flush`): a crashed writer's leftovers are
        identifiable by their dead pid and reaped by
        :meth:`reap_stale_tmp` or swept by :meth:`close`.
        """
        return f"{self._shard_path(size, shard)}.tmp-{os.getpid()}"

    def commit_shard(self, size: int, shard: int, tmp_path: str) -> str:
        """Atomically publish a fully-written shard block."""
        final = self._shard_path(size, shard)
        os.replace(tmp_path, final)
        self._extents.pop(final, None)
        return final

    def read_shard(
        self, size: int, shard: int, row_lo: int = 0,
        row_hi: Optional[int] = None,
    ) -> np.ndarray:
        """Rows ``[row_lo, row_hi)`` (all by default) of a committed
        shard block.

        Buffered (``fromfile`` at an offset) rather than memory-mapped on
        purpose: mapped pages count toward resident set size until the
        kernel reclaims them, so the budgeted sharded build reads exactly
        the rows it is charged for and nothing sticks to RSS afterwards.
        Each file's ``.npy`` header is parsed once and remembered until
        this store commits the block again; a committed block changes
        only through this store's :meth:`commit_shard`, and pooled shard
        workers read only layers finished before their level started.
        """
        path = self._shard_path(size, shard)
        extent = self._extents.get(path)
        if extent is None:
            extent = self._extents[path] = _npy_extent(path)
        offset, (rows, cols), dtype = extent
        row_hi = rows if row_hi is None else row_hi
        row_lo = max(0, min(int(row_lo), rows))
        row_hi = max(row_lo, min(int(row_hi), rows))
        block = np.fromfile(
            path, dtype=dtype, count=(row_hi - row_lo) * cols,
            offset=offset + row_lo * cols * dtype.itemsize,
        )
        return block.reshape(row_hi - row_lo, cols)

    def layout_path(self, shard: int) -> str:
        """Where the sharded build keeps shard ``shard``'s halo layout."""
        return os.path.join(self.directory, f"halo.shard{shard}.bin")

    def register_layer(
        self, size: int, keys: Sequence[Key], bounds: np.ndarray
    ) -> None:
        """Record a layer whose shard files were committed externally.

        Persists the shared key file (workers reopen source-layer keys
        from disk) and makes the layer visible to :meth:`sizes` and
        :meth:`layer_keys`.
        """
        key_array = np.asarray(
            [[t, mask] for t, mask in keys], dtype=np.int64
        ).reshape(len(keys), 2)
        np.save(self._key_path(size), key_array)
        self._layers[size] = (list(keys), np.asarray(bounds, dtype=np.int64))

    def layer_keys(self, size: int) -> List[Key]:
        """Keys of a registered layer, in on-disk row order."""
        if size not in self._layers:
            raise TableError(f"no sharded layer of size {size}")
        return list(self._layers[size][0])

    def compact_layer(
        self, size: int, keep_order: np.ndarray, keys: Sequence[Key]
    ) -> None:
        """Rewrite every shard of ``size`` down to the kept rows.

        ``keep_order`` indexes rows of the committed shard blocks in the
        order they should appear — the caller passes the kept rows
        key-ascending, so the compacted blocks are key-sorted on disk and
        reopening them never copies.  Each shard is rewritten through a
        tmp → rename, and the shared key file is replaced to match.
        """
        keep_order = np.asarray(keep_order, dtype=np.int64)
        for shard in range(self.num_shards):
            block = self.read_shard(size, shard)
            tmp = self.shard_tmp_path(size, shard)
            # Write through a handle: ``np.save`` would append ``.npy``
            # to the suffix-less tmp path.
            with open(tmp, "wb") as handle:
                np.lib.format.write_array(
                    handle, np.ascontiguousarray(block[keep_order])
                )
            del block
            self.commit_shard(size, shard, tmp)
        keys, bounds = list(keys), self._layers[size][1]
        self.register_layer(size, keys, bounds)

    def assemble_dense(self, size: int, row_block: int = 256) -> str:
        """Concatenate the shard blocks into one full-width ``.npy``.

        Streams ``row_block`` rows at a time — read buffered from each
        shard file, written buffered to ``layer_<size>.full.npy`` — so
        peak memory is one row block, never the full matrix.  Returns the
        assembled path; callers reopen it memory-mapped so the finished
        table pages in lazily (§3.3).
        """
        keys, bounds = self._layers[size]
        num_keys = len(keys)
        n = int(bounds[-1])
        out_path = self._full_path(size)
        tmp = f"{out_path}.tmp-{os.getpid()}"
        header = np.lib.format.header_data_from_array_1_0(
            np.empty((0, 0), dtype=np.float64)
        )
        header["shape"] = (num_keys, n)
        row_block = max(1, int(row_block))
        with open(tmp, "wb") as handle:
            np.lib.format.write_array_header_1_0(handle, header)
            for lo in range(0, num_keys, row_block):
                hi = min(num_keys, lo + row_block)
                pieces = [
                    self.read_shard(size, s, lo, hi)
                    for s in range(self.num_shards)
                ]
                handle.write(np.ascontiguousarray(np.hstack(pieces)).data)
        os.replace(tmp, out_path)
        return out_path

    def assemble_succinct(self, size: int) -> SuccinctLayer:
        """Build the succinct CSR layer straight from the shard blocks.

        ``SuccinctLayer.from_dense`` orders records vertex-major
        (``np.nonzero(counts.T)``); the per-shard pieces cover ascending
        disjoint vertex ranges, so concatenating each shard's
        ``nonzero(block.T)`` yields exactly that order without ever
        materializing the dense matrix.  Peak memory is one shard block
        plus the O(pairs) output arrays.
        """
        keys, bounds = self._layers[size]
        vert_pieces: List[np.ndarray] = []
        row_pieces: List[np.ndarray] = []
        value_pieces: List[np.ndarray] = []
        for shard in range(self.num_shards):
            block = self.read_shard(size, shard)
            verts_local, rows = np.nonzero(block.T)
            vert_pieces.append(verts_local + int(bounds[shard]))
            row_pieces.append(rows)
            value_pieces.append(block[rows, verts_local])
            del block
        verts = np.concatenate(vert_pieces) if vert_pieces else np.array([], dtype=np.int64)
        rows = np.concatenate(row_pieces) if row_pieces else np.array([], dtype=np.int64)
        values = np.concatenate(value_pieces) if value_pieces else np.array([], dtype=np.float64)
        indptr = csr_offsets(verts, int(bounds[-1]))
        return SuccinctLayer(size, list(keys), indptr, rows, values)

    def reap_stale_tmp(self) -> int:
        """Remove crash-leftover ``.tmp-<pid>`` shard writes (dead pids)."""
        return reap_stale_tmp(self.directory)

    def close(self) -> None:
        """Remove the persisted shard files; idempotent.

        Deletes the shard directory when this store owns it.  In a
        pre-existing directory the sweep is by *pattern*, not by the
        layers this instance registered: committed shard blocks, key
        files, assembled full-width layers, and in-flight ``.tmp-<pid>``
        writes are all removed, including scratch left by shard workers
        or a crashed predecessor — foreign files are never touched.
        Dense layers memory-mapped from the assembled files must not be
        read afterwards; succinct layers live in memory and stay usable.
        """
        if self._closed:
            return
        self._closed = True
        paths = []
        if os.path.isdir(self.directory):
            paths = [
                os.path.join(self.directory, name)
                for name in os.listdir(self.directory)
                if _SHARD_SCRATCH_RE.match(name)
            ]
        remove_scratch(self.directory, self._owns_directory, paths)

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _key_path(self, size: int) -> str:
        return os.path.join(self.directory, f"layer_{size}.keys.npy")

    def _shard_path(self, size: int, shard: int) -> str:
        return os.path.join(self.directory, f"layer_{size}.shard{shard}.npy")

    def _full_path(self, size: int) -> str:
        return os.path.join(self.directory, f"layer_{size}.full.npy")
