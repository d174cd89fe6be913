"""Unified layer storage backends for the build-up phase.

The build-up phase finishes one :class:`~repro.table.count_table.Layer` at
a time; what happens to a finished layer — keep it resident, greedily flush
it to disk and reopen it memory-mapped (§3.1/§3.3), or split it into
vertex-range shards — is a storage policy, not an algorithm concern.
:class:`LayerStore` is that policy's interface, so
:func:`~repro.colorcoding.buildup.build_table` no longer special-cases the
spill path:

:class:`InMemoryStore`
    The default: layers live as plain arrays for the table's lifetime.
:class:`SpillLayerStore`
    Wraps a :class:`~repro.table.flush.SpillStore`: greedy flush on
    install, a sorting second I/O pass plus memory-mapped reopen on
    :meth:`~LayerStore.finalize` — the paper's external-memory lifecycle.
:class:`ShardedStore`
    Splits every layer's count matrix into contiguous vertex-range shards
    and (optionally) persists each shard to its own file.  The shard files
    are the unit of distribution for multi-node builds: a worker that owns
    vertex range ``[lo, hi)`` only ever needs the shards covering that
    range.  Locally the full layer stays resident so the table remains a
    drop-in :class:`~repro.table.count_table.CountTable`.

Every store is a context manager whose :meth:`~LayerStore.close`
releases on-disk scratch state (see :mod:`repro.table.flush` for the
ownership rules), and :meth:`~LayerStore.export_artifact` routes a
finished build to :mod:`repro.artifacts` so the table survives the
process as a reusable, versioned on-disk artifact.
"""

from __future__ import annotations

import os
import re
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TableError
from repro.table.count_table import CountTable, Layer, SuccinctLayer, csr_offsets
from repro.table.flush import SpillStore, remove_scratch, reap_stale_tmp
from repro.util.instrument import Instrumentation

__all__ = [
    "LayerStore",
    "InMemoryStore",
    "SpillLayerStore",
    "ShardedStore",
    "resolve_store",
    "read_npy_rows",
]

Key = Tuple[int, int]

#: Every file name a :class:`ShardedStore` may create in its directory —
#: committed shard blocks, shared key files, assembled full-width layers —
#: with or without an in-flight ``.tmp-<pid>`` suffix.  ``close`` sweeps by
#: this pattern rather than by the layers it happens to have registered, so
#: scratch written by crashed shard workers is removed too.
_SHARD_SCRATCH_RE = re.compile(
    r"^layer_\d+\.(keys|shard\d+|full)\.npy(\.tmp-\d+)?$"
)


def read_npy_rows(path: str, row_lo: int, row_hi: int) -> np.ndarray:
    """Read rows ``[row_lo, row_hi)`` of a 2-D C-order ``.npy`` file.

    Buffered (``seek`` + ``fromfile``) rather than memory-mapped on
    purpose: mapped pages count toward resident set size until the kernel
    reclaims them, so the budgeted sharded build reads exactly the rows it
    is charged for and nothing sticks to RSS afterwards.
    """
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
        rows, cols = shape
        row_lo = max(0, min(int(row_lo), rows))
        row_hi = max(row_lo, min(int(row_hi), rows))
        handle.seek(row_lo * cols * dtype.itemsize, os.SEEK_CUR)
        block = np.fromfile(
            handle, dtype=dtype, count=(row_hi - row_lo) * cols
        )
    return block.reshape(row_hi - row_lo, cols)


class LayerStore(ABC):
    """Storage policy for finished build-up layers."""

    #: Whether installed layers stay resident in process memory.  The
    #: in-memory build caches per-layer neighbor-sum matrices across levels
    #: only for resident stores; non-resident (spilling) stores keep peak
    #: memory one layer deep instead.
    resident: bool = True

    @abstractmethod
    def install(
        self,
        table: CountTable,
        size: int,
        keys: Sequence[Key],
        counts: np.ndarray,
    ) -> Layer:
        """Persist a finished layer and make it resident in ``table``.

        ``counts`` is the ``len(keys) × n`` matrix in arrival order; the
        :class:`~repro.table.count_table.Layer` constructor key-sorts it.
        Returns the installed layer.
        """

    def finalize(
        self,
        table: CountTable,
        instrumentation: Optional[Instrumentation] = None,
        layout: str = "dense",
    ) -> None:
        """Post-build pass (sorting, reopening); default is a no-op.

        ``layout`` names the in-memory layout the finished table should
        end up in; stores that replace resident layers here (the spill
        store swaps in its sorted memory-mapped files) honor it so a
        succinct build never round-trips through a second dense matrix.
        Resident stores ignore it — the build-up seals their layers as
        the frontier retires them.
        """

    def bytes_on_disk(self) -> int:
        """Bytes this store persisted outside process memory."""
        return 0

    def close(self) -> None:
        """Release scratch state (spill files, shard files); idempotent.

        The default store keeps nothing outside process memory, so the
        base implementation is a no-op.  Disk-backed stores remove their
        temporary directories here — after ``close`` any layer they
        served memory-mapped must not be read.
        """

    def __enter__(self) -> "LayerStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def export_artifact(self, table: CountTable, directory: str, **kwargs):
        """Persist the finished table as a reusable on-disk artifact.

        Runs after :meth:`finalize`; the artifact format (manifest +
        per-layer blobs) is owned by :mod:`repro.artifacts`, this hook
        just routes a finished build there so every storage backend —
        resident, spilled, sharded — exports identically.  ``kwargs``
        pass through to :func:`repro.artifacts.save_table` (``coloring``
        and ``graph`` are required there).
        """
        from repro.artifacts import save_table

        return save_table(directory, table, **kwargs)


class InMemoryStore(LayerStore):
    """Keep every layer resident in process memory (the default)."""

    def install(
        self,
        table: CountTable,
        size: int,
        keys: Sequence[Key],
        counts: np.ndarray,
    ) -> Layer:
        layer = Layer(size, list(keys), counts)
        table.set_layer(layer)
        return layer


class SpillLayerStore(LayerStore):
    """Greedy flushing through a :class:`~repro.table.flush.SpillStore`.

    Install writes the layer to disk in arrival order and reopens it
    memory-mapped, releasing the in-memory buffers; :meth:`finalize` runs
    the sorting second I/O pass and swaps every resident layer for its
    sorted memory-mapped version.
    """

    resident = False

    def __init__(self, spill: SpillStore):
        self.spill = spill

    def install(
        self,
        table: CountTable,
        size: int,
        keys: Sequence[Key],
        counts: np.ndarray,
    ) -> Layer:
        self.spill.spill_layer(size, list(keys), counts)
        layer = self.spill.load_layer(size, mmap=True)
        table.set_layer(layer)
        return layer

    def finalize(
        self,
        table: CountTable,
        instrumentation: Optional[Instrumentation] = None,
        layout: str = "dense",
    ) -> None:
        instrumentation = instrumentation or Instrumentation()
        with instrumentation.timer("sort_pass"):
            self.spill.sort_pass()
        for size in self.spill.spilled_sizes():
            table.drop_layer(size)
            table.set_layer(
                self.spill.load_layer(size, mmap=True, layout=layout)
            )

    def bytes_on_disk(self) -> int:
        return self.spill.bytes_on_disk()

    def close(self) -> None:
        self.spill.close()


class ShardedStore(LayerStore):
    """Layer storage sharded by contiguous vertex ranges.

    Parameters
    ----------
    num_shards:
        Number of vertex-range shards per layer (ranges are balanced to
        within one vertex).
    directory:
        When given, every shard is persisted to
        ``layer_<size>.shard<i>.npy`` (plus one shared ``.keys.npy`` per
        layer) and can be reopened individually — memory-mapped — with
        :meth:`load_shard`.  When omitted the shards exist only as views.
    """

    def __init__(
        self,
        num_shards: int,
        directory: Optional[str] = None,
        owns_directory: Optional[bool] = None,
    ):
        if num_shards < 1:
            raise TableError("a sharded store needs at least one shard")
        self.num_shards = num_shards
        self.directory = directory
        # ``owns_directory`` overrides the existence heuristic for callers
        # that pre-create the directory themselves (``tempfile.mkdtemp``)
        # yet still want ``close`` to remove it outright.
        self._owns_directory = (
            (directory is not None and not os.path.isdir(directory))
            if owns_directory is None
            else (directory is not None and owns_directory)
        )
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        #: size → (keys, shard boundary offsets over the vertex axis)
        self._layers: Dict[int, Tuple[List[Key], np.ndarray]] = {}
        self._closed = False

    def shard_bounds(self, num_vertices: int) -> np.ndarray:
        """Vertex-range boundaries: shard ``i`` owns ``[b[i], b[i+1])``."""
        return np.linspace(0, num_vertices, self.num_shards + 1).astype(
            np.int64
        )

    def install(
        self,
        table: CountTable,
        size: int,
        keys: Sequence[Key],
        counts: np.ndarray,
    ) -> Layer:
        layer = Layer(size, list(keys), counts)
        bounds = self.shard_bounds(layer.num_vertices)
        # Persist the *key-sorted* matrix so shards line up with the
        # resident layer's row order.
        if self.directory is not None:
            key_array = np.asarray(
                [[t, mask] for t, mask in layer.keys], dtype=np.int64
            ).reshape(layer.num_keys, 2)
            np.save(self._key_path(size), key_array)
            for i in range(self.num_shards):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                np.save(
                    self._shard_path(size, i),
                    np.ascontiguousarray(layer.counts[:, lo:hi]),
                )
        self._layers[size] = (list(layer.keys), bounds)
        table.set_layer(layer)
        return layer

    def sizes(self) -> List[int]:
        """Layer sizes this store has installed, ascending."""
        return sorted(self._layers)

    def load_shard(
        self, size: int, shard: int, mmap: bool = True
    ) -> Tuple[List[Key], Tuple[int, int], np.ndarray]:
        """Reopen one persisted shard: ``(keys, (lo, hi), counts)``.

        ``counts`` covers only the columns of vertex range ``[lo, hi)``;
        it is memory-mapped by default, so a distributed worker pages in
        just its own range.
        """
        if self.directory is None:
            raise TableError("sharded store has no directory to load from")
        if size not in self._layers:
            raise TableError(f"no sharded layer of size {size}")
        if not 0 <= shard < self.num_shards:
            raise TableError(
                f"shard {shard} outside [0, {self.num_shards})"
            )
        keys, bounds = self._layers[size]
        counts = np.load(
            self._shard_path(size, shard), mmap_mode="r" if mmap else None
        )
        return keys, (int(bounds[shard]), int(bounds[shard + 1])), counts

    # ------------------------------------------------------------------
    # Out-of-core build API
    #
    # The sharded build (:func:`repro.colorcoding.sharded.build_table_sharded`)
    # uses shards as the unit of *work*: each level's count block is written
    # one shard at a time through a crash-safe tmp → commit rename, rows are
    # compacted to the kept keys afterwards, and the finished layer is
    # assembled straight from the committed shard files without ever holding
    # the full matrix in memory.
    # ------------------------------------------------------------------

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
        return final

    def register_layer(
        self, size: int, keys: Sequence[Key], bounds: np.ndarray
    ) -> None:
        """Record a layer whose shard files were committed externally.

        Persists the shared key file (workers reopen source-layer keys
        from disk) and makes the layer visible to :meth:`load_shard` /
        :meth:`sizes` without routing its counts through :meth:`install`.
        """
        if self.directory is not None:
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
        if self.directory is None:
            raise TableError("sharded store has no directory to compact")
        keep_order = np.asarray(keep_order, dtype=np.int64)
        for shard in range(self.num_shards):
            block = np.load(self._shard_path(size, shard))
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
        table pages lazily like any spilled layer.
        """
        if self.directory is None:
            raise TableError("sharded store has no directory to assemble")
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
                    read_npy_rows(self._shard_path(size, s), lo, hi)
                    for s in range(self.num_shards)
                ]
                handle.write(
                    np.ascontiguousarray(np.hstack(pieces)).tobytes()
                )
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
        if self.directory is None:
            raise TableError("sharded store has no directory to assemble")
        keys, bounds = self._layers[size]
        vert_pieces: List[np.ndarray] = []
        row_pieces: List[np.ndarray] = []
        value_pieces: List[np.ndarray] = []
        for shard in range(self.num_shards):
            block = np.load(self._shard_path(size, shard))
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
        if self.directory is None:
            return 0
        return reap_stale_tmp(self.directory)

    def bytes_on_disk(self) -> int:
        if self.directory is None:
            return 0
        total = 0
        for name in os.listdir(self.directory):
            total += os.path.getsize(os.path.join(self.directory, name))
        return total

    def close(self) -> None:
        """Remove persisted shard files; see :meth:`LayerStore.close`.

        Deletes the shard directory when this store created it.  In a
        pre-existing directory the sweep is by *pattern*, not by the
        layers this instance registered: committed shard blocks, key
        files, assembled full-width layers, and in-flight ``.tmp-<pid>``
        writes are all removed, including scratch left by shard workers
        or a crashed predecessor — foreign files are never touched.
        The resident layers (plain arrays) stay usable.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        paths = []
        if self.directory is not None and os.path.isdir(self.directory):
            paths = [
                os.path.join(self.directory, name)
                for name in os.listdir(self.directory)
                if _SHARD_SCRATCH_RE.match(name)
            ]
        remove_scratch(self.directory, self._owns_directory, paths)

    def _key_path(self, size: int) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"layer_{size}.keys.npy")

    def _shard_path(self, size: int, shard: int) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"layer_{size}.shard{shard}.npy")

    def _full_path(self, size: int) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"layer_{size}.full.npy")


def resolve_store(
    store: Optional[LayerStore], spill: Optional[SpillStore]
) -> LayerStore:
    """Normalize build_table's storage arguments to one LayerStore.

    ``spill`` is the pre-LayerStore spelling kept for compatibility; it is
    equivalent to ``store=SpillLayerStore(spill)``.
    """
    if store is not None and spill is not None:
        raise TableError("pass either store= or spill=, not both")
    if store is not None:
        return store
    if spill is not None:
        return SpillLayerStore(spill)
    return InMemoryStore()
