"""Save/open one count table as a versioned on-disk artifact.

This is the paper's defining systems split made durable: the expensive
build-up phase runs **once** and leaves a self-describing directory on
disk; any number of later sampling runs reopen it — dense count blobs
through ``numpy.memmap``, succinct blobs straight into in-memory
:class:`~repro.table.count_table.SuccinctLayer` records with no dense
round-trip — and answer queries without rebuilding.

Directory layout (one table artifact)::

    <dir>/
      manifest.json        format/version, graph fingerprint, build
                           parameters, per-layer blob index + digests,
                           post-build RNG state, instrumentation snapshot
      coloring.npy         per-vertex colors (uint8)
      layer_<h>.keys.bin   48-bit packed keys, key-sorted
      layer_<h>.counts.npy dense codec: float64 matrix (memmap-reopened)
      layer_<h>.counts.bin succinct codec: delta/varint blob
      descent_plan.npz     optional: the compiled descent program
                           (sampling-phase plan cache; format-versioned
                           separately via PLAN_FORMAT_VERSION)
      edges.log            optional: edge updates applied since the
                           blobs were written, one (op, u, v) int64 row
                           each (:func:`append_edge_log`)
      graph.npz            optional: the graph the blobs count, written
                           by :func:`compact_table`

The manifest is the contract: :func:`open_table` refuses artifacts whose
format name/version it does not understand, whose manifest does not
parse, or whose graph fingerprint differs from the graph in hand — each
with a typed :class:`~repro.errors.ArtifactError`.  Layer digests are
checked on demand (``verify=True``), not on every open, so the warm path
stays metadata-speed.

An edge update persists the change, not the state: its effective edge
changes are appended to ``edges.log`` and the manifest commits the new
row count and the graph fingerprint they lead to.  :func:`open_table`
replays the committed rows onto the blobs' table as one batch, and
:func:`compact_table` later folds them into fresh blobs.

Saving the post-build RNG state is what makes *build once, sample many*
bit-compatible with the one-shot pipeline: a counter restored from the
artifact resumes the master stream exactly where a fresh build would
have left it, so fixed-seed estimates agree bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List, Optional

import numpy as np

from repro.artifacts.codec import (
    CODECS,
    encode_pairs_succinct,
    decode_counts_csr,
    decode_counts_succinct,
    pack_keys,
    unpack_keys,
)
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.descent import (
    PLAN_FORMAT_VERSION,
    DescentProgram,
    table_keys_digest,
)
from repro.errors import ArtifactError
from repro.graph.graph import Graph
from repro.table.count_table import LAYOUTS, CountTable, Layer, SuccinctLayer
from repro.util.instrument import Instrumentation

__all__ = [
    "FORMAT_VERSION",
    "LOG_FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "TABLE_FORMAT",
    "TableArtifact",
    "advance_lineage",
    "append_edge_log",
    "compact_table",
    "log_rows",
    "require_unmoved",
    "save_table",
    "open_table",
    "load_manifest",
    "file_digest",
]

#: Manifest ``format`` tag of a single-table artifact.
TABLE_FORMAT = "motivo-table-artifact"
#: On-disk format version writers stamp on a manifest whose blobs hold
#: the whole table.  Version 2 added the optional ``descent_plan`` blob
#: and version 3 the optional ``lineage`` section; each step is
#: additive, so readers accept all three.
FORMAT_VERSION = 3
#: The version stamped while the edge log holds rows the blobs do not:
#: a reader that predates the log accepts only versions 1-3, so it
#: refuses such a manifest instead of serving the stale blobs.
LOG_FORMAT_VERSION = 4
#: Manifest versions this build can read.
SUPPORTED_VERSIONS = (1, 2, 3, 4)

MANIFEST_NAME = "manifest.json"
COLORING_NAME = "coloring.npy"
PLAN_NAME = "descent_plan.npz"
LOG_NAME = "edges.log"
GRAPH_NAME = "graph.npz"
#: One edge-log row: ``(op, u, v)`` as little-endian int64.
_LOG_DTYPE = np.dtype("<i8")
_LOG_ROW_BYTES = 3 * _LOG_DTYPE.itemsize


def file_digest(path: str) -> str:
    """``sha256:<hex>`` digest of a file's bytes (streamed)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


def load_manifest(directory: str) -> dict:
    """Read and structurally validate an artifact manifest.

    Raises :class:`~repro.errors.ArtifactError` when the manifest is
    missing, fails to parse, or lacks the required fields — the
    "corrupted manifest" error path.  Version checking is the caller's
    job (:func:`open_table` for tables, the ensemble loader for
    bundles), because the two formats version independently.
    """
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.isfile(path):
        raise ArtifactError(f"no artifact manifest at {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (ValueError, OSError) as error:
        raise ArtifactError(f"corrupted artifact manifest {path}: {error}") from None
    if not isinstance(manifest, dict) or "format" not in manifest \
            or "format_version" not in manifest:
        raise ArtifactError(f"corrupted artifact manifest {path}: missing format fields")
    return manifest


def _require_version(manifest: dict, expected_format: str) -> None:
    if manifest["format"] != expected_format:
        raise ArtifactError(
            f"artifact format {manifest['format']!r} is not {expected_format!r}"
        )
    version = manifest["format_version"]
    if version not in SUPPORTED_VERSIONS:
        raise ArtifactError(
            f"artifact format version {version} is not supported "
            f"(this build reads versions {SUPPORTED_VERSIONS})"
        )
    # The log version marks exactly the manifests whose blobs lag their
    # edge log, so a dropped row count cannot pass for a clean table.
    rows = log_rows(manifest)
    if (version == LOG_FORMAT_VERSION) != (rows > 0):
        raise ArtifactError(
            f"artifact format version {version} does not match its edge "
            f"log: {rows} row(s) committed (version "
            f"{LOG_FORMAT_VERSION} marks exactly a non-empty log)"
        )


def _graph_record(manifest: dict) -> dict:
    """The manifest's ``graph`` section, refused unless an object."""
    recorded = manifest.get("graph", {})
    if not isinstance(recorded, dict):
        raise ArtifactError(
            f"manifest graph section must be an object, got {recorded!r}"
        )
    return recorded


def _check_graph(manifest: dict, graph: Graph) -> None:
    recorded = _graph_record(manifest)
    fingerprint = recorded.get("fingerprint")
    if fingerprint != graph.fingerprint():
        raise ArtifactError(
            "artifact was built from a different graph: manifest records "
            f"{fingerprint!r} (n={recorded.get('num_vertices')}, "
            f"m={recorded.get('num_edges')}), got {graph.fingerprint()!r} "
            f"(n={graph.num_vertices}, m={graph.num_edges})"
        )


class TableArtifact:
    """An opened (or just-saved) table artifact.

    Attributes
    ----------
    directory, manifest:
        Where the artifact lives and its parsed manifest.
    table:
        The :class:`~repro.table.count_table.CountTable` — dense-codec
        layers memory-mapped, succinct-codec layers opened as CSR
        records (or as forced by ``open_table(layout=...)``).  ``None``
        until the artifact is opened with a graph.
    coloring:
        The :class:`~repro.colorcoding.coloring.ColoringScheme` the table
        was built under.
    rng_state:
        Post-build bit-generator state of the master stream, or ``None``
        when the build ran without a recorded state.
    descent_program:
        The artifact's cached
        :class:`~repro.colorcoding.descent.DescentProgram`, validated
        against the loaded table — or ``None`` for artifacts saved
        without one (the urn then compiles on first batched draw).
    graph:
        The graph ``table`` counts: the head of the artifact's edge log
        (see :func:`open_table`).  ``None`` until opened with a graph.
    """

    def __init__(
        self,
        directory: str,
        manifest: dict,
        table: Optional[CountTable] = None,
        coloring: Optional[ColoringScheme] = None,
        descent_program: Optional[DescentProgram] = None,
        graph: Optional[Graph] = None,
    ):
        self.directory = directory
        self.manifest = manifest
        self.table = table
        self.coloring = coloring
        self.descent_program = descent_program
        self.graph = graph

    @property
    def k(self) -> int:
        """Motif size of the stored table."""
        return int(self.manifest["k"])

    @property
    def codec(self) -> str:
        """Count-blob codec (``dense`` or ``succinct``)."""
        return str(self.manifest["codec"])

    @property
    def rng_state(self) -> Optional[dict]:
        """Recorded post-build RNG state (see module docstring)."""
        return self.manifest.get("rng_state")

    @property
    def build(self) -> dict:
        """The build-parameter section of the manifest.

        Raises :class:`~repro.errors.ArtifactError` when the manifest
        records it as anything but an object.
        """
        build = self.manifest.get("build", {})
        if not isinstance(build, dict):
            raise ArtifactError(
                f"artifact manifest in {self.directory} records build "
                f"{build!r}, not an object"
            )
        return dict(build)

    @property
    def source(self) -> Optional[str]:
        """Graph-source hint recorded at save time (CLI convenience)."""
        return self.manifest.get("graph", {}).get("source")

    def total_pairs(self) -> int:
        """Stored (key, vertex) pairs with positive counts."""
        return int(self.manifest.get("total_pairs", 0))

    def payload_bytes(self) -> int:
        """Bytes of all key/count/coloring blobs (manifest excluded)."""
        return int(self.manifest.get("payload_bytes", 0))

    def bits_per_pair(self) -> float:
        """Measured storage cost in bits per stored pair."""
        pairs = self.total_pairs()
        return 8.0 * self.payload_bytes() / pairs if pairs else 0.0

    def verify(self) -> None:
        """Recompute every blob digest against the manifest.

        Raises :class:`~repro.errors.ArtifactError` on the first
        mismatch or missing blob; returns silently when the artifact is
        intact.
        """
        try:
            blobs = [self.manifest.get("coloring", {})]
            for layer in self.manifest.get("layers", []):
                blobs.append(layer["keys"])
                blobs.append(layer["counts"])
            if self.manifest.get("descent_plan") is not None:
                blobs.append(self.manifest["descent_plan"])
            blobs = [
                (blob["file"], int(blob["bytes"]), blob["digest"])
                for blob in blobs
            ]
        except (KeyError, TypeError) as error:
            raise ArtifactError(
                f"corrupted artifact manifest in {self.directory}: "
                f"blob entry missing {error!r}"
            ) from None
        for name, expected_bytes, expected_digest in blobs:
            path = os.path.join(self.directory, name)
            if not os.path.isfile(path):
                raise ArtifactError(f"artifact blob missing: {path}")
            if os.path.getsize(path) != expected_bytes:
                raise ArtifactError(
                    f"artifact blob {path} is {os.path.getsize(path)} bytes, "
                    f"manifest says {expected_bytes}"
                )
            digest = file_digest(path)
            if digest != expected_digest:
                raise ArtifactError(
                    f"artifact blob {path} digest mismatch: {digest} != "
                    f"{expected_digest}"
                )


def _blob_entry(directory: str, name: str) -> Dict[str, object]:
    path = os.path.join(directory, name)
    return {
        "file": name,
        "bytes": os.path.getsize(path),
        "digest": file_digest(path),
    }


def save_table(
    directory: str,
    table: CountTable,
    coloring: ColoringScheme,
    graph: Graph,
    codec: str = "dense",
    build: Optional[dict] = None,
    rng_state: Optional[dict] = None,
    instrumentation: Optional[Instrumentation] = None,
    source: Optional[str] = None,
    descent_program: Optional[DescentProgram] = None,
    lineage: Optional[dict] = None,
) -> TableArtifact:
    """Persist a finished count table as an artifact directory.

    Parameters
    ----------
    directory:
        Target directory (created if needed; existing blobs overwritten).
    table, coloring, graph:
        The build-up output, the coloring it ran under, and the host
        graph (only its fingerprint and sizes are recorded — artifacts
        do not store the graph itself).
    codec:
        ``"dense"`` (memmap-reopened float64 ``.npy``, the default) or
        ``"succinct"`` (48-bit keys + delta/varint counts).
    build:
        Build-parameter dict recorded verbatim (the facade stores its
        ``MotivoConfig`` here so :meth:`MotivoCounter.from_artifact` can
        reconstruct an equivalent counter).
    rng_state:
        Post-build master-stream state for bit-compatible resumption.
    instrumentation:
        Build-phase counters/timers, stored as a snapshot.
    source:
        Optional graph-source hint (a path or dataset name) for CLI
        convenience; never trusted over the fingerprint.
    descent_program:
        Compiled sampling-phase plan to cache alongside the table
        (``descent_plan.npz``), so :func:`open_table` hands reopened
        urns a ready program and warm opens never compile.  Must have
        been compiled against exactly this table.
    lineage:
        Optional provenance dict for delta-maintained tables (format
        v3): ``parent_fingerprint`` (the graph this table's state was
        incrementally carried forward from) plus update accounting
        (:func:`advance_lineage`).  Purely informational — the table
        itself is bit-identical to a fresh build, so the
        content-addressed identity stays the ``graph``/``build`` pair.

    Saving drops any edge log in ``directory``: the new blobs are the
    whole table.
    """
    if codec not in CODECS:
        raise ArtifactError(f"unknown codec {codec!r}; choose from {CODECS}")
    if coloring.num_vertices != table.num_vertices:
        raise ArtifactError(
            f"coloring covers {coloring.num_vertices} vertices, table has "
            f"{table.num_vertices}"
        )
    os.makedirs(directory, exist_ok=True)
    # Re-saving into an existing artifact directory: drop the old
    # manifest FIRST — a crash mid-save must leave a directory that
    # fails loud ("no artifact manifest"), never an old manifest
    # pointing at new blob bytes — then clear stale blobs (a codec or k
    # change renames the count files, and leftovers would silently
    # diverge from the manifest's byte accounting).
    try:
        os.remove(os.path.join(directory, MANIFEST_NAME))
    except OSError:
        pass
    for name in os.listdir(directory):
        if (
            name.startswith("layer_")
            or name in (COLORING_NAME, PLAN_NAME, LOG_NAME)
        ):
            try:
                os.remove(os.path.join(directory, name))
            except OSError:
                pass

    colors = np.asarray(coloring.colors, dtype=np.uint8)
    np.save(os.path.join(directory, COLORING_NAME), colors)

    layers: List[dict] = []
    total_pairs = 0
    payload = 0
    for size in range(1, table.k + 1):
        layer = table.layer(size)
        keys_name = f"layer_{size}.keys.bin"
        with open(os.path.join(directory, keys_name), "wb") as handle:
            handle.write(pack_keys(layer.keys, table.k))
        entry: Dict[str, object] = {
            "size": size,
            "num_keys": layer.num_keys,
            "pairs": layer.nonzero_pairs(),
            "keys": _blob_entry(directory, keys_name),
        }
        if codec == "dense":
            counts_name = f"layer_{size}.counts.npy"
            np.save(
                os.path.join(directory, counts_name),
                np.ascontiguousarray(layer.dense_counts(), dtype=np.float64),
            )
            entry["counts"] = _blob_entry(directory, counts_name)
        else:
            counts_name = f"layer_{size}.counts.bin"
            # key_major_pairs yields the blob's native stream order for
            # both layouts, so a dense table and its sealed twin write
            # byte-identical blobs (and digests) — a succinct-resident
            # table never materializes a dense matrix to save itself.
            rows, verts, values = layer.key_major_pairs()
            blob, sections = encode_pairs_succinct(
                rows, verts, values, layer.num_keys
            )
            with open(os.path.join(directory, counts_name), "wb") as handle:
                handle.write(blob)
            entry["counts"] = _blob_entry(directory, counts_name)
            entry["counts"]["sections"] = sections
        total_pairs += entry["pairs"]
        payload += entry["keys"]["bytes"] + entry["counts"]["bytes"]
        layers.append(entry)

    plan_entry: Optional[Dict[str, object]] = None
    if descent_program is not None:
        try:
            descent_program.validate_for(
                table, digest=table_keys_digest(table)
            )
        except ValueError as error:
            raise ArtifactError(
                f"descent program does not match the table being saved: "
                f"{error}"
            ) from None
        np.savez(
            os.path.join(directory, PLAN_NAME), **descent_program.to_arrays()
        )
        plan_entry = _blob_entry(directory, PLAN_NAME)
        plan_entry["plan_format_version"] = PLAN_FORMAT_VERSION
        # Plan bytes are deliberately excluded from payload_bytes: that
        # figure feeds the paper's bits-per-pair storage accounting,
        # which measures the table itself, not derived caches.

    coloring_entry = _blob_entry(directory, COLORING_NAME)
    payload += coloring_entry["bytes"]
    manifest = {
        "format": TABLE_FORMAT,
        "format_version": FORMAT_VERSION,
        # repro: allow[REPRO-D001] provenance timestamp in the manifest; never read back into tables, seeds, or estimates
        "created_at": time.time(),
        "graph": {
            "fingerprint": graph.fingerprint(),
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            **({"source": source} if source else {}),
        },
        "k": table.k,
        "zero_rooted": table.zero_rooted,
        "codec": codec,
        "coloring": {**coloring_entry, "lam": coloring.lam},
        "build": dict(build or {}),
        "rng_state": rng_state,
        "instrumentation": (
            instrumentation.snapshot() if instrumentation else {}
        ),
        "layers": layers,
        "total_pairs": total_pairs,
        "payload_bytes": payload,
        **({"descent_plan": plan_entry} if plan_entry else {}),
        **({"lineage": dict(lineage)} if lineage else {}),
    }
    _write_manifest(directory, manifest)
    return TableArtifact(
        directory, manifest, table, coloring, descent_program, graph
    )


def advance_lineage(
    lineage: Optional[dict], parent_fingerprint: str, updates_applied: int
) -> dict:
    """The ``lineage`` section after one more applied update batch.

    ``lineage`` is the section so far (``None`` before the first
    batch) and ``parent_fingerprint`` the graph the table counted
    before this batch — it becomes the recorded parent only on the
    first batch, so the section keeps naming the graph the table was
    built on.  Returns a new dict; the input is not modified.
    """
    advanced = dict(lineage or {"parent_fingerprint": parent_fingerprint})
    advanced["update_batches"] = int(advanced.get("update_batches", 0)) + 1
    advanced["updates_applied"] = (
        int(advanced.get("updates_applied", 0)) + int(updates_applied)
    )
    return advanced


def log_rows(manifest: dict) -> int:
    """Edge-log rows the manifest commits beyond its blobs (0 for none).

    Raises :class:`~repro.errors.ArtifactError` when the ``log``
    section is not an object with a non-negative integer ``rows``.
    """
    log = manifest.get("log")
    if log is None:
        return 0
    rows = log.get("rows") if isinstance(log, dict) else None
    if isinstance(rows, bool) or not isinstance(rows, int) or rows < 0:
        raise ArtifactError(
            f"manifest log section must record a non-negative integer "
            f"row count, got {log!r}"
        )
    return rows


def _head_fingerprint(manifest: dict) -> str:
    """Fingerprint of the graph the artifact counts once its log is
    replayed: the log's recorded head, or the blobs' graph."""
    if log_rows(manifest):
        head = manifest["log"].get("head_fingerprint")
    else:
        head = _graph_record(manifest).get("fingerprint")
    if not isinstance(head, str):
        raise ArtifactError(
            f"manifest records no graph fingerprint for its head: {head!r}"
        )
    return head


def append_edge_log(
    directory: str,
    manifest: dict,
    changes: np.ndarray,
    head: Graph,
    instrumentation: Optional[Instrumentation] = None,
) -> dict:
    """Persist one applied edge-update batch by appending it to the log.

    The one persistence step of ``POST /update`` and ``motivo-py
    update``.  ``manifest`` is the artifact's committed manifest before
    the batch, ``changes`` the batch's effective ``(±1, u, v)`` rows
    (:attr:`repro.colorcoding.incremental.DeltaResult.changes`) and
    ``head`` the graph they lead to.  The rows are written after the
    committed ones — any uncommitted tail a failed append left is
    overwritten — and then one atomic manifest write commits the new
    row count, the head fingerprint, the advanced ``lineage``
    (:func:`advance_lineage`) and, when given, the instrumentation
    snapshot.  No blob is rewritten.  Until the manifest write lands,
    readers see the artifact as it was.

    Returns the committed manifest (``manifest`` itself for an empty
    batch, which commits nothing).  Raises
    :class:`~repro.errors.ArtifactError` when the artifact moved on disk
    past ``manifest`` (:func:`require_unmoved`).
    """
    committed = log_rows(manifest)
    changes = np.ascontiguousarray(changes, dtype=_LOG_DTYPE).reshape(-1, 3)
    if not changes.shape[0]:
        return manifest
    require_unmoved(directory, manifest)
    path = os.path.join(directory, LOG_NAME)
    with open(path, "r+b" if committed else "wb") as handle:
        if os.fstat(handle.fileno()).st_size < committed * _LOG_ROW_BYTES:
            raise ArtifactError(
                f"edge log {path} holds fewer than the {committed} rows "
                "its manifest commits"
            )
        handle.seek(committed * _LOG_ROW_BYTES)
        handle.write(changes.tobytes())
        handle.truncate()
    rows = committed + int(changes.shape[0])
    advanced = {
        **manifest,
        "format_version": LOG_FORMAT_VERSION,
        "log": {"rows": rows, "head_fingerprint": head.fingerprint()},
        "lineage": advance_lineage(
            manifest.get("lineage"),
            _head_fingerprint(manifest),
            int(changes.shape[0]),
        ),
    }
    if instrumentation is not None:
        advanced["instrumentation"] = instrumentation.snapshot()
    _write_manifest(directory, advanced)
    return advanced


def require_unmoved(directory: str, manifest: dict) -> None:
    """Refuse to write an artifact that moved on disk past ``manifest``.

    A writer holding a manifest (a served handle's, or one read before
    an update) may append to the edge log or fold it only while the
    directory still commits that state.  A second writer that appended
    or compacted meanwhile changed the on-disk ``log`` rows, its head
    fingerprint or the ``lineage``; writing then would append after rows
    that are gone, or fold a stale head over the other writer's batch.
    Raises :class:`~repro.errors.ArtifactError` in that case.
    """
    on_disk = load_manifest(directory)
    for section in ("log", "lineage"):
        if on_disk.get(section) != manifest.get(section):
            raise ArtifactError(
                f"artifact {directory} moved on disk: its {section} is "
                f"{on_disk.get(section)!r}, this writer holds "
                f"{manifest.get(section)!r} (another process updated it)"
            )


def compact_table(
    directory: str,
    manifest: dict,
    table: CountTable,
    coloring: ColoringScheme,
    graph: Graph,
    descent_program: Optional[DescentProgram] = None,
) -> TableArtifact:
    """Fold the edge log into the blobs: rewrite the artifact at its head.

    ``manifest`` is the artifact's committed manifest and ``table``,
    ``coloring`` and ``graph`` the head state its log replays to (a
    served handle's, or an updated counter's).  The blobs are rewritten
    in ``manifest``'s codec, with its build parameters, RNG state,
    instrumentation and lineage kept verbatim, and the log is dropped.
    The head graph is saved beside the blobs as an uncompressed
    ``graph.npz`` and the source hint repointed there, so the artifact
    stays self-resolving across restarts.  This goes through
    :func:`save_table` rather than the facade's ``save_artifact``: a
    batch that deleted the last colorful k-treelet leaves a legitimate
    empty-urn table (zero estimates) that must stay openable.

    Raises :class:`~repro.errors.ArtifactError` when ``graph`` is not
    the head the manifest records.
    """
    # Both resolved at call time through their public modules, as the
    # facade's save_artifact does, so wrappers installed there (the
    # e2ebench span recorder) also see the compaction.
    from repro.artifacts import save_table as save
    from repro.graph.io import save_binary

    head = _head_fingerprint(manifest)
    if graph.fingerprint() != head:
        raise ArtifactError(
            f"cannot compact {directory}: its log leads to {head!r}, the "
            f"table in hand counts {graph.fingerprint()!r}"
        )
    build = TableArtifact(directory, manifest).build
    graph_blob = os.path.join(os.path.abspath(directory), GRAPH_NAME)
    save_binary(graph, graph_blob)
    return save(
        directory,
        table,
        coloring,
        graph,
        codec=str(manifest.get("codec", "dense")),
        build=build,
        rng_state=manifest.get("rng_state"),
        instrumentation=Instrumentation.from_snapshot(
            manifest.get("instrumentation") or {}
        ),
        source=graph_blob,
        descent_program=descent_program,
        lineage=manifest.get("lineage"),
    )


def _write_manifest(directory: str, manifest: dict) -> None:
    """Write the manifest atomically (tmp file + rename)."""
    path = os.path.join(directory, MANIFEST_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def _read_log(directory: str, manifest: dict, n: int) -> np.ndarray:
    """The manifest's committed edge-log rows, validated (none when the
    manifest commits none, without touching the file).

    Rows past the committed count (a failed append's tail) are
    ignored.  Raises :class:`~repro.errors.ArtifactError` when the log
    holds fewer rows than committed or a row is not an ``(±1, u, v)``
    edge change over vertices ``0..n-1``.
    """
    rows = log_rows(manifest)
    if not rows:
        return np.zeros((0, 3), dtype=np.int64)
    path = os.path.join(directory, LOG_NAME)
    try:
        size = os.path.getsize(path)
        if rows > size // _LOG_ROW_BYTES:
            raise ArtifactError(
                f"edge log {path} holds {size // _LOG_ROW_BYTES} rows, the "
                f"manifest commits {rows}"
            )
        with open(path, "rb") as handle:
            data = handle.read(rows * _LOG_ROW_BYTES)
    except OSError as error:
        raise ArtifactError(f"unreadable edge log {path}: {error}") from None
    ops = np.frombuffer(data, dtype=_LOG_DTYPE).reshape(rows, 3)
    ops = ops.astype(np.int64)
    ends = ops[:, 1:]
    if (
        not np.isin(ops[:, 0], (-1, 1)).all()
        or ends.min() < 0
        or ends.max() >= n
        or (ops[:, 1] == ops[:, 2]).any()
    ):
        raise ArtifactError(
            f"edge log {path} holds a row that is no edge change over "
            f"{n} vertices"
        )
    return ops


def _resolve_log(
    directory: str, manifest: dict, graph: Graph
) -> "tuple[Graph, np.ndarray]":
    """``(base, rows)``: the graph the blobs count, and the log rows.

    ``graph`` may be the blobs' graph or, with rows committed, the head
    they lead to.  The rows are effective changes, each flipping its
    edge, so the reversed rows with their ops negated lead from the
    head back to the base (as one batch, the last op on an edge wins).
    Raises :class:`~repro.errors.ArtifactError` when ``graph`` is
    neither.
    """
    fingerprint = graph.fingerprint()
    at_base = fingerprint == _graph_record(manifest).get("fingerprint")
    if not at_base and (
        not log_rows(manifest)
        or fingerprint != manifest["log"].get("head_fingerprint")
    ):
        _check_graph(manifest, graph)  # raises: neither base nor head
    ops = _read_log(directory, manifest, graph.num_vertices)
    if at_base:
        return graph, ops
    inverse = ops[::-1] * np.array([-1, 1, 1], dtype=np.int64)
    base, _ = graph.apply_updates(inverse)
    _check_graph(manifest, base)
    return base, ops


def _replay_log(
    table: CountTable,
    base: Graph,
    ops: np.ndarray,
    coloring: ColoringScheme,
    manifest: dict,
    graph: Graph,
) -> "tuple[CountTable, Graph]":
    """Carry the blobs' table over the committed log rows, as one batch.

    The last op on an edge wins, so the rows of every logged batch
    replayed together reach the same graph as the batches one by one,
    and the incremental contract makes the table equal a fresh build on
    it.  Returns ``(table, head)``, ``head`` being ``graph`` itself
    when the caller passed the head.
    """
    # Looked up at call time so wrappers installed on the module (the
    # e2ebench span recorder) see the replay.
    from repro.colorcoding.incremental import apply_edge_updates

    result = apply_edge_updates(table, base, ops, coloring, in_place=True)
    head = manifest["log"].get("head_fingerprint")
    if result.graph.fingerprint() != head:
        raise ArtifactError(
            f"artifact edge log replays to {result.graph.fingerprint()!r}, "
            f"the manifest records head {head!r}"
        )
    return result.table, graph if graph.fingerprint() == head else result.graph


def open_table(
    directory: str,
    graph: Graph,
    mmap: bool = True,
    verify: bool = False,
    layout: Optional[str] = None,
) -> TableArtifact:
    """Reopen a saved table artifact against its host graph.

    ``layout`` picks the in-memory table layout; ``None`` (the default)
    defers to the ``table_layout`` the build recorded in the manifest,
    falling back to the codec's *native* layout for artifacts that
    recorded none: dense count blobs come back memory-mapped
    (``mmap=True``), so no count is materialized until the sampling
    phase touches it, and succinct blobs open straight into
    :class:`~repro.table.count_table.SuccinctLayer` records — one
    counting sort over the stored pairs, no dense round-trip.  Forcing
    ``layout="dense"`` decodes succinct blobs to matrices (the old
    behavior); ``layout="succinct"`` seals memory-mapped dense blobs
    after reading their nonzero pairs.  Raises a typed
    :class:`~repro.errors.ArtifactError` on a corrupted manifest,
    format-version skew, or graph-fingerprint mismatch; ``verify=True``
    additionally recomputes every blob digest before loading.

    Plan-carrying artifacts (format version 2 with a ``descent_plan``
    entry) also load the cached descent program and validate it against
    the loaded table — key-universe digest included — so the returned
    artifact's ``descent_program`` is ready to sample with zero
    compilation.  A stale or version-skewed plan fails loud with
    :class:`~repro.errors.ArtifactError`; an *absent* plan entry (old
    artifacts) is not an error — ``descent_program`` is then ``None``
    and the urn recompiles on first batched draw.

    An artifact whose edge log commits rows opens against either the
    graph its blobs count or the head graph the rows lead to: the
    committed rows replay onto the blobs' table as one
    :func:`~repro.colorcoding.incremental.apply_edge_updates` batch,
    the replayed graph must land on the recorded head fingerprint, and
    uncommitted rows are ignored.  The returned artifact's ``graph`` is
    the head graph its ``table`` counts (``graph`` itself when no rows
    are committed); the cached plan is kept only while it still
    matches the replayed key universe.  A log that holds fewer rows
    than committed, a row that is no edge change, or a replay that
    misses the recorded head raises
    :class:`~repro.errors.ArtifactError`.
    """
    manifest = load_manifest(directory)
    _require_version(manifest, TABLE_FORMAT)
    base, ops = _resolve_log(directory, manifest, graph)
    artifact = TableArtifact(directory, manifest)
    if verify:
        artifact.verify()

    codec = manifest.get("codec")
    if codec not in CODECS:
        raise ArtifactError(f"manifest names unknown codec {codec!r}")
    if layout is None:
        # The build section is validated by its reader
        # (repro.motivo.read_build_params); here it only hints a layout.
        build = manifest.get("build")
        recorded = (
            build.get("table_layout") if isinstance(build, dict) else None
        )
        if recorded in LAYOUTS:
            layout = recorded
        else:
            layout = "succinct" if codec == "succinct" else "dense"
    if layout not in LAYOUTS:
        raise ArtifactError(
            f"unknown table layout {layout!r}; choose from {LAYOUTS}"
        )
    k = int(manifest["k"])
    try:
        colors = np.load(os.path.join(directory, COLORING_NAME))
        coloring = ColoringScheme(
            k=k,
            colors=colors.astype(np.int64),
            lam=manifest["coloring"].get("lam"),
        )
        table = CountTable(k, base.num_vertices, bool(manifest["zero_rooted"]))
        for entry in manifest["layers"]:
            size = int(entry["size"])
            num_keys = int(entry["num_keys"])
            keys_path = os.path.join(directory, entry["keys"]["file"])
            with open(keys_path, "rb") as handle:
                keys = unpack_keys(handle.read(), k, num_keys)
            counts_path = os.path.join(directory, entry["counts"]["file"])
            if codec == "dense":
                counts = np.load(
                    counts_path, mmap_mode="r" if mmap else None
                )
                if counts.shape != (num_keys, graph.num_vertices):
                    raise ArtifactError(
                        f"layer {size} counts have shape {counts.shape}, "
                        f"expected ({num_keys}, {graph.num_vertices})"
                    )
                loaded: "Layer | SuccinctLayer" = Layer(size, keys, counts)
                if layout == "succinct":
                    loaded = SuccinctLayer.from_dense(loaded)
            else:
                with open(counts_path, "rb") as handle:
                    blob = handle.read()
                if layout == "succinct":
                    indptr, key_row, values = decode_counts_csr(
                        blob, entry["counts"]["sections"],
                        num_keys, graph.num_vertices,
                    )
                    loaded = SuccinctLayer(
                        size, keys, indptr, key_row, values
                    )
                else:
                    counts = decode_counts_succinct(
                        blob, entry["counts"]["sections"],
                        num_keys, graph.num_vertices,
                    )
                    loaded = Layer(size, keys, counts)
            table.set_layer(loaded)
    except (KeyError, TypeError) as error:
        raise ArtifactError(
            f"corrupted artifact manifest in {directory}: {error!r}"
        ) from None
    except (OSError, ValueError) as error:
        raise ArtifactError(
            f"unreadable artifact blob in {directory}: {error}"
        ) from None
    program = _load_descent_plan(directory, manifest, table)
    head = base
    if ops.shape[0]:
        table, head = _replay_log(table, base, ops, coloring, manifest, graph)
        if program is not None:
            try:
                program.validate_for(table, digest=table_keys_digest(table))
            except ValueError:
                program = None  # the log changed the key universe
    artifact.table = table
    artifact.coloring = coloring
    artifact.graph = head
    artifact.descent_program = program
    return artifact


def _load_descent_plan(
    directory: str, manifest: dict, table: CountTable
) -> Optional[DescentProgram]:
    """Load and validate the artifact's cached descent program.

    Missing entry → ``None`` (recompile fallback).  Anything else that
    is not a fully valid plan for *this* table — unknown plan format
    version, unreadable blob, or a key universe that no longer matches —
    raises :class:`~repro.errors.ArtifactError`: a silently wrong plan
    would sample garbage, so staleness must fail loud.
    """
    entry = manifest.get("descent_plan")
    if entry is None:
        return None
    try:
        recorded_version = int(entry["plan_format_version"])
        plan_path = os.path.join(directory, entry["file"])
    except (KeyError, TypeError, ValueError) as error:
        raise ArtifactError(
            f"corrupted descent plan entry in {directory}: {error!r}"
        ) from None
    if recorded_version != PLAN_FORMAT_VERSION:
        raise ArtifactError(
            f"descent plan format version {recorded_version} is not "
            f"supported (this build reads version {PLAN_FORMAT_VERSION})"
        )
    try:
        with np.load(plan_path, allow_pickle=False) as data:
            program = DescentProgram.from_arrays(data)
    except OSError as error:
        raise ArtifactError(
            f"unreadable descent plan blob {plan_path}: {error}"
        ) from None
    except (KeyError, ValueError) as error:
        raise ArtifactError(
            f"corrupted descent plan blob {plan_path}: {error}"
        ) from None
    try:
        program.validate_for(table, digest=table_keys_digest(table))
    except ValueError as error:
        raise ArtifactError(
            f"stale descent plan in {directory} (rebuild the artifact): "
            f"{error}"
        ) from None
    return program
