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

The manifest is the contract: :func:`open_table` refuses artifacts whose
format name/version it does not understand, whose manifest does not
parse, or whose graph fingerprint differs from the graph in hand — each
with a typed :class:`~repro.errors.ArtifactError`.  Layer digests are
checked on demand (``verify=True``), not on every open, so the warm path
stays metadata-speed.

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
    "DELTA_FORMAT",
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "TABLE_FORMAT",
    "TableArtifact",
    "advance_lineage",
    "rewrite_table",
    "save_table",
    "save_table_delta",
    "load_table_delta",
    "compact_table",
    "open_table",
    "load_manifest",
    "file_digest",
]

#: Manifest ``format`` tag of a single-table artifact.
TABLE_FORMAT = "motivo-table-artifact"
#: Manifest ``format`` tag of a *delta* artifact: not a table, but an
#: edge-update batch linking a parent table artifact to the child state
#: it produces (see :func:`save_table_delta`).
DELTA_FORMAT = "motivo-table-delta"
#: Current on-disk format version, the one writers stamp.  Version 2
#: added the optional ``descent_plan`` blob; version 3 adds the
#: incremental-maintenance story — an optional ``lineage`` section on
#: table manifests (parent-fingerprint provenance of delta-maintained
#: tables) and the :data:`DELTA_FORMAT` sidecar artifacts.  Each step
#: is additive, so readers accept all three.
FORMAT_VERSION = 3
#: Manifest versions this build can read.
SUPPORTED_VERSIONS = (1, 2, 3)

MANIFEST_NAME = "manifest.json"
COLORING_NAME = "coloring.npy"
PLAN_NAME = "descent_plan.npz"
UPDATES_NAME = "updates.npy"


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


def _check_graph(manifest: dict, graph: Graph) -> None:
    recorded = manifest.get("graph", {})
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
    """

    def __init__(
        self,
        directory: str,
        manifest: dict,
        table: Optional[CountTable] = None,
        coloring: Optional[ColoringScheme] = None,
        descent_program: Optional[DescentProgram] = None,
    ):
        self.directory = directory
        self.manifest = manifest
        self.table = table
        self.coloring = coloring
        self.descent_program = descent_program

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
        v3): the facade records ``parent_fingerprint`` (the graph this
        table's state was incrementally carried forward from) plus
        update accounting, and compaction records the deltas it folded.
        Purely informational — the table itself is bit-identical to a
        fresh build, so the content-addressed identity stays the
        ``graph``/``build`` pair.
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
            or name == COLORING_NAME
            or name == PLAN_NAME
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
        directory, manifest, table, coloring, descent_program
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


def rewrite_table(
    directory: str,
    manifest: dict,
    table: CountTable,
    coloring: ColoringScheme,
    graph: Graph,
    updates_applied: int,
    descent_program: Optional[DescentProgram] = None,
    instrumentation: Optional[Instrumentation] = None,
) -> TableArtifact:
    """Rewrite a table artifact in place after an edge-update batch.

    The one persistence step of ``motivo-py update`` and
    ``POST /update``.  ``manifest`` is the artifact's manifest before
    the batch: its codec, build parameters and RNG state are written
    back verbatim (an update consumes no draws and changes no build
    field), and its lineage advances by one batch of
    ``updates_applied`` edge changes (:func:`advance_lineage`).

    The old source hint loads the pre-update graph, whose fingerprint
    no longer matches, so the updated ``graph`` is saved next to the
    blobs (``graph.npz``) and the hint repointed there — the artifact
    stays self-resolving across restarts.  This goes through
    :func:`save_table` rather than the facade's ``save_artifact``: a
    batch that deletes the last colorful k-treelet leaves a legitimate
    empty-urn table (zero estimates) that must stay openable.
    """
    # Both resolved at call time through their public modules, as the
    # facade's save_artifact does, so wrappers installed there (the
    # e2ebench span recorder) also see the rewrites.
    from repro.artifacts import save_table as save
    from repro.graph.io import save_binary

    graph_blob = os.path.join(os.path.abspath(directory), "graph.npz")
    save_binary(graph, graph_blob)
    return save(
        directory,
        table,
        coloring,
        graph,
        codec=str(manifest.get("codec", "dense")),
        build=manifest.get("build"),
        rng_state=manifest.get("rng_state"),
        instrumentation=instrumentation,
        source=graph_blob,
        descent_program=descent_program,
        lineage=advance_lineage(
            manifest.get("lineage"),
            manifest["graph"]["fingerprint"],
            updates_applied,
        ),
    )


def _write_manifest(directory: str, manifest: dict) -> None:
    """Write the manifest atomically (tmp file + rename)."""
    path = os.path.join(directory, MANIFEST_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def save_table_delta(
    directory: str,
    updates,
    parent_fingerprint: str,
    child_fingerprint: str,
    stats: Optional[dict] = None,
) -> dict:
    """Persist one edge-update batch as a delta artifact (format v3).

    A delta is deliberately *not* a table: it stores the normalized
    ``(op, u, v)`` batch plus the parent and child graph fingerprints it
    links.  Replaying the batch through
    :func:`repro.colorcoding.incremental.apply_edge_updates` on the
    parent's table reproduces the child's table bit for bit (the
    coloring travels with the parent artifact), so a base artifact plus
    a chain of deltas is a complete, compactable history —
    :func:`compact_table` folds them back into a fresh full artifact.

    Returns the written manifest.
    """
    from repro.graph.graph import normalize_updates

    ops = normalize_updates(updates)
    os.makedirs(directory, exist_ok=True)
    try:
        os.remove(os.path.join(directory, MANIFEST_NAME))
    except OSError:
        pass
    np.save(
        os.path.join(directory, UPDATES_NAME),
        np.ascontiguousarray(ops, dtype=np.int64),
    )
    manifest = {
        "format": DELTA_FORMAT,
        "format_version": FORMAT_VERSION,
        # repro: allow[REPRO-D001] provenance timestamp in the manifest; never read back into tables, seeds, or estimates
        "created_at": time.time(),
        "parent_fingerprint": parent_fingerprint,
        "child_fingerprint": child_fingerprint,
        "num_updates": int(ops.shape[0]),
        "updates": _blob_entry(directory, UPDATES_NAME),
        **({"stats": dict(stats)} if stats else {}),
    }
    _write_manifest(directory, manifest)
    return manifest


def load_table_delta(directory: str) -> "tuple[np.ndarray, dict]":
    """Reopen a delta artifact; returns ``(updates, manifest)``.

    Validates the format tag, version, lineage fields, and the blob
    digest (deltas are small, so unlike table blobs they are always
    verified).  Raises :class:`~repro.errors.ArtifactError` on any
    mismatch.
    """
    manifest = load_manifest(directory)
    _require_version(manifest, DELTA_FORMAT)
    try:
        parent = manifest["parent_fingerprint"]
        child = manifest["child_fingerprint"]
        entry = manifest["updates"]
        path = os.path.join(directory, entry["file"])
        expected_digest = entry["digest"]
    except (KeyError, TypeError) as error:
        raise ArtifactError(
            f"corrupted delta manifest in {directory}: missing {error!r}"
        ) from None
    if not parent or not child:
        raise ArtifactError(
            f"delta manifest in {directory} lacks lineage fingerprints"
        )
    if not os.path.isfile(path):
        raise ArtifactError(f"delta blob missing: {path}")
    if file_digest(path) != expected_digest:
        raise ArtifactError(f"delta blob {path} digest mismatch")
    try:
        ops = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as error:
        raise ArtifactError(f"unreadable delta blob {path}: {error}") from None
    if ops.ndim != 2 or ops.shape[1] != 3 or ops.dtype != np.int64:
        raise ArtifactError(
            f"delta blob {path} is not an (N, 3) int64 update batch"
        )
    return ops, manifest


def compact_table(
    base_directory: str,
    delta_directories: "List[str]",
    output_directory: str,
    graph: Graph,
    mmap: bool = True,
    instrumentation: Optional[Instrumentation] = None,
) -> "tuple[TableArtifact, Graph]":
    """Fold a base artifact plus a delta chain into a fresh artifact.

    Opens the base table against ``graph`` (its fingerprint must match
    the base manifest), replays each delta in order through
    :func:`~repro.colorcoding.incremental.apply_edge_updates` — checking
    that every delta's ``parent_fingerprint`` matches the graph state it
    is applied to and that the updated graph lands on the recorded
    ``child_fingerprint`` — and saves the result to
    ``output_directory`` as a full v3 artifact whose ``lineage`` section
    records the provenance.  The output is bit-identical to an artifact
    saved from a fresh build on the final graph (same coloring), so
    reopening it behaves exactly like the table it compacts.

    The base's codec, build parameters, RNG state, and source hint are
    carried over; the cached descent plan is not (the key universe may
    have shifted), so the compacted artifact recompiles on first draw.

    Returns ``(artifact, final_graph)``.
    """
    from repro.colorcoding.incremental import apply_edge_updates

    base = open_table(base_directory, graph, mmap=mmap)
    table = base.table
    coloring = base.coloring
    current = graph
    applied = 0
    for delta_dir in delta_directories:
        ops, delta_manifest = load_table_delta(delta_dir)
        if delta_manifest["parent_fingerprint"] != current.fingerprint():
            raise ArtifactError(
                f"delta {delta_dir} expects parent "
                f"{delta_manifest['parent_fingerprint']!r}, graph is at "
                f"{current.fingerprint()!r}"
            )
        result = apply_edge_updates(
            table, current, ops, coloring, instrumentation=instrumentation
        )
        table, current = result.table, result.graph
        applied += result.updates_applied
        if delta_manifest["child_fingerprint"] != current.fingerprint():
            raise ArtifactError(
                f"delta {delta_dir} promised child "
                f"{delta_manifest['child_fingerprint']!r}, replay produced "
                f"{current.fingerprint()!r}"
            )
    artifact = save_table(
        output_directory,
        table,
        coloring,
        current,
        codec=base.codec,
        build=base.build,
        rng_state=base.rng_state,
        instrumentation=instrumentation,
        source=base.source,
        lineage={
            "parent_fingerprint": graph.fingerprint(),
            "deltas_compacted": len(delta_directories),
            "updates_applied": applied,
        },
    )
    return artifact, current


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
    """
    manifest = load_manifest(directory)
    _require_version(manifest, TABLE_FORMAT)
    _check_graph(manifest, graph)
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
        table = CountTable(k, graph.num_vertices, bool(manifest["zero_rooted"]))
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
    artifact.table = table
    artifact.coloring = coloring
    artifact.descent_program = _load_descent_plan(directory, manifest, table)
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
