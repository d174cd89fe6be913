"""Persistent table artifacts — build once, sample many (§3.1/§3.3).

Motivo's defining systems trick is the split between an expensive
build-up phase that writes succinct count tables to disk and a cheap
sampling phase that memory-maps them back for any number of queries.
This package makes that split durable and managed:

:mod:`repro.artifacts.table_artifact`
    The versioned on-disk format for one table — a self-describing
    manifest (format version, graph fingerprint, build parameters,
    per-layer digests, post-build RNG state) plus per-layer key/count
    blobs — with :func:`save_table` / :func:`open_table`, and the edge
    log that persists updates (:func:`append_edge_log`, folded back by
    :func:`compact_table`).
:mod:`repro.artifacts.codec`
    The blob codecs: 48-bit packed keys shared by both count codecs,
    ``dense`` (memmap-reopened float64) and ``succinct`` (delta/varint,
    benchmarked against the paper's 176 bits/pair costing).
:mod:`repro.artifacts.ensemble`
    Bundles of per-coloring tables written by the pipeline engine and
    re-sampled without rebuilding.
:mod:`repro.artifacts.cache`
    A content-addressed artifact cache keyed on graph fingerprint +
    build parameters, with list/evict/verify management.

The facade integration (``MotivoConfig.artifact_dir``,
``MotivoCounter.from_artifact``/``save_artifact``) and the CLI ``build``
/ ``sample`` commands live one layer up; the format itself is specified
in ``docs/artifacts.md``.
"""

from repro.artifacts.cache import ArtifactCache, CacheEntry
from repro.artifacts.codec import CODECS, KEY_BYTES
from repro.artifacts.ensemble import (
    ENSEMBLE_FORMAT,
    EnsembleArtifact,
    open_ensemble,
    save_ensemble,
)
from repro.artifacts.table_artifact import (
    FORMAT_VERSION,
    LOG_FORMAT_VERSION,
    TABLE_FORMAT,
    TableArtifact,
    advance_lineage,
    append_edge_log,
    compact_table,
    load_manifest,
    log_rows,
    open_table,
    require_unmoved,
    save_table,
)

__all__ = [
    "ArtifactCache",
    "CacheEntry",
    "CODECS",
    "KEY_BYTES",
    "ENSEMBLE_FORMAT",
    "EnsembleArtifact",
    "open_ensemble",
    "save_ensemble",
    "FORMAT_VERSION",
    "LOG_FORMAT_VERSION",
    "TABLE_FORMAT",
    "TableArtifact",
    "advance_lineage",
    "append_edge_log",
    "compact_table",
    "load_manifest",
    "log_rows",
    "open_table",
    "require_unmoved",
    "save_table",
]
