"""Ensemble artifacts: one bundle of per-coloring table artifacts.

The paper's production recipe averages the pipeline over ~20 independent
colorings.  Persisting that ensemble is a directory of member table
artifacts plus one bundle manifest::

    <dir>/
      manifest.json    format/version, graph fingerprint, child seeds,
                       member subdirectories, merged instrumentation
      coloring-000/    a full table artifact (see table_artifact.py)
      coloring-001/
      ...

A member whose coloring produced an *empty urn* (no colorful k-treelet
survived — possible on tiny graphs) has no subdirectory and is recorded
as ``null``; sampling from the bundle counts it as an empty run, exactly
like the live ensemble does, so the averaged estimator stays unbiased
and bit-identical to a one-shot multi-coloring run under the same master
seed.

Written by :meth:`repro.engine.pipeline.PipelineEngine.build_artifact`
and reopened by passing ``artifact=`` to the engine's ``run_naive`` /
``run_ags`` (or the CLI ``sample`` command).
"""

from __future__ import annotations

import os
import time
from typing import List, Optional

from repro.artifacts.table_artifact import (
    FORMAT_VERSION,
    _check_graph,
    _require_version,
    _write_manifest,
    load_manifest,
)
from repro.errors import ArtifactError
from repro.graph.graph import Graph
from repro.util.instrument import Instrumentation

__all__ = ["ENSEMBLE_FORMAT", "EnsembleArtifact", "save_ensemble", "open_ensemble"]

#: Manifest ``format`` tag of an ensemble bundle.
ENSEMBLE_FORMAT = "motivo-ensemble-artifact"


class EnsembleArtifact:
    """An opened ensemble bundle (metadata only; members open lazily)."""

    def __init__(self, directory: str, manifest: dict):
        self.directory = directory
        self.manifest = manifest

    @property
    def k(self) -> int:
        """Motif size shared by every member table."""
        return int(self.manifest["k"])

    @property
    def seeds(self) -> List[int]:
        """Child seed of each coloring, in merge order."""
        return [int(seed) for seed in self.manifest["seeds"]]

    @property
    def colorings(self) -> int:
        """Ensemble size (members plus empty-urn colorings)."""
        return len(self.seeds)

    def member_paths(self) -> List[Optional[str]]:
        """Absolute member directories; ``None`` marks an empty-urn run."""
        return [
            os.path.join(self.directory, member) if member else None
            for member in self.manifest["members"]
        ]

    @property
    def source(self) -> Optional[str]:
        """Graph-source hint recorded at build time."""
        return self.manifest.get("graph", {}).get("source")

    def verify(self) -> None:
        """Recompute every member's blob digests against its manifest.

        Raises :class:`~repro.errors.ArtifactError` on the first missing
        member, corrupted member manifest, or digest mismatch.
        """
        from repro.artifacts.table_artifact import TableArtifact

        for member in self.member_paths():
            if member is not None:
                TableArtifact(member, load_manifest(member)).verify()


def save_ensemble(
    directory: str,
    graph: Graph,
    k: int,
    seeds: List[int],
    members: List[Optional[str]],
    build: Optional[dict] = None,
    codec: str = "dense",
    instrumentation: Optional[Instrumentation] = None,
    source: Optional[str] = None,
) -> EnsembleArtifact:
    """Write the bundle manifest over already-saved member directories.

    ``members`` holds each coloring's subdirectory name relative to
    ``directory`` (``None`` for empty-urn colorings), aligned with
    ``seeds``.
    """
    if len(members) != len(seeds):
        raise ArtifactError(
            f"{len(members)} members for {len(seeds)} seeds"
        )
    manifest = {
        "format": ENSEMBLE_FORMAT,
        "format_version": FORMAT_VERSION,
        # repro: allow[REPRO-D001] provenance timestamp in the manifest; never read back into tables, seeds, or estimates
        "created_at": time.time(),
        "graph": {
            "fingerprint": graph.fingerprint(),
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            **({"source": source} if source else {}),
        },
        "k": k,
        "codec": codec,
        "seeds": [int(seed) for seed in seeds],
        "members": list(members),
        "build": dict(build or {}),
        "instrumentation": (
            instrumentation.snapshot() if instrumentation else {}
        ),
    }
    _write_manifest(directory, manifest)
    return EnsembleArtifact(directory, manifest)


def open_ensemble(directory: str, graph: Graph) -> EnsembleArtifact:
    """Reopen an ensemble bundle, checking format and graph identity."""
    manifest = load_manifest(directory)
    _require_version(manifest, ENSEMBLE_FORMAT)
    _check_graph(manifest, graph)
    missing = [
        member for member in manifest["members"]
        if member and not os.path.isdir(os.path.join(directory, member))
    ]
    if missing:
        raise ArtifactError(
            f"ensemble artifact {directory} is missing members: {missing}"
        )
    return EnsembleArtifact(directory, manifest)
