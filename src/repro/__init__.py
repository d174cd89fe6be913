"""repro — a from-scratch reproduction of *Motivo* (VLDB 2019).

Motivo counts graph motifs (induced k-node graphlets) approximately, via
color coding: a build-up phase computes, for every vertex, succinct counts
of colorful rooted treelets; a sampling phase draws uniform treelet copies
from that "urn" and converts hit rates into count estimates.  The paper's
contributions — succinct treelet encodings, the compact count table with
greedy flushing, 0-rooting, biased coloring, and the adaptive graphlet
sampling (AGS) strategy — are all implemented here in pure Python/NumPy.
Neighbor buffering's aim, child draws that do not sweep a hub's
neighbors each time, is met by the batched sampler, which builds each
neighbor running sum once and bisects it per draw.

Public entry points
-------------------
:class:`MotivoCounter` / :class:`MotivoConfig`
    The end-to-end pipeline (``from_artifact`` reopens a persisted
    build; ``artifact_dir`` routes builds through the artifact cache).
:mod:`repro.graph`
    Graph type, loaders, generators, and the paper-surrogate datasets.
:mod:`repro.sampling`
    Naive and AGS estimators plus the paper's error metrics.
:mod:`repro.artifacts`
    Persistent table artifacts: build once, sample many
    (``docs/artifacts.md`` specifies the on-disk format).
:mod:`repro.serve`
    The long-lived sampling service: warm artifact handles, per-session
    RNG streams, coalesced concurrent draws, JSON-over-HTTP API
    (``docs/serving.md`` documents the determinism contract).
:mod:`repro.exact`
    Exact ground-truth counting (ESU) for validation.

See ``docs/architecture.md`` for the full pipeline walkthrough (data
flow, per-module responsibilities) and ``docs/estimators.md`` for the
estimator math; ``benchmarks/`` holds the table/figure reproductions.
"""

from repro.errors import (
    ArtifactError,
    BuildError,
    ColorError,
    GraphError,
    GraphletError,
    MergeError,
    ReproError,
    SamplingError,
    ServeError,
    TableError,
    TreeletError,
)
from repro.engine import EnsembleResult, PipelineEngine
from repro.motivo import MotivoConfig, MotivoCounter

__version__ = "1.1.0"

__all__ = [
    "MotivoConfig",
    "MotivoCounter",
    "PipelineEngine",
    "EnsembleResult",
    "ReproError",
    "GraphError",
    "GraphletError",
    "TreeletError",
    "MergeError",
    "ColorError",
    "TableError",
    "ArtifactError",
    "BuildError",
    "SamplingError",
    "ServeError",
    "__version__",
]
