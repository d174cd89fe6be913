"""High-level facade: the ``motivo`` pipeline in one object.

:class:`MotivoCounter` wires the full paper pipeline together — color the
graph, run the build-up phase (one SpMM per source layer and level,
:mod:`repro.colorcoding.buildup`), wrap the table in an urn, sample (naive or AGS, both drawn in vectorized batches of
``batch_size``), convert to count estimates — behind a configuration
dataclass.  The table is built in memory by default; with
``memory_budget`` or ``num_shards`` set, the sharded build flushes
finished blocks to disk and memory-maps them back (§3.1/§3.3).  The
whole pipeline is walked module by module in ``docs/architecture.md``.

Multi-coloring averaging — how the paper both reduces variance and
produces its non-exact ground truths ("we averaged the counts given by
motivo over 20 runs") — is delegated to
:class:`~repro.engine.pipeline.PipelineEngine`, which runs the ensemble
serially or across a process pool with deterministic per-coloring seeds.

Persistence (build once, sample many): :meth:`MotivoCounter.save_artifact`
writes the finished table as a versioned on-disk artifact and
:meth:`MotivoCounter.from_artifact` reopens it — dense layers
memory-mapped, master RNG resumed from the recorded post-build state —
so warm counters sample bit-identically to freshly built ones.  Setting
:attr:`MotivoConfig.artifact_dir` routes :meth:`MotivoCounter.build`
through the content-addressed artifact cache automatically.

Quickstart::

    from repro import MotivoConfig, MotivoCounter
    from repro.graph import load_dataset

    counter = MotivoCounter(load_dataset("facebook"), MotivoConfig(k=5, seed=7))
    counter.build()
    estimates = counter.sample_naive(20_000)
    for bits, count in estimates.top(5):
        print(f"graphlet {bits:#x}: ~{count:.0f} induced copies")
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple, Union

import numpy as np

from repro.artifacts.table_artifact import advance_lineage
from repro.errors import ArtifactError, BuildError, SamplingError
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.urn import DEFAULT_DESCENT_CACHE_BYTES, TreeletUrn
from repro.graph.graph import Graph
from repro.graphlets.spanning import SigmaCache
from repro.sampling.ags import AGSResult, ags_estimate
from repro.sampling.estimates import GraphletEstimates
from repro.sampling.naive import DEFAULT_BATCH_SIZE, naive_estimate
from repro.sampling.occurrences import GraphletClassifier
from repro.table.count_table import LAYOUTS
from repro.table.layer_store import ShardedStore
from repro.telemetry import TelemetryConfig, build_tracer
from repro.telemetry.tracing import activate
from repro.treelets.registry import TreeletRegistry
from repro.util.instrument import Instrumentation
from repro.util.rng import ensure_rng, spawn_rng

if TYPE_CHECKING:
    from repro.artifacts.table_artifact import TableArtifact
    from repro.colorcoding.incremental import DeltaResult, Spare
    from repro.table.count_table import CountTable

__all__ = [
    "MotivoConfig", "MotivoCounter", "UpdateStep", "fresh_urn",
    "read_build_params", "update_step",
]

#: Everything :func:`repro.graph.graph.normalize_updates` accepts:
#: a normalized ``(N, 3)`` int array or ``(op, u, v)`` triples.
UpdateBatch = Union[np.ndarray, Iterable[Tuple[object, int, int]]]

#: MotivoConfig fields recorded in (and restored from) artifact manifests.
#: Fields older manifests record beyond these (``kernel``,
#: ``buffer_threshold``, ``buffer_size``) are ignored on reopen.
_BUILD_FIELDS = (
    "k", "seed", "zero_rooting", "biased_lambda", "batch_size",
    "table_layout", "descent_cache_bytes",
)


# repro: pool-transport
@dataclass
class MotivoConfig:
    """Configuration for one motivo pipeline.

    Attributes
    ----------
    k:
        Motif size (paper: 5–9; practical here: 4–7).
    seed:
        Master seed; coloring and sampling derive child streams from it.
    zero_rooting:
        §3.2 optimization on the size-k layer (default on, as in motivo).
    biased_lambda:
        When set, use the §3.4 biased coloring with this λ instead of the
        uniform coloring.
    sigma_cache_dir:
        When set, σ_ij tables are cached on disk (§3.3).
    batch_size:
        Cap on the samples per vectorized sampling chunk (naive chunks,
        AGS chunks); at least 1, or sampling raises
        :class:`~repro.errors.SamplingError`.  Neither estimator's
        result depends on it — AGS switches shapes right after the
        covering sample at any chunk size — so both raise it to
        ``DEFAULT_BATCH_SIZE``.
    table_layout:
        In-memory count-table layout: ``"dense"`` (the build-up's
        matrix form, the default) or ``"succinct"`` (the paper's CSR
        records — layers seal as they retire from the build frontier,
        shrinking resident memory to O(stored pairs)).  Both layouts
        produce bit-identical estimates for a fixed seed, so the choice
        is purely a memory/speed trade.
    descent_cache_bytes:
        Budget (in bytes) for the urn's cached gathered-cumulative rows
        — the per-key neighborhood prefix sums the fused descent kernel
        gathers once and reuses across batches.  Rows past the budget
        are rebuilt transiently per batch (correct, slower); the
        fallback is counted in the instrumentation.
    artifact_dir:
        When set (and ``seed`` is fixed), :meth:`MotivoCounter.build`
        goes through a content-addressed
        :class:`~repro.artifacts.cache.ArtifactCache` rooted there: a
        build matching the graph fingerprint and build parameters is
        reopened from disk (dense layers memory-mapped) instead of
        rebuilt, and fresh builds are saved for the next caller.
    artifact_codec:
        Count-blob codec for artifacts written through the cache:
        ``"dense"`` (memmap reopen, the default) or ``"succinct"``
        (delta/varint, smallest on disk).
    memory_budget:
        Hard byte budget for the build-up working set.  Setting it (or
        ``num_shards``) routes the build through the out-of-core sharded
        build (:func:`repro.colorcoding.sharded.build_table_sharded`):
        each level runs vertex-shard by vertex-shard, finished blocks go
        straight to disk, and any allocation that would overshoot the
        budget raises :class:`~repro.errors.MemoryBudgetError` instead
        of silently growing.  The table is bit-identical to the
        in-memory build.
    num_shards:
        Explicit shard count for the sharded build.  Defaults to the
        smallest count whose modeled working set fits ``memory_budget``
        (:func:`repro.colorcoding.sharded.plan_shards`); with no budget,
        the count is taken as-is and only peak tracking applies.
    shard_dir:
        Directory for the sharded build's on-disk blocks.  Defaults to a
        fresh temporary directory owned (and removed) by the counter;
        point it somewhere durable to keep the blocks around.  The
        finished dense layers are memory-mapped from here, so the
        counter must stay open while sampling.
    shard_jobs:
        Worker processes for the sharded build's per-level shard fan-out
        (results fold in shard order, so parallel builds stay
        byte-identical).
    telemetry:
        Optional :class:`~repro.telemetry.TelemetryConfig`.  When its
        ``trace_out`` is set, build/sample/update stages emit nested
        spans to that JSON-lines sink (``buildup``, ``artifact.open``,
        ``artifact.seal``, ``sample.naive``, ``sample.ags``,
        ``update``, plus the inner ``descent.wave`` / ``sample.gather``
        / ``sample.classify`` / ``sharded.*`` spans).  Telemetry never
        touches the RNG streams — estimates are bit-identical with it on
        or off — and it is deliberately **not** a build field, so it
        never changes an artifact-cache key.

    Edge updates (:meth:`MotivoCounter.update`) take no option: they
    always run the delta path of :func:`update_step`.
    """

    k: int = 5
    seed: Optional[int] = None
    zero_rooting: bool = True
    biased_lambda: Optional[float] = None
    sigma_cache_dir: Optional[str] = None
    batch_size: int = DEFAULT_BATCH_SIZE
    table_layout: str = "dense"
    descent_cache_bytes: int = DEFAULT_DESCENT_CACHE_BYTES
    artifact_dir: Optional[str] = None
    artifact_codec: str = "dense"
    memory_budget: Optional[int] = None
    num_shards: Optional[int] = None
    shard_dir: Optional[str] = None
    shard_jobs: int = 1
    telemetry: Optional[TelemetryConfig] = None

    def build_params(self) -> dict:
        """The table-relevant fields, as recorded in artifact manifests."""
        return {name: getattr(self, name) for name in _BUILD_FIELDS}


def read_build_params(build: object, k: int) -> MotivoConfig:
    """The config a manifest's ``build`` section records, validated.

    The one reader of that section for every surface that reopens an
    artifact (:meth:`MotivoCounter.from_artifact` and the serving
    layer), so both sample under the same parameters.  ``k`` is the
    manifest's top-level size, which is authoritative.  Fields missing
    from ``build`` take the :class:`MotivoConfig` defaults, and fields
    it no longer knows are ignored.  A recorded ``batch_size <= 1``
    (it once selected a per-sample draw loop) opens as 1, chunks of
    one.  Raises :class:`~repro.errors.ArtifactError` when ``build`` is
    not an object, ``batch_size`` or ``descent_cache_bytes`` is not an
    integer, ``seed`` is neither null nor a non-negative integer, or
    ``table_layout`` names no layout.
    """
    if not isinstance(build, dict):
        raise ArtifactError(
            "manifest build section must be an object, got "
            f"{type(build).__name__}"
        )
    known = {name: build[name] for name in _BUILD_FIELDS if name in build}
    for name in ("batch_size", "descent_cache_bytes"):
        value = known.get(name, 0)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ArtifactError(
                f"manifest build.{name} must be an integer, got {value!r}"
            )
    seed = known.get("seed")
    if seed is not None and (
        isinstance(seed, bool) or not isinstance(seed, int) or seed < 0
    ):
        raise ArtifactError(
            f"manifest build.seed must be a non-negative integer, got {seed!r}"
        )
    if known.get("table_layout", "dense") not in LAYOUTS:
        raise ArtifactError(
            f"manifest build.table_layout must be one of {LAYOUTS}, got "
            f"{known['table_layout']!r}"
        )
    if "batch_size" in known:
        known["batch_size"] = max(known["batch_size"], 1)
    known["k"] = k
    return MotivoConfig(**known)


def fresh_urn(
    graph: Graph,
    table: "CountTable",
    coloring: ColoringScheme,
    descent_cache_bytes: int,
    instrumentation: Instrumentation,
    registry: Optional[TreeletRegistry] = None,
    program=None,
) -> Optional[TreeletUrn]:
    """A new urn over ``table`` (adopting a plan-carrying artifact's
    ``program``), or ``None`` when the table holds no colorful
    k-treelets: the empty-urn state, which samples zero estimates."""
    try:
        return TreeletUrn(
            graph, table, coloring, registry=registry,
            instrumentation=instrumentation, program=program,
            descent_cache_bytes=descent_cache_bytes,
        )
    except SamplingError:
        return None


@dataclass
class UpdateStep:
    """The version an edge batch leads to (:func:`update_step`): the
    update stats, the :class:`~repro.colorcoding.incremental.DeltaResult`
    (updated graph and table, logged changes, hand-over hints) and the
    successor's urn (``None`` once empty) and classifier — the input
    ones for a batch that changes nothing."""

    stats: Dict[str, object]
    delta: "DeltaResult"
    urn: Optional[TreeletUrn]
    classifier: GraphletClassifier


def update_step(
    table: "CountTable",
    graph: Graph,
    coloring: ColoringScheme,
    urn: Optional[TreeletUrn],
    classifier: GraphletClassifier,
    updates: UpdateBatch,
    descent_cache_bytes: int,
    instrumentation: Instrumentation,
    urn_instrumentation: Optional[Instrumentation] = None,
    registry: Optional[TreeletRegistry] = None,
    in_place: bool = False,
    spares: "Optional[Dict[int, Spare]]" = None,
) -> UpdateStep:
    """Move one table version to its successor under an edge batch.

    The one update path of :meth:`MotivoCounter.update` (hence
    ``motivo-py update``) and ``POST /update``: it runs
    :func:`~repro.colorcoding.incremental.apply_edge_updates` (counted
    into ``instrumentation``; ``in_place`` and ``spares`` say which
    dense layers it may write), builds the successor urn —
    :meth:`TreeletUrn.successor`, or after an empty urn a
    :func:`fresh_urn` counted into ``urn_instrumentation`` (default
    ``instrumentation``) — and advances the classifier.  Stats keep
    ``mode``, always ``"incremental"``.  The inputs are not touched,
    and the gathered-store hand-over (:meth:`TreeletUrn.take_gathered`)
    is left to the caller: the service takes it under the old handle's
    draw lock once the batch is logged.
    """
    # Looked up at call time so wrappers installed on the module
    # (e2ebench/spans.py) see it.
    from repro.colorcoding.incremental import apply_edge_updates

    started = time.perf_counter()
    delta = apply_edge_updates(
        table, graph, updates, coloring, registry=registry,
        instrumentation=instrumentation, in_place=in_place, spares=spares,
    )
    stats: Dict[str, object] = {
        "mode": "incremental",
        **delta.stats(),
        "propagate_seconds": time.perf_counter() - started,
    }
    if delta.updates_applied == 0:
        return UpdateStep(stats, delta, urn, classifier)
    if urn is None:
        if urn_instrumentation is None:
            urn_instrumentation = instrumentation
        successor = fresh_urn(
            delta.graph, delta.table, coloring, descent_cache_bytes,
            urn_instrumentation, registry=registry,
        )
    else:
        try:
            successor = urn.successor(delta.graph, delta.table)
        except SamplingError:
            successor = None  # the batch emptied the urn
    return UpdateStep(
        stats, delta, successor, classifier.successor(delta.graph)
    )


class MotivoCounter:
    """The end-to-end pipeline: build once, sample many times."""

    def __init__(self, graph: Graph, config: Optional[MotivoConfig] = None):
        self.graph = graph
        self.config = config or MotivoConfig()
        if self.config.k < 2:
            raise BuildError("motif size k must be at least 2")
        self.registry = TreeletRegistry(self.config.k)
        self.instrumentation = Instrumentation()
        self.sigma_cache = SigmaCache(self.config.sigma_cache_dir)
        self._rng = ensure_rng(self.config.seed)
        self.coloring: Optional[ColoringScheme] = None
        self.urn: Optional[TreeletUrn] = None
        self.classifier: Optional[GraphletClassifier] = None
        #: The sharded build's on-disk store (``None`` for in-memory builds).
        self.store: Optional[ShardedStore] = None
        #: MemoryBudget tracker of the last sharded build (peak bytes).
        self.build_budget = None
        #: True once build() finished with an urn that holds no colorful
        #: k-treelets (unlucky coloring, or no connected k-subgraph at
        #: all).  Sampling then returns zero estimates flagged
        #: ``empty_urn`` instead of raising — the single-run counterpart
        #: of the ensemble engine's null members.
        self.empty_urn: bool = False
        self._built: bool = False
        self._table = None
        #: Provenance of a delta-maintained table (recorded into saved
        #: artifacts as the manifest's ``lineage`` section, and adopted
        #: back by :meth:`from_artifact`); ``None`` until the first
        #: :meth:`update`.
        self._lineage: Optional[dict] = None
        self._tracer = build_tracer(self.config.telemetry)

    @contextmanager
    def _stage(self, name: str, **attrs):
        """A traced pipeline stage (no-op unless tracing is configured).

        Activates this counter's tracer for the dynamic extent of the
        stage so the module-level spans in the kernels (``descent.wave``,
        ``sample.gather``, …) nest under it.
        """
        if self._tracer is None:
            yield
            return
        with activate(self._tracer), self._tracer.span(name, **attrs):
            yield

    # ------------------------------------------------------------------
    # Build-up phase
    # ------------------------------------------------------------------

    def build(self) -> Optional[TreeletUrn]:
        """Color the graph and run the build-up phase; returns the urn.

        A build whose table holds no colorful k-treelets (unlucky
        coloring, or no connected k-subgraph) returns ``None`` and sets
        :attr:`empty_urn` — sampling then yields zero estimates flagged
        ``empty_urn`` rather than raising, matching the ensemble
        engine's null-member semantics.

        With :attr:`MotivoConfig.artifact_dir` set (and a fixed seed),
        the build goes through the artifact cache: a matching persisted
        table is reopened — memory-mapped, no rebuild — and a fresh
        build is saved back for later callers.  Either way the counter
        ends up in the same state, master RNG stream included, so
        estimates are bit-identical whether the table came warm from
        disk or was just built.
        """
        config = self.config
        if config.artifact_dir is not None and config.seed is not None:
            return self._build_cached()
        return self._build_fresh()

    def _build_fresh(self) -> Optional[TreeletUrn]:
        with self._stage("buildup", k=self.config.k):
            return self._build_fresh_inner()

    def _build_fresh_inner(self) -> Optional[TreeletUrn]:
        config = self.config
        n = self.graph.num_vertices
        if config.biased_lambda is None:
            self.coloring = ColoringScheme.uniform(n, config.k, self._rng)
        else:
            self.coloring = ColoringScheme.biased(
                n, config.k, config.biased_lambda, self._rng
            )
        if config.memory_budget is not None or config.num_shards is not None:
            table = self._build_sharded()
        else:
            table = build_table(
                self.graph,
                self.coloring,
                registry=self.registry,
                zero_rooting=config.zero_rooting,
                instrumentation=self.instrumentation,
                layout=config.table_layout,
            )
        self._finish_build(table)
        return self.urn

    def _build_sharded(self):
        """Run the out-of-core sharded build (see ``memory_budget``)."""
        import tempfile

        from repro.colorcoding.sharded import (
            MemoryBudget,
            build_table_sharded,
            plan_shards,
        )

        config = self.config
        if config.num_shards is not None:
            if config.num_shards < 1:
                raise BuildError("num_shards must be at least 1")
            num_shards = config.num_shards
        else:
            num_shards = plan_shards(
                self.graph, self.registry, config.memory_budget
            )
        if config.shard_dir is None:
            # mkdtemp pre-creates the directory, so auto-detection would
            # treat it as borrowed; the counter owns it.
            directory = tempfile.mkdtemp(prefix="motivo-shards-")
            store = ShardedStore(num_shards, directory, owns_directory=True)
        else:
            store = ShardedStore(num_shards, config.shard_dir)
        self.store = store
        self.build_budget = MemoryBudget(config.memory_budget)
        return build_table_sharded(
            self.graph,
            self.coloring,
            registry=self.registry,
            zero_rooting=config.zero_rooting,
            store=store,
            instrumentation=self.instrumentation,
            layout=config.table_layout,
            memory_budget=self.build_budget,
            jobs=config.shard_jobs,
            seed=config.seed,
        )

    def _build_cached(self) -> Optional[TreeletUrn]:
        """Build through the content-addressed artifact cache."""
        from repro.artifacts import ArtifactCache, open_table

        config = self.config
        cache = ArtifactCache(
            config.artifact_dir, registry=self.instrumentation.registry
        )
        key = cache.key(self.graph, config, config.artifact_codec)
        slot = cache.lookup(self.graph, config, config.artifact_codec)
        if slot is not None:
            try:
                artifact = open_table(
                    slot, self.graph, layout=config.table_layout
                )
                if artifact.graph.fingerprint() != self.graph.fingerprint():
                    raise ArtifactError("slot holds an updated table")
            except ArtifactError:
                # A stale slot (version skew after an upgrade, truncated
                # blobs, a table updated past this graph) is a miss, not
                # a failure: evict and rebuild.
                cache.evict(key)
            else:
                self.instrumentation.count("artifact_cache_hits")
                self._adopt_artifact(artifact)
                return self.urn
        self.instrumentation.count("artifact_cache_misses")
        self._build_fresh()
        if self.urn is None:
            # Empty-urn builds are not persistable (and not worth
            # caching); the counter still answers with zero estimates.
            return None
        tmp = cache.tmp_path(key)
        self.save_artifact(tmp, codec=config.artifact_codec)
        try:
            cache.admit(tmp, key)
        except OSError:
            # A concurrent evict/clear can sweep our in-flight tmp dir;
            # losing the cache write must not fail a successful build.
            self.instrumentation.count("artifact_cache_admit_lost")
        return self.urn

    def _finish_build(self, table, program=None) -> None:
        """Wrap a finished table in the sampling-phase machinery.

        ``program`` is an optional precompiled
        :class:`~repro.colorcoding.descent.DescentProgram` (from a
        plan-carrying artifact) adopted by the urn so warm opens skip
        plan compilation entirely.

        An urn with no colorful k-treelets is *not* an error at this
        level: the counter records ``empty_urn`` and later sampling
        calls return zero estimates (a served request degrades to
        "0 occurrences" instead of a 500) — the same semantics the
        ensemble engine has always given empty-urn members.
        """
        self._table = table
        self._set_urn(fresh_urn(
            self.graph, table, self.coloring,
            self.config.descent_cache_bytes, self.instrumentation,
            registry=self.registry, program=program,
        ))
        self.classifier = GraphletClassifier(self.graph, self.config.k)
        self._built = True

    def _set_urn(self, urn: Optional[TreeletUrn]) -> None:
        """Adopt ``urn``; ``None`` is the empty-urn state."""
        self.urn = urn
        self.empty_urn = urn is None
        if urn is None:
            self.instrumentation.count("empty_urn_builds")

    def _require_built(self) -> Optional[TreeletUrn]:
        if not self._built or self.classifier is None:
            raise SamplingError("call build() before sampling")
        return self.urn

    def _empty_estimates(
        self, num_samples: int, method: str
    ) -> GraphletEstimates:
        """The degenerate zero-estimate answer of an empty-urn build."""
        return GraphletEstimates.empty(self.config.k, num_samples, method)

    # ------------------------------------------------------------------
    # Incremental maintenance: evolving graphs without rebuilds
    # ------------------------------------------------------------------

    @property
    def table(self) -> "Optional[CountTable]":
        """The current count table (``None`` before :meth:`build`).

        Kept even for empty-urn builds, so :meth:`update` can revive a
        counter whose graph lost its last colorful k-treelet.
        """
        return self._table

    def update(self, updates: UpdateBatch) -> Dict[str, object]:
        """Apply a batch of edge insertions/deletions to the built table.

        The graph and table advance together through :func:`update_step`
        — the update path ``POST /update`` takes too — with this
        counter's dense layers patched in place: sparse deltas propagate
        through each level instead of rebuilding, and the result is
        **bit-identical** to a fresh build on the updated graph under
        the same coloring.  The coloring itself never changes (pure edge
        updates, fixed vertex count), and the master RNG stream is
        untouched, so post-update estimates equal those of a counter
        freshly built on the updated graph with this seed, bit for bit.
        The new urn then takes over the old one's gathered store
        (:meth:`TreeletUrn.take_gathered`).

        ``updates`` is a batch of ``(op, u, v)`` triples (``op`` one of
        ``+1``/``-1`` or the string spellings accepted by
        :func:`repro.graph.graph.normalize_updates`); within a batch the
        last operation on an edge wins, and no-op entries (inserting a
        present edge, deleting an absent one) are skipped.  A batch that
        deletes the graph's last colorful k-treelets degrades to the
        usual ``empty_urn`` state — sampling then returns flagged zero
        estimates, and a later insertion batch revives the urn.  The
        counter persists nothing; ``motivo-py update`` appends the batch
        to the artifact's edge log (:func:`repro.artifacts.append_edge_log`).

        Returns the stats of :func:`update_step`: ``mode``,
        ``updates_applied``, ``edges_added``, ``edges_removed``,
        ``rows_touched``, ``touched_vertices``, ``delta_entries``,
        ``delta_rebuilds`` (see
        :class:`~repro.colorcoding.incremental.DeltaResult`) and
        ``propagate_seconds``, plus ``changes``: the batch's effective
        edge changes as ``(±1, u, v)`` rows
        (:func:`repro.graph.graph.change_rows`), resolved once — what
        an artifact's edge log appends.
        """
        if (
            not self._built or self.coloring is None
            or self._table is None or self.classifier is None
        ):
            raise BuildError("call build() before update()")
        with self._stage("update", k=self.config.k):
            step = update_step(
                self._table, self.graph, self.coloring, self.urn,
                self.classifier, updates, self.config.descent_cache_bytes,
                self.instrumentation, registry=self.registry, in_place=True,
            )
            delta = step.delta
            stats = dict(step.stats, changes=delta.changes)
            if delta.updates_applied == 0:
                return stats
            if step.urn is not None and self.urn is not None:
                step.urn.take_gathered(
                    self.urn, delta.dirty_radii, delta.support
                )
            self._lineage = advance_lineage(
                self._lineage, self.graph.fingerprint(), delta.updates_applied
            )
            self.graph, self._table = delta.graph, delta.table
            self._set_urn(step.urn)
            self.classifier = step.classifier
        return stats

    # ------------------------------------------------------------------
    # Persistence: build once, sample many
    # ------------------------------------------------------------------

    def save_artifact(
        self,
        directory: str,
        codec: str = "dense",
        source: Optional[str] = None,
    ) -> "TableArtifact":
        """Persist the built table as a reusable on-disk artifact.

        Records the build parameters, the coloring, per-layer blobs in
        the chosen codec, the build instrumentation, the compiled
        descent program (so reopened counters sample without ever
        recompiling the plan), and — crucially — the *post-build state
        of the master RNG stream*, so a counter restored with
        :meth:`from_artifact` samples bit-identically to this one.
        Returns the
        :class:`~repro.artifacts.table_artifact.TableArtifact`.  An
        empty-urn build has nothing worth persisting and raises
        :class:`~repro.errors.SamplingError` (the ensemble engine
        records such members as null instead).
        """
        urn = self._require_built()
        if urn is None:
            raise SamplingError(
                "cannot persist an empty-urn build as a table artifact"
            )
        from repro.artifacts import save_table

        with self._stage("artifact.seal", codec=codec):
            return save_table(
                directory,
                urn.table,
                self.coloring,
                self.graph,
                codec=codec,
                build=self.config.build_params(),
                rng_state=self._rng.bit_generator.state,
                instrumentation=self.instrumentation,
                source=source,
                descent_program=urn.descent_program(),
                lineage=self._lineage,
            )

    @classmethod
    def from_artifact(
        cls,
        graph: Graph,
        directory: str,
        config: Optional[MotivoConfig] = None,
        mmap: bool = True,
        verify: bool = False,
        reseed: "Optional[int]" = None,
        table_layout: "Optional[str]" = None,
    ) -> "MotivoCounter":
        """Reopen a saved table artifact as a ready-to-sample counter.

        The expensive build-up phase is skipped entirely: dense count
        blobs are memory-mapped (``mmap=True``), succinct blobs open
        straight into CSR records, the stored coloring and build
        parameters are adopted, and the master RNG resumes from the
        recorded post-build state — so for a fixed seed the returned
        counter's estimates are bit-identical to a one-shot
        build-and-sample run (whatever the layout: the layouts answer
        every table operation identically).  ``config`` overrides the
        sampling-side parameters (its ``k``/``seed`` must agree with the
        artifact); ``reseed`` discards the stored stream and starts a
        fresh one; ``table_layout`` forces the in-memory layout, beating
        both ``config`` and the layout recorded at build time (which
        otherwise win, in that order — ``open_table`` falls back to the
        codec's native layout for artifacts predating the field).

        ``graph`` may be the graph the artifact's blobs count or the
        head its edge log leads to; the counter counts the head graph
        (:func:`repro.artifacts.open_table` replays the log).
        """
        from repro.artifacts import open_table

        if table_layout is None and config is not None:
            table_layout = config.table_layout
        artifact = open_table(
            directory, graph, mmap=mmap, verify=verify, layout=table_layout
        )
        recorded = read_build_params(
            artifact.manifest.get("build", {}), artifact.k
        )
        if config is None:
            config = recorded
        else:
            if config.k != artifact.k:
                raise ArtifactError(
                    f"artifact holds a k={artifact.k} table, config wants "
                    f"k={config.k}"
                )
            if (
                config.seed is not None
                and recorded.seed is not None
                and config.seed != recorded.seed
            ):
                raise ArtifactError(
                    f"artifact was built under seed {recorded.seed}, config "
                    f"wants {config.seed}"
                )
        counter = cls(artifact.graph, config)
        return counter._adopt_artifact(artifact, reseed=reseed)

    def _adopt_artifact(
        self, artifact, reseed: "Optional[int]" = None
    ) -> "MotivoCounter":
        """Take over a loaded artifact's table, coloring, and RNG stream."""
        with self._stage("artifact.open", k=self.config.k):
            return self._adopt_artifact_inner(artifact, reseed=reseed)

    def _adopt_artifact_inner(
        self, artifact, reseed: "Optional[int]" = None
    ) -> "MotivoCounter":
        self.coloring = artifact.coloring
        if reseed is not None:
            self._rng = ensure_rng(reseed)
        elif artifact.rng_state is not None:
            state = artifact.rng_state
            generator_cls = getattr(
                np.random, str(state.get("bit_generator", "")), None
            )
            if not (
                isinstance(generator_cls, type)
                and issubclass(generator_cls, np.random.BitGenerator)
            ):
                raise ArtifactError(
                    "artifact records an unknown bit generator "
                    f"{state.get('bit_generator')!r}"
                )
            try:
                generator = np.random.Generator(generator_cls())
                generator.bit_generator.state = state
            except (TypeError, ValueError, KeyError) as error:
                raise ArtifactError(
                    f"artifact records an unusable RNG state: {error}"
                ) from None
            self._rng = generator
        self.instrumentation.merge(
            Instrumentation.from_snapshot(
                artifact.manifest.get("instrumentation", {})
            )
        )
        lineage = artifact.manifest.get("lineage")
        self._lineage = dict(lineage) if lineage else None
        self._finish_build(
            artifact.table, program=getattr(artifact, "descent_program", None)
        )
        return self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def configure_telemetry(
        self, telemetry: Optional[TelemetryConfig]
    ) -> None:
        """Adopt a telemetry config after construction.

        Counters reopened via :meth:`from_artifact` derive their config
        from the artifact manifest, which never records telemetry (it is
        not a build field); this re-points the tracer without touching
        anything that affects estimates.
        """
        self.config.telemetry = telemetry
        if self._tracer is not None:
            self._tracer.close()
        self._tracer = build_tracer(telemetry)

    def close(self) -> None:
        """Release the sharded build's shard files and the tracer.

        After closing, dense layers the sharded build memory-mapped from
        its shard directory are gone — sampling must not continue.
        In-memory builds are unaffected.  Idempotent.
        """
        if self.store is not None:
            self.store.close()
        if self._tracer is not None:
            self._tracer.close()

    def __enter__(self) -> "MotivoCounter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Sampling phase
    # ------------------------------------------------------------------

    def sample_naive(self, num_samples: int) -> GraphletEstimates:
        """CC-style naive sampling estimates (§2.2), drawn in batches.

        On an empty-urn build this returns zero estimates flagged
        ``empty_urn`` instead of raising (see :meth:`build`).
        """
        urn = self._require_built()
        if urn is None:
            return self._empty_estimates(num_samples, "naive")
        with self._stage("sample.naive", samples=num_samples):
            return naive_estimate(
                urn, self.classifier, num_samples, self._rng,
                batch_size=self.config.batch_size,
            )

    def sample_ags(
        self, budget: int, cover_threshold: int = 300
    ) -> AGSResult:
        """Adaptive graphlet sampling estimates (§4), chunked draws.

        On an empty-urn build this returns zero estimates flagged
        ``empty_urn`` instead of raising (see :meth:`build`).
        """
        urn = self._require_built()
        if urn is None:
            return AGSResult(estimates=self._empty_estimates(budget, "ags"))
        with self._stage("sample.ags", budget=budget):
            return ags_estimate(
                urn,
                self.classifier,
                budget,
                cover_threshold=cover_threshold,
                rng=self._rng,
                sigma_cache=self.sigma_cache,
                batch_size=self.config.batch_size,
            )

    # ------------------------------------------------------------------
    # Multi-run averaging (paper §5 "Ground truth" and error bounds)
    # ------------------------------------------------------------------

    def averaged_naive(
        self, runs: int, samples_per_run: int, jobs: int = 1
    ) -> GraphletEstimates:
        """Average naive estimates over ``runs`` independent colorings.

        Theorems 2–3: averaging over γ colorings shrinks the deviation
        probabilities exponentially in γ.  This is also how the paper
        builds reference counts where exact counting is infeasible.

        Runs through :class:`~repro.engine.pipeline.PipelineEngine`;
        ``jobs > 1`` fans the colorings out over a process pool without
        changing the result (a run whose coloring leaves the urn empty
        contributes 0 to every graphlet, keeping the estimator unbiased).
        """
        if runs < 1:
            raise SamplingError("need at least one run")
        from repro.engine import PipelineEngine

        # Seeds derive from this counter's stream (not the master seed
        # directly) so repeated calls see fresh independent colorings.
        seeds = [
            int(stream.integers(2**63 - 1))
            for stream in spawn_rng(self._rng, runs)
        ]
        engine = PipelineEngine(
            self.graph, self.config, colorings=runs, jobs=jobs
        )
        result = engine.run_naive(samples_per_run, seeds=seeds)
        self.instrumentation.merge(result.instrumentation)
        return result.estimates
