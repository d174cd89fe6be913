"""AGS — adaptive graphlet sampling (paper §4).

The urn supports the paper's ``sample(T)`` for every free k-treelet
shape ``T`` (:meth:`~repro.colorcoding.urn.TreeletUrn.sample_shape_batch`).
AGS exploits it to "delete" already-covered graphlets: once a graphlet ``H_i``
has appeared in ``c̄`` samples, the algorithm switches to the treelet shape
``T_{j*}`` minimizing the probability that the next sample spans a covered
graphlet,

    j* = argmin_j (1/r_j) Σ_{i ∈ covered} σ_ij · c_i / w_i ,

where ``r_j`` counts the colorful copies of ``T_j``, ``σ_ij`` the spanning
trees of ``H_i`` isomorphic to ``T_j``, and ``c_i / w_i`` is the running
estimate of the colorful count of ``H_i`` with importance weights

    w_i = Σ_j n_j · σ_ij / r_j        (n_j = samples taken with shape T_j).

The pseudocode updates every ``w_i`` each step; tracking the per-shape
usage ``n_j`` instead is equivalent and lets σ tables be computed lazily —
only for graphlets actually observed — exactly the laziness motivo's disk
cache of σ_ij enables (§3.3).  The graphlets a chunk sees for the first
time get their tables from one batched build-up run
(:func:`~repro.graphlets.spanning.spanning_tree_shape_counts_batch`,
traced as ``ags.sigma``).

Chunked draws, per-sample switching.  The pseudocode re-picks the
shape after every sample; the loop here draws in chunks yet follows it
one sample at a time.  A chunk saves the generator state, draws its
copies with one
:meth:`~repro.colorcoding.urn.TreeletUrn.sample_shape_batch` call,
classifies them, and walks them in order: hits, the per-shape tallies
and the usage ``n_j`` advance sample by sample, and each covering event
re-picks the shape from the state right after its sample.  At the first
event that changes the shape the chunk is cut: the samples past it are
discarded (counted as ``ags_discarded_samples`` on the urn's
instrumentation), the generator is restored and exactly the kept rows
are re-drawn.  Every sample owns one row of the uniform stream, so the
stream then stands where a sample-at-a-time run leaves it, and the
output — estimates, usage, covered set, switches and the generator's
final state — depends on the seed alone.  Chunks are sized from the
current shape's tally: 1.25 times the expected number of samples until
the nearest uncovered graphlet it has seen reaches ``c̄``, clipped to
``[32, max(batch_size, DEFAULT_BATCH_SIZE)]``; ``batch_size`` only caps
the chunk.  (The estimator math is derived in ``docs/estimators.md``.)

This yields multiplicative (1±ε) guarantees for *all* graphlets at once
(Theorem 4) at O(k²) times the clairvoyant-optimal sample count
(Theorem 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log
from typing import Callable, Dict, List, Optional

from repro.colorcoding.urn import TreeletUrn
from repro.errors import SamplingError
from repro.graphlets.enumerate import graphlet_census
from repro.graphlets.spanning import (
    SigmaCache,
    spanning_tree_shape_counts_batch,
)
from repro.sampling.estimates import GraphletEstimates
from repro.sampling.naive import DEFAULT_BATCH_SIZE
from repro.sampling.occurrences import GraphletClassifier
from repro.telemetry.tracing import span as _trace_span
from repro.util.rng import RngLike, ensure_rng

__all__ = ["ags_estimate", "AGSResult", "covering_threshold"]

#: Chunk size for a shape that has drawn nothing yet: a probe whose
#: hits size the shape's next chunk.
_MIN_CHUNK = 32

#: Head-room over the nearest expected covering event, so a chunk
#: usually reaches that event instead of stopping just short of it.
_CHUNK_SLACK = 1.25


def covering_threshold(epsilon: float, delta: float, k: int) -> int:
    """The paper's c̄ = ⌈(4/ε²) ln(2s/δ)⌉ with s the k-graphlet census."""
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise SamplingError("epsilon and delta must lie in (0, 1)")
    s = graphlet_census(k)
    return int(ceil(4.0 / epsilon**2 * log(2.0 * s / delta)))


@dataclass
class AGSResult:
    """Estimates plus AGS-specific diagnostics."""

    estimates: GraphletEstimates
    #: free shape encoding → number of samples drawn with that shape.
    shape_usage: Dict[int, int] = field(default_factory=dict)
    #: canonical graphlet encodings that reached the covering threshold.
    covered: "set[int]" = field(default_factory=set)
    #: how many times the sampler switched treelet shapes.
    switches: int = 0


def ags_estimate(
    urn: TreeletUrn,
    classifier: GraphletClassifier,
    budget: int,
    cover_threshold: int = 300,
    rng: RngLike = None,
    sigma_cache: Optional[SigmaCache] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    draw_shape: Optional[Callable[[int, int, object], tuple]] = None,
) -> AGSResult:
    """Run AGS for ``budget`` samples and return weighted estimates.

    Parameters
    ----------
    urn, classifier:
        Sampling engine and classifier.
    budget:
        Total number of ``sample(T)`` calls.  The paper's pseudocode stops
        when *every* graphlet is covered; real graphs contain graphlets
        with zero copies, so (like motivo's implementation) we run a fixed
        sampling budget instead.
    cover_threshold:
        c̄ — hits after which a graphlet counts as covered and triggers a
        shape switch (paper experiments: 1000; scaled default 300).
    sigma_cache:
        Optional disk-backed σ_ij cache shared across runs.
    batch_size:
        Upper bound on the chunk size, at least 1, raised to
        :data:`~repro.sampling.naive.DEFAULT_BATCH_SIZE`; it never
        changes the result (see the module docstring).
    draw_shape:
        Optional chunk-draw hook replacing ``urn.sample_shape_batch(
        shape, size, rng)`` — the serving layer routes chunks through
        its request coalescer here.  A hook that consumes the generator
        exactly like ``sample_shape_batch`` (one ``rng.random((size,
        urn.draw_width))`` block) keeps the run bit-identical; a cut
        chunk restores ``rng``'s state and re-draws the kept rows.
    """
    if budget < 1:
        raise SamplingError("need a positive sampling budget")
    if cover_threshold < 1:
        raise SamplingError("cover threshold must be positive")
    if batch_size < 1:
        raise SamplingError(
            f"batch_size must be at least 1, got {batch_size}"
        )
    rng = ensure_rng(rng)
    registry = urn.registry
    k = urn.k

    shapes: List[int] = [
        shape for shape in registry.free_shapes if urn.shape_total(shape) > 0
    ]
    if not shapes:
        raise SamplingError("no treelet shape has colorful copies")
    shape_totals = {shape: urn.shape_total(shape) for shape in shapes}

    # Start from the shape with the most colorful occurrences (§4).
    current = max(shapes, key=lambda shape: shape_totals[shape])
    usage: Dict[int, int] = {shape: 0 for shape in shapes}
    hits: Dict[int, int] = {}
    # shape → graphlet → hits among the samples drawn with that shape
    tallies: Dict[int, Dict[int, int]] = {shape: {} for shape in shapes}
    sigma_tables: Dict[int, Dict[int, int]] = {}
    covered: "set[int]" = set()
    switches = 0
    cap = max(batch_size, DEFAULT_BATCH_SIZE)
    if draw_shape is None:
        draw_shape = urn.sample_shape_batch

    def weight_of(bits: int) -> float:
        """w_i = Σ_j n_j σ_ij / r_j for one observed graphlet."""
        sigma_row = sigma_tables[bits]
        return sum(
            usage[shape] * sigma_row.get(shape, 0) / shape_totals[shape]
            for shape in shapes
            if usage[shape]
        )

    def pick_next_shape() -> int:
        """argmin_j (1/r_j) Σ_{i ∈ covered} σ_ij ĉ_i (line 14)."""
        best_shape = current
        best_score = None
        for shape in shapes:
            score = 0.0
            for bits in covered:
                weight = weight_of(bits)
                if weight <= 0:
                    continue
                sigma_ij = sigma_tables[bits].get(shape, 0)
                if sigma_ij:
                    score += sigma_ij * hits[bits] / weight
            score /= shape_totals[shape]
            if best_score is None or score < best_score:
                best_score = score
                best_shape = shape
        return best_shape

    def chunk_size() -> int:
        """1.25 × the fewest samples of ``current`` expected to cover a
        graphlet it has hit: (c̄ − x_i) · n_j / h_ij, h_ij being the
        hits on ``H_i`` of the n_j samples drawn with it."""
        tally = tallies[current]
        if not tally:
            return _MIN_CHUNK
        nearest = min(
            (
                (cover_threshold - hits[bits]) / shape_hits
                for bits, shape_hits in tally.items()
                if bits not in covered
            ),
            default=None,
        )
        if nearest is None:
            return cap
        size = ceil(nearest * usage[current] * _CHUNK_SLACK)
        return min(max(size, _MIN_CHUNK), cap)

    drawn = 0
    while drawn < budget:
        size = min(chunk_size(), budget - drawn)
        saved = rng.bit_generator.state
        matrix, _treelets, _masks = draw_shape(current, size, rng)
        codes = classifier.classify_batch(matrix).tolist()
        unseen = sorted({bits for bits in codes if bits not in sigma_tables})
        if unseen:
            with _trace_span("ags.sigma", graphlets=len(unseen)):
                sigma_tables.update(spanning_tree_shape_counts_batch(
                    unseen, k, registry, cache=sigma_cache
                ))
        # Walk the chunk as the pseudocode walks samples; cut it at the
        # first covering event that switches shapes.
        tally = tallies[current]
        before = usage[current]
        kept = size
        next_shape = current
        for index, bits in enumerate(codes, 1):
            count = hits.get(bits, 0) + 1
            hits[bits] = count
            tally[bits] = tally.get(bits, 0) + 1
            if count < cover_threshold or bits in covered:
                continue
            covered.add(bits)
            usage[current] = before + index
            next_shape = pick_next_shape()
            if next_shape != current:
                kept = index
                break
        usage[current] = before + kept
        drawn += kept
        if kept < size:
            # Put the stream back where a sample-at-a-time run stands:
            # the kept samples consumed exactly their own rows.
            urn.instrumentation.count("ags_discarded_samples", size - kept)
            rng.bit_generator.state = saved
            rng.random((kept, urn.draw_width))
        if next_shape != current:
            switches += 1
            current = next_shape

    if sigma_cache is not None:
        sigma_cache.flush()

    colorful_p = urn.coloring.colorful_probability()
    counts: Dict[int, float] = {}
    for bits, hit_count in hits.items():
        weight = weight_of(bits)
        if weight <= 0:
            continue
        counts[bits] = (hit_count / weight) / colorful_p
    estimates = GraphletEstimates(
        k=k,
        counts=counts,
        samples=budget,
        hits=dict(hits),
        method="ags",
    )
    return AGSResult(
        estimates=estimates,
        shape_usage=dict(usage),
        covered=covered,
        switches=switches,
    )
