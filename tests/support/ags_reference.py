"""The AGS oracle: §4's pseudocode, one ``sample(T)`` call per sample.

:func:`ags_reference` draws each sample with its own
``urn.sample_shape_batch(shape, 1, rng)`` call and re-checks coverage
after every one, exactly as the pseudocode does.  The chunked
:func:`repro.sampling.ags.ags_estimate` must return the same estimates,
shape usage, covered set and switch count, and leave the generator in
the same state, whatever its ``batch_size``.
"""

from __future__ import annotations

from typing import Dict

from repro.graphlets.spanning import spanning_tree_shape_counts
from repro.sampling.ags import AGSResult
from repro.sampling.estimates import GraphletEstimates
from repro.util.rng import ensure_rng

__all__ = ["ags_reference", "assert_same_run"]


def ags_reference(urn, classifier, budget, cover_threshold=300, rng=None):
    """AGS for ``budget`` samples, switching after the covering sample."""
    rng = ensure_rng(rng)
    k = urn.k
    shapes = [s for s in urn.registry.free_shapes if urn.shape_total(s) > 0]
    totals = {shape: urn.shape_total(shape) for shape in shapes}
    current = max(shapes, key=lambda shape: totals[shape])
    usage = {shape: 0 for shape in shapes}
    hits: Dict[int, int] = {}
    sigma: Dict[int, Dict[int, int]] = {}
    covered: "set[int]" = set()
    switches = 0

    def weight(bits):
        return sum(
            usage[shape] * sigma[bits].get(shape, 0) / totals[shape]
            for shape in shapes
            if usage[shape]
        )

    for _ in range(budget):
        usage[current] += 1
        vertices, _treelets, _masks = urn.sample_shape_batch(current, 1, rng)
        bits = int(classifier.classify_batch(vertices)[0])
        if bits not in sigma:
            sigma[bits] = spanning_tree_shape_counts(bits, k, urn.registry)
        hits[bits] = hits.get(bits, 0) + 1
        if hits[bits] < cover_threshold or bits in covered:
            continue
        covered.add(bits)
        best, best_score = current, None
        for shape in shapes:
            score = 0.0
            for graphlet in covered:
                w = weight(graphlet)
                if w > 0 and sigma[graphlet].get(shape, 0):
                    score += sigma[graphlet][shape] * hits[graphlet] / w
            score /= totals[shape]
            if best_score is None or score < best_score:
                best, best_score = shape, score
        if best != current:
            switches += 1
            current = best

    p_k = urn.coloring.colorful_probability()
    counts = {
        bits: (count / weight(bits)) / p_k
        for bits, count in hits.items()
        if weight(bits) > 0
    }
    estimates = GraphletEstimates(
        k=k, counts=counts, samples=budget, hits=dict(hits), method="ags"
    )
    return AGSResult(
        estimates=estimates,
        shape_usage=dict(usage),
        covered=covered,
        switches=switches,
    )


def assert_same_run(result, reference) -> None:
    """Two AGS runs agree on everything they report."""
    assert result.estimates.counts == reference.estimates.counts
    assert result.estimates.hits == reference.estimates.hits
    assert result.shape_usage == reference.shape_usage
    assert result.covered == reference.covered
    assert result.switches == reference.switches
