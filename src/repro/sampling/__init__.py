"""The sampling phase: estimators over the treelet urn (§2.2, §4, §5).

``occurrences``
    Turns sampled treelet copies (vertex sets) into induced canonical
    graphlets — the sampling phase's inner loop, one at a time
    (``classify``) or as one packed-edge-key sweep per batch
    (``classify_batch``).
``naive``
    CC's standard sampling: uniform treelet draws, indicator estimators,
    the 1/s additive-error regime — chunked through the batched engine.
``ags``
    Adaptive graphlet sampling: the online greedy fractional-set-cover
    strategy that switches treelet shapes as graphlets get covered,
    yielding multiplicative guarantees for rare graphlets; draws run in
    chunks sized by the next expected covering event and cut at the
    sample that switches shapes.
``estimates``
    The result container plus the paper's error metrics: per-graphlet
    count error err_H (Equation 4), ℓ1 distance of the graphlet frequency
    distribution, and the ±50% accuracy census of Figure 9.

The estimator formulas implemented here are derived step by step in
``docs/estimators.md``; the engine they run on is documented in
``docs/architecture.md``.

Exports
-------
:class:`GraphletClassifier`
    Vertex sets → canonical graphlet encodings (scalar + batched).
:func:`naive_estimate`
    §2.2 uniform-draw estimator; returns :class:`GraphletEstimates`.
:func:`ags_estimate` / :class:`AGSResult`
    §4 adaptive estimator and its diagnostics bundle (shape usage,
    covered set, switch count).
:class:`GraphletEstimates`
    Per-graphlet count estimates with hits/frequencies/serialization.
:func:`accuracy_census`
    Figure 9 metric: graphlets within ±50% of ground truth.
:func:`count_errors`
    Equation 4 per-graphlet relative errors against a truth table.
:func:`l1_error`
    ℓ1 distance between estimated and true frequency distributions.
:data:`DEFAULT_BATCH_SIZE`
    Default chunk size of the batched sampling loops.
"""

from repro.sampling.occurrences import GraphletClassifier
from repro.sampling.naive import DEFAULT_BATCH_SIZE, naive_estimate
from repro.sampling.ags import AGSResult, ags_estimate
from repro.sampling.estimates import (
    GraphletEstimates,
    accuracy_census,
    count_errors,
    l1_error,
)

__all__ = [
    "GraphletClassifier",
    "naive_estimate",
    "AGSResult",
    "ags_estimate",
    "GraphletEstimates",
    "accuracy_census",
    "count_errors",
    "l1_error",
    "DEFAULT_BATCH_SIZE",
]
