"""The fractional set cover behind AGS (paper §4.2 and Appendix C).

Theorem 6 analyses AGS against a clairvoyant adversary: allocate, for each
free treelet shape ``T_j``, a number ``x_j`` of ``sample(T_j)`` calls so
that every graphlet ``H_i`` appears at least ``c̄`` times in expectation,
minimizing the total number of calls.  With ``a_ji = g_i σ_ij / r_j`` (the
probability that one ``sample(T_j)`` spans ``H_i``) this is the covering
program

    min 1ᵀx   s.t.  Aᵀx ≥ c̄·1,  x ≥ 0    (integer in the paper)

Appendix C shows the natural greedy — repeatedly pick the shape with the
largest total *residual* coverage — is an O(ln s) approximation, and that
AGS is exactly this greedy run online.

This module implements all three solvers so Theorem 6 can be checked
numerically on real instances:

* :func:`coverage_matrix` — build A from exact counts and σ tables;
* :func:`lp_optimal_cover` — the fractional optimum via ``scipy``'s LP;
* :func:`greedy_cover` — Appendix C's offline greedy (AGS's idealization);
* :func:`expected_coverage` — audit any allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SamplingError

__all__ = [
    "CoverInstance",
    "coverage_matrix",
    "lp_optimal_cover",
    "greedy_cover",
    "expected_coverage",
]


@dataclass(frozen=True)
class CoverInstance:
    """One covering instance: shapes, graphlets, and the A matrix.

    ``matrix[j][i]`` is ``a_ji`` — the probability that a ``sample(T_j)``
    call spans graphlet ``H_i``.  Rows (shapes) with no colorful copies
    are excluded at construction.
    """

    shapes: Tuple[int, ...]
    graphlets: Tuple[int, ...]
    matrix: np.ndarray  # shape (num_shapes, num_graphlets)

    @property
    def num_shapes(self) -> int:
        return len(self.shapes)

    @property
    def num_graphlets(self) -> int:
        return len(self.graphlets)


def coverage_matrix(
    graphlet_counts: Mapping[int, float],
    sigma_tables: Mapping[int, Mapping[int, int]],
    shape_totals: Mapping[int, float],
) -> CoverInstance:
    """Build the covering matrix ``a_ji = g_i σ_ij / r_j``.

    Parameters
    ----------
    graphlet_counts:
        Colorful copy counts ``g_i`` per canonical graphlet encoding
        (exact or estimated).
    sigma_tables:
        Per graphlet, its spanning-tree shape table σ_ij
        (:func:`repro.graphlets.spanning.spanning_tree_shape_counts_batch`
        computes them all in one build-up run).
    shape_totals:
        Colorful copy counts ``r_j`` per free treelet shape (the urn's
        ``shape_total``).
    """
    shapes = tuple(
        sorted(s for s, total in shape_totals.items() if total > 0)
    )
    graphlets = tuple(sorted(b for b, g in graphlet_counts.items() if g > 0))
    if not shapes or not graphlets:
        raise SamplingError("covering instance is empty")
    matrix = np.zeros((len(shapes), len(graphlets)), dtype=np.float64)
    for col, bits in enumerate(graphlets):
        sigma_row = sigma_tables[bits]
        g_i = float(graphlet_counts[bits])
        for row, shape in enumerate(shapes):
            sigma_ij = sigma_row.get(shape, 0)
            if sigma_ij:
                matrix[row, col] = g_i * sigma_ij / float(shape_totals[shape])
    if np.any(matrix.sum(axis=0) <= 0):
        raise SamplingError(
            "some graphlet is spanned by no available shape — "
            "the covering program is infeasible"
        )
    return CoverInstance(shapes=shapes, graphlets=graphlets, matrix=matrix)


def lp_optimal_cover(
    instance: CoverInstance, cover_target: float
) -> Tuple[np.ndarray, float]:
    """Fractional optimum of the covering LP via ``scipy.optimize.linprog``.

    Returns ``(x, total)`` with ``x[j]`` the optimal (fractional) number
    of ``sample(T_j)`` calls.  This is the clairvoyant adversary of
    Theorem 6 — no online algorithm can beat it.
    """
    from scipy.optimize import linprog

    if cover_target <= 0:
        raise SamplingError("cover target must be positive")
    num_shapes = instance.num_shapes
    result = linprog(
        c=np.ones(num_shapes),
        A_ub=-instance.matrix.T,  # Aᵀx >= c̄  <=>  -Aᵀx <= -c̄
        b_ub=-np.full(instance.num_graphlets, cover_target),
        bounds=[(0, None)] * num_shapes,
        method="highs",
    )
    if not result.success:
        raise SamplingError(f"covering LP failed: {result.message}")
    return result.x, float(result.fun)


def greedy_cover(
    instance: CoverInstance, cover_target: float
) -> Tuple[np.ndarray, float]:
    """Appendix C's greedy: one unit at a time to the best residual shape.

    At each step allocate one ``sample(T_j*)`` to the shape ``j*``
    maximizing the total residual coverage ``Σ_{i ∈ U} a_ji`` (Equation
    11), update residuals, stop when every graphlet is covered.  This is
    exactly what AGS does online (it re-evaluates only when the uncovered
    set changes, which provably does not alter the choice).
    """
    if cover_target <= 0:
        raise SamplingError("cover target must be positive")
    matrix = instance.matrix
    residual = np.full(instance.num_graphlets, float(cover_target))
    allocation = np.zeros(instance.num_shapes, dtype=np.float64)
    uncovered = residual > 0

    while uncovered.any():
        scores = matrix[:, uncovered].sum(axis=1)
        best = int(np.argmax(scores))
        if scores[best] <= 0:
            raise SamplingError("greedy cover stalled: instance infeasible")
        # Batch the allocation: the choice of j* only changes when some
        # graphlet becomes covered, so jump straight to that event.
        rates = matrix[best, uncovered]
        with np.errstate(divide="ignore"):
            steps_to_cover = np.where(
                rates > 0, residual[uncovered] / rates, np.inf
            )
        jump = max(1.0, float(np.ceil(steps_to_cover.min())))
        allocation[best] += jump
        residual = np.maximum(0.0, residual - jump * matrix[best])
        uncovered = residual > 0
    return allocation, float(allocation.sum())


def expected_coverage(
    instance: CoverInstance, allocation: Sequence[float]
) -> np.ndarray:
    """Expected hits per graphlet under an allocation (``Aᵀx``)."""
    x = np.asarray(allocation, dtype=np.float64)
    if x.shape != (instance.num_shapes,):
        raise SamplingError(
            f"allocation must have {instance.num_shapes} entries"
        )
    return instance.matrix.T.dot(x)
