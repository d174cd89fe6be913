"""Vose's alias method for O(1) sampling from a discrete distribution.

The paper (§3.3, "Alias method sampling") uses the alias method [Vose 1991]
to draw the root vertex of a treelet sample in constant time, after building
a lookup table linear in the support of the distribution.  This module
builds exactly the table of Vose's two-worklist loop, as a handful of NumPy
passes instead of a Python loop over the support.

The loop as a fold.  Scale the weights to mean 1 and split them into
*smalls* (``< 1``) and *larges* (``>= 1``), each popped in descending index
order.  Every step pairs the next small with the current large ``hi`` and
sets ``scaled[hi] = (scaled[hi] + scaled[lo]) - 1``.  While ``hi`` stays
``>= 1`` it takes the next small; once it drops below 1 it *becomes* the
next small and the next large takes it in.  So the loop is one left fold
``r ← (r + x) − 1`` over a merge of the two sequences, and in exact
arithmetic that merge is decided by comparing cumulative small deficits
``Σ (1 − s)`` against cumulative large excesses ``Σ (l − 1)`` — one
``searchsorted``.

:func:`vose_tables` takes that merge as a candidate, lays the fold out as
``[scaled[first large], x₁, −1, x₂, −1, …]`` and runs one ``np.cumsum``
over it.  ``np.cumsum`` is a strict left fold and IEEE addition commutes,
so its partial sums are exactly the loop's residuals, rounding included.
Every ``< 1`` branch of the loop is then checked against those residuals:
where they all agree the table is the loop's, byte for byte.  A near-tie
that flips a branch makes the table finish with the loop
(:func:`vose_loop`) from the last agreeing state, so the result is the
loop's table either way; :attr:`AliasSampler.fell_back` records that it
happened.  :func:`loop_tables` runs the loop from scratch — the oracle the
tests compare against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SamplingError
from repro.util.rng import ensure_rng

__all__ = ["AliasSampler", "loop_tables", "vose_loop", "vose_tables"]

ArrayLike = Union[Sequence[float], np.ndarray]


def vose_loop(
    scaled: np.ndarray,
    prob: np.ndarray,
    alias: np.ndarray,
    small: List[int],
    large: List[int],
) -> None:
    """Vose's two-worklist loop, from any state, filling ``prob``/``alias``.

    ``scaled`` holds the current residuals (mutated); ``small`` and
    ``large`` are the worklists, popped from the end.
    """
    while small and large:
        lo = small.pop()
        hi = large.pop()
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        if scaled[hi] < 1.0:
            small.append(hi)
        else:
            large.append(hi)
    # Numerical leftovers: both lists drain to probability one.
    for i in large:
        prob[i] = 1.0
        alias[i] = i
    for i in small:
        prob[i] = 1.0
        alias[i] = i


def loop_tables(scaled: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(prob, alias)`` of Vose's loop run from scratch (the oracle)."""
    n = scaled.size
    prob = np.empty(n, dtype=np.float64)
    alias = np.zeros(n, dtype=np.int64)
    is_small = scaled < 1.0
    vose_loop(
        scaled.copy(), prob, alias,
        np.flatnonzero(is_small).tolist(), np.flatnonzero(~is_small).tolist(),
    )
    return prob, alias


def vose_tables(scaled: np.ndarray) -> Tuple[np.ndarray, np.ndarray, bool]:
    """``(prob, alias, fell_back)``: the loop's table, built as a fold.

    ``scaled`` are the weights scaled to mean 1.  ``fell_back`` says a
    branch of the loop disagreed with the candidate merge, so the table
    was finished by :func:`vose_loop`.
    """
    n = scaled.size
    prob = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    is_small = scaled < 1.0
    small_asc = np.flatnonzero(is_small)
    large_asc = np.flatnonzero(~is_small)
    p, q = small_asc.size, large_asc.size
    if p == 0 or q == 0:
        return prob, alias, False  # the loop never runs
    smalls = small_asc[::-1]  # pop order S_1..S_p
    larges = large_asc[::-1]  # pop order L_1..L_q
    s = scaled[smalls]
    l = scaled[larges]

    # Candidate merge.  Small a is taken by large j(a), the first one
    # whose cumulative excess reaches the deficit of smalls 1..a-1.
    deficits = np.cumsum(1.0 - s)
    excesses = np.cumsum(l - 1.0)
    before = np.concatenate(([0.0], deficits[:-1]))
    taker = np.searchsorted(excesses, before, side="left")  # 0-based j(a)
    taken = int(np.searchsorted(taker, q, side="left"))  # smalls consumed
    last = min(
        q - 1,
        int(np.searchsorted(excesses, deficits[taken - 1], side="left")),
    )
    # Token t consumes small a (at slot a + taker[a]) or large j >= 1
    # (after the smalls taken by larges < j).
    tokens = taken + last
    small_slot = np.arange(taken) + taker[:taken]
    large_slot = (
        np.searchsorted(taker[:taken], np.arange(1, last + 1), side="left")
        + np.arange(last)
    )
    is_large = np.zeros(tokens, dtype=bool)
    is_large[large_slot] = True
    fold = np.empty(1 + 2 * tokens, dtype=np.float64)
    fold[0] = l[0]
    fold[1 + 2 * small_slot] = s[:taken]
    fold[1 + 2 * large_slot] = l[1:last + 1]
    fold[2::2] = -1.0
    residual = np.cumsum(fold)[0::2]  # residual[t]: state before token t

    # The loop takes a large next exactly when the residual is below 1,
    # and stops when the worklist it would pop from is empty.  What it
    # leaves in either list gets probability 1, as initialized.
    agree = (residual[:-1] < 1.0) == is_large
    stop = tokens if agree.all() else int(np.argmin(agree))
    below = residual[-1] < 1.0
    finished = stop == tokens and (last == q - 1 if below else taken == p)

    # Tokens before ``stop`` are the loop's own steps.
    done_small = int(np.searchsorted(small_slot, stop, side="left"))
    done_large = int(np.searchsorted(large_slot, stop, side="left"))
    prob[smalls[:done_small]] = s[:done_small]
    alias[smalls[:done_small]] = larges[taker[:done_small]]
    prob[larges[:done_large]] = residual[large_slot[:done_large]]
    alias[larges[:done_large]] = larges[1:done_large + 1]
    if finished:
        return prob, alias, False

    current = int(larges[done_large])
    r = float(residual[stop])
    state = scaled.copy()
    state[current] = r
    small = small_asc[:p - done_small].tolist()
    large = large_asc[:q - done_large - 1].tolist()
    (small if r < 1.0 else large).append(current)
    vose_loop(state, prob, alias, small, large)
    return prob, alias, True


class AliasSampler:
    """O(1) sampler over ``{0, ..., n-1}`` with given non-negative weights.

    Parameters
    ----------
    weights:
        Non-negative weights; they need not be normalized.  At least one
        weight must be positive.

    Notes
    -----
    Construction builds the table of Vose's two-worklist algorithm in a
    few vectorized passes (:func:`vose_tables`; its binary searches make
    it O(n log n)); each draw costs one uniform variate, one table
    lookup and one comparison, exactly as the original machinery the
    paper relies on for root sampling.
    """

    __slots__ = ("_prob", "_alias", "_n", "_total", "fell_back")

    def __init__(self, weights: ArrayLike):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1:
            raise SamplingError("alias weights must be one-dimensional")
        if w.size == 0:
            raise SamplingError("cannot build an alias table over nothing")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise SamplingError("alias weights must be finite and >= 0")
        total = float(w.sum())
        if total <= 0.0:
            raise SamplingError("alias weights must not all be zero")

        n = w.size
        prob, alias, fell_back = vose_tables(w * (n / total))
        self._prob = prob
        self._alias = alias
        self._n = n
        self._total = total
        #: Whether a near-tie made the table finish with Vose's loop.
        self.fell_back = fell_back

    @property
    def size(self) -> int:
        """Size of the support."""
        return self._n

    @property
    def total_weight(self) -> float:
        """Sum of the weights the table was built from."""
        return self._total

    def sample(self, rng: Optional[np.random.Generator] = None) -> int:
        """Draw one index with probability proportional to its weight."""
        rng = ensure_rng(rng)
        column = int(rng.integers(self._n))
        if rng.random() < self._prob[column]:
            return column
        return int(self._alias[column])

    def sample_many(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Draw ``count`` independent indices as a NumPy array."""
        if count < 0:
            raise SamplingError("sample count cannot be negative")
        rng = ensure_rng(rng)
        columns = rng.integers(self._n, size=count)
        coins = rng.random(count)
        take_alias = coins >= self._prob[columns]
        out = columns.copy()
        out[take_alias] = self._alias[columns[take_alias]]
        return out

    def pick_from_uniforms(
        self, u_column: "np.ndarray | float", u_coin: "np.ndarray | float"
    ) -> np.ndarray:
        """Alias draws driven by caller-supplied uniforms in ``[0, 1)``.

        ``u_column`` selects the column (``floor(u * n)``) and ``u_coin``
        plays the coin, so the draw is a pure function of its inputs —
        the primitive behind the batched sampling engine's fixed-width
        uniform-matrix draw discipline, where the per-sample and batched
        paths must make bit-identical decisions from the same variates.
        Accepts scalars or arrays of any matching shape; returns int64.
        """
        u_column = np.asarray(u_column, dtype=np.float64)
        u_coin = np.asarray(u_coin, dtype=np.float64)
        column = np.minimum(
            (u_column * self._n).astype(np.int64), self._n - 1
        )
        take_alias = u_coin >= self._prob[column]
        return np.where(take_alias, self._alias[column], column)

    def probabilities(self) -> np.ndarray:
        """Return the exact sampling distribution implied by the table.

        Useful for testing: the result equals the normalized input weights up
        to floating-point error.
        """
        probs = np.zeros(self._n, dtype=np.float64)
        uniform = 1.0 / self._n
        for column in range(self._n):
            probs[column] += uniform * self._prob[column]
            probs[self._alias[column]] += uniform * (1.0 - self._prob[column])
        return probs
