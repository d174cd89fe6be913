"""Pure bookkeeping for the end-to-end benchmark: no I/O, no repro imports.

Everything here is deterministic arithmetic over numbers and span
records, so ``test_e2ebench.py`` can pin it down without running a
pipeline:

* tail percentiles that are only reported when enough samples lie
  beyond them, and the upper quartile of repeated timings,
* span self time (duration minus the part its children cover),
* how much of the measured wall time the top-level spans cover,
* failure accounting toward ``error_rate``.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles considered for a latency tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

Interval = Tuple[float, float]


def median(values: Sequence[float]) -> float:
    """The median (mean of the middle pair for even lengths)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def upper_quartile(values: Sequence[float]) -> float:
    """The third quartile (``statistics.quantiles``, exclusive method);
    a single value is its own quartile."""
    if not values:
        raise ValueError("quartile of no values")
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=4)[2]


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank percentile: the smallest value with at least
    ``percentile`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile {percentile} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def beyond(count: int, percentile: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank
    ``percentile``."""
    return count - max(math.ceil(percentile / 100.0 * count), 1)


def highest_supported_percentile(
    count: int,
    min_beyond: int = 10,
    ladder: Iterable[float] = TAIL_LADDER,
) -> Optional[float]:
    """The highest ladder percentile with ``min_beyond`` samples above it.

    A tail percentile read from fewer samples than that is mostly one
    outlier; ``None`` means not even the lowest rung is supported.
    """
    for percentile in ladder:
        if beyond(count, percentile) >= min_beyond:
            return percentile
    return None


def tail_latency(
    values: Sequence[float], percentile: float, min_beyond: int = 10
) -> float:
    """``nearest_rank(values, percentile)``, refused when fewer than
    ``min_beyond`` samples lie beyond it."""
    supported = highest_supported_percentile(len(values), min_beyond)
    if supported is None or supported < percentile:
        raise ValueError(
            f"p{percentile:g} needs {min_beyond} samples beyond it; "
            f"{len(values)} samples support at most p{supported}"
        )
    return nearest_rank(values, percentile)


# ----------------------------------------------------------------------
# Intervals and spans
# ----------------------------------------------------------------------


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    end = -math.inf
    start = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if lo > end:
            if end > start:
                total += end - start
            start, end = lo, hi
        else:
            end = max(end, hi)
    if end > start:
        total += end - start
    return total


def clip(interval: Interval, window: Interval) -> Optional[Interval]:
    """``interval`` cut to ``window``; ``None`` when they do not meet."""
    lo = max(interval[0], window[0])
    hi = min(interval[1], window[1])
    return (lo, hi) if hi > lo else None


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Per-name total self time of span records.

    Each record carries ``id``, ``parent`` (an id or ``None``), ``name``,
    ``start`` and ``end``.  A span's self time is its duration minus the
    union of its direct children's intervals clipped to it, so time in
    a nested layer is charged to that layer only, and children that run
    concurrently (threads) are not subtracted twice.
    """
    children: Dict[object, List[Interval]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    totals: Dict[str, float] = {}
    for span in spans:
        own = (span["start"], span["end"])
        nested = [
            part
            for part in (clip(child, own) for child in children.get(span["id"], ()))
            if part is not None
        ]
        value = (own[1] - own[0]) - union_length(nested)
        totals[span["name"]] = totals.get(span["name"], 0.0) + max(value, 0.0)
    return totals


def root_coverage(
    spans: Sequence[dict], windows: Sequence[Interval]
) -> float:
    """Share of the measured windows that top-level spans cover.

    Top-level means no parent.  Overlapping roots (concurrent request
    threads) count once.  Returns 1.0 for no measured time at all.
    """
    measured = union_length(windows)
    if measured <= 0:
        return 1.0
    roots = [
        (span["start"], span["end"])
        for span in spans
        if span["parent"] is None
    ]
    covered = union_length(
        part
        for window in windows
        for part in (clip(root, window) for root in roots)
        if part is not None
    )
    return covered / measured


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------


class Tally:
    """Attempted and failed operations of one run, with the reasons.

    Every build, open, sampling request, served request and output check
    is one attempt; an exception, a non-200 response or a failed check
    is one failure.  ``error_rate`` is failed / attempted.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str = "") -> bool:
        """Count one operation; returns ``ok`` for chaining."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason or "unnamed failure")
        return ok

    def add(self, attempted: int, failures: Sequence[str]) -> None:
        """Fold in a stage's own counts (``failures`` lists reasons)."""
        if attempted < len(failures):
            raise ValueError("more failures than attempts")
        self.attempted += attempted
        self.failed += len(failures)
        self.reasons.extend(failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
