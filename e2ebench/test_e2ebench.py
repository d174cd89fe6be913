"""Self-tests of the benchmark's pure logic (no pipeline is run).

Run with ``python -m pytest e2ebench -q``.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import WORKLOADS, derive_seed, scaled_plan, spread  # noqa: E402
from stats import (  # noqa: E402
    Tally,
    beyond,
    highest_supported_percentile,
    median,
    nearest_rank,
    root_coverage,
    self_times,
    tail_latency,
    union_length,
    upper_quartile,
)


def span(span_id, parent, name, start, end):
    return {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}


# -- percentiles ---------------------------------------------------------


def test_nearest_rank_and_median():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 90) == 90
    assert nearest_rank(values, 100) == 100
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5


def test_upper_quartile_ignores_a_fast_minority():
    slow, fast = 1.0, 0.6
    assert upper_quartile([slow] * 6 + [fast] * 2) == slow
    assert upper_quartile([4.0, 1.0, 3.0, 2.0]) == pytest.approx(3.75)
    assert upper_quartile([2.5]) == 2.5
    with pytest.raises(ValueError):
        upper_quartile([])


def test_percentile_needs_ten_samples_beyond_it():
    assert beyond(100, 90) == 10
    assert highest_supported_percentile(100) == 90.0
    assert highest_supported_percentile(99) == 75.0
    assert highest_supported_percentile(105) == 90.0
    assert highest_supported_percentile(200) == 95.0
    assert highest_supported_percentile(1000) == 99.0
    assert highest_supported_percentile(19) is None
    assert highest_supported_percentile(20) == 50.0


def test_tail_latency_refuses_an_unsupported_tail():
    values = [float(v) for v in range(1, 106)]
    assert tail_latency(values, 90) == 95.0
    with pytest.raises(ValueError):
        tail_latency(values[:99], 90)


def test_every_workload_supports_its_p90():
    for workload in WORKLOADS.values():
        for seconds in (1, 10, 30):
            serve = scaled_plan(workload, seconds)["serve"]
            count = serve["rounds"] * serve["counts"]
            assert highest_supported_percentile(count) >= 90.0


# -- spans ---------------------------------------------------------------


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (6, 7)]) == 5
    assert union_length([]) == 0
    assert union_length([(2, 1)]) == 0


def test_self_time_subtracts_nested_children():
    spans = [
        span("a", None, "outer", 0.0, 10.0),
        span("b", "a", "inner", 1.0, 4.0),
        span("c", "b", "leaf", 2.0, 3.0),
        span("d", "a", "inner", 6.0, 7.0),
    ]
    own = self_times(spans)
    assert own["outer"] == pytest.approx(6.0)
    assert own["inner"] == pytest.approx(3.0)
    assert own["leaf"] == pytest.approx(1.0)


def test_self_time_counts_concurrent_children_once():
    spans = [
        span("root", None, "http", 0.0, 10.0),
        span("x", "root", "serve", 1.0, 6.0),
        span("y", "root", "serve", 4.0, 8.0),
    ]
    own = self_times(spans)
    assert own["http"] == pytest.approx(3.0)
    assert own["serve"] == pytest.approx(9.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span("p", None, "p", 0.0, 2.0), span("c", "p", "c", 1.0, 5.0)]
    assert self_times(spans)["p"] == pytest.approx(1.0)


def test_root_coverage_of_windows():
    spans = [
        span("a", None, "x", 0.0, 4.0),
        span("b", None, "x", 3.0, 5.0),
        span("c", "a", "y", 0.0, 10.0),
        span("d", None, "x", 20.0, 30.0),
    ]
    # Windows [0, 10) and [20, 25): roots cover 5 + 5 of 15 seconds; the
    # child span outside its parent does not count.
    assert root_coverage(spans, [(0.0, 10.0), (20.0, 25.0)]) == pytest.approx(10 / 15)
    assert root_coverage(spans, []) == 1.0


# -- failure accounting ----------------------------------------------------


def test_error_rate_accounting():
    tally = Tally()
    assert tally.record(True) is True
    assert tally.record(False, "bad response") is False
    tally.add(8, ["stage failure"])
    assert (tally.attempted, tally.failed) == (10, 2)
    assert tally.error_rate == pytest.approx(0.2)
    assert tally.reasons == ["bad response", "stage failure"]
    with pytest.raises(ValueError):
        tally.add(1, ["a", "b"])


def test_error_rate_of_nothing_attempted_is_a_failure():
    assert Tally().error_rate == 1.0


# -- plans ---------------------------------------------------------------


def test_spread_places_repetitions_evenly():
    assert spread(3, 15) == [2, 7, 12]
    assert spread(4, 15) == [1, 5, 9, 13]
    assert spread(0, 15) == []
    assert all(0 <= r < 2 for r in spread(5, 2))


def test_derive_seed_is_stable_and_separated():
    assert derive_seed(1, "graph") == derive_seed(1, "graph")
    assert derive_seed(1, "graph") != derive_seed(2, "graph")
    assert derive_seed(1, "graph") != derive_seed(1, "updates")
    assert 0 <= derive_seed(7, "x") < 2**63
