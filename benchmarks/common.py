"""Shared infrastructure for the experiment benchmarks.

Every ``bench_fig*.py``/``bench_table_*.py`` file reproduces one table or
figure from the paper (the file name says which); ``bench_sampling`` and
the other trajectory scripts track this repo's own perf, and
``e2ebench/run.py`` times the whole pipeline end to end.  This module
provides:

* cached pipeline construction (build once per (dataset, k, options),
  reuse across the benchmark's tests);
* exact and reference ground truths (ESU where feasible, multi-coloring
  averaged runs elsewhere — the paper's own fallback);
* ``emit(...)``: print the paper-style result table *and* persist it under
  ``benchmarks/results/`` so a full run leaves the reproduced tables on
  disk.
"""

from __future__ import annotations

import json
import os
import time
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.urn import TreeletUrn
from repro.exact.esu import exact_counts
from repro.graph.datasets import load_dataset
from repro.graph.graph import Graph
from repro.motivo import MotivoConfig, MotivoCounter
from repro.sampling.occurrences import GraphletClassifier
from repro.util.instrument import Instrumentation

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Datasets on which the slow CC baseline is still affordable.
BASELINE_DATASETS = ("facebook", "amazon", "dblp")
#: Datasets for motivo-only experiments.
FAST_DATASETS = ("facebook", "berkstan", "amazon", "dblp", "livejournal",
                 "yelp", "twitter", "friendster")


def emit(name: str, text: str) -> None:
    """Print a result table and persist it to benchmarks/results/."""
    print(f"\n===== {name} =====")
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")


def _write_atomic(path: str, text: str) -> None:
    """Write via a same-directory temp file + rename, so a crashed or
    concurrent benchmark never leaves a torn JSON document behind."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


def emit_json(name: str, payload: dict, also_repo_root: bool = False) -> str:
    """Persist a machine-readable benchmark result.

    Writes ``benchmarks/results/<name>.json``; with ``also_repo_root`` the
    same document additionally lands at the repository root (tracked
    trajectory files such as ``BENCH_sampling.json``).  Both copies are
    rendered once and written atomically (temp file + rename), so the two
    locations cannot diverge within a run and an interrupted run cannot
    leave a half-written document in either place.  Returns the results
    path.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_atomic(path, text)
    if also_repo_root:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        _write_atomic(os.path.join(root, f"{name}.json"), text)
    print(f"\n===== {name}.json =====")
    print(text)
    return path


@lru_cache(maxsize=None)
def pipeline(
    dataset: str,
    k: int,
    seed: int = 1,
    zero_rooting: bool = True,
    biased_lambda: Optional[float] = None,
) -> MotivoCounter:
    """A built MotivoCounter, cached across benchmark tests."""
    graph = load_dataset(dataset)
    counter = MotivoCounter(
        graph,
        MotivoConfig(
            k=k,
            seed=seed,
            zero_rooting=zero_rooting,
            biased_lambda=biased_lambda,
        ),
    )
    counter.build()
    return counter


@lru_cache(maxsize=None)
def built_urn(dataset: str, k: int, seed: int = 1) -> TreeletUrn:
    return pipeline(dataset, k, seed).urn


@lru_cache(maxsize=None)
def exact_truth(dataset: str, k: int) -> "tuple[tuple[int, int], ...]":
    """Exact induced counts via ESU (only call where feasible)."""
    graph = load_dataset(dataset)
    counts = exact_counts(graph, k)
    return tuple(sorted(counts.items()))


@lru_cache(maxsize=None)
def reference_truth(
    dataset: str, k: int, runs: int = 8, samples: int = 20_000
) -> "tuple[tuple[int, float], ...]":
    """Reference counts from averaged multi-coloring runs.

    The paper's §5 ground-truth fallback where ESCAPE cannot run: "we
    averaged the counts given by motivo over 20 runs".
    """
    graph = load_dataset(dataset)
    counter = MotivoCounter(graph, MotivoConfig(k=k, seed=991))
    averaged = counter.averaged_naive(runs=runs, samples_per_run=samples)
    return tuple(sorted(averaged.counts.items()))


@lru_cache(maxsize=None)
def combined_reference_truth(
    dataset: str,
    k: int,
    runs: int = 6,
    samples: int = 15_000,
    cover_threshold: int = 200,
) -> "tuple[tuple[int, float], ...]":
    """Reference counts averaging naive *and* AGS runs.

    This mirrors the paper's §5 ground truth on large graphs exactly:
    "we averaged the counts given by motivo over 20 runs, 10 using naive
    sampling and 10 using AGS."  Needed on skewed graphs (Yelp) where
    naive-only references miss every rare graphlet.
    """
    graph = load_dataset(dataset)
    merged: Dict[int, float] = {}
    total_runs = 2 * runs
    for run in range(runs):
        counter = MotivoCounter(graph, MotivoConfig(k=k, seed=7000 + run))
        counter.build()
        for source in (
            counter.sample_naive(samples).counts,
            counter.sample_ags(samples, cover_threshold).estimates.counts,
        ):
            for bits, value in source.items():
                merged[bits] = merged.get(bits, 0.0) + value / total_runs
    return tuple(sorted(merged.items()))


def truth_dict(pairs) -> Dict[int, float]:
    return dict(pairs)


def fresh_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def classifier_for(dataset: str, k: int) -> GraphletClassifier:
    return GraphletClassifier(load_dataset(dataset), k)


def build_with_instrumentation(
    dataset: str, k: int, seed: int = 1, zero_rooting: bool = True
) -> Tuple[Instrumentation, float]:
    """One motivo build; returns its instrumentation and table pairs."""
    graph = load_dataset(dataset)
    coloring = ColoringScheme.uniform(graph.num_vertices, k, rng=seed)
    inst = Instrumentation()
    table = build_table(
        graph, coloring, zero_rooting=zero_rooting, instrumentation=inst
    )
    return inst, table.total_pairs()


def interleaved_epochs(
    arms: Sequence[Tuple[str, Callable]],
    rounds: int,
    max_epochs: int,
    min_epochs: int = 1,
    stop: Optional[Callable[[List[dict]], bool]] = None,
    rotate: bool = True,
    warmup: int = 0,
    reps: Optional[Dict[str, int]] = None,
    derive: Optional[Callable[[dict], dict]] = None,
) -> List[dict]:
    """The shared noise-hardened timing protocol of every ``bench_*``.

    The boxes these benchmarks run on throttle unpredictably (shared
    tenancy), so raw wall-clock comparisons lie.  The protocol hardens
    them twice over:

    * **interleaving with rotation** — all arms run within each round,
      and the starting arm rotates every round, so every arm sees the
      same machine state on average and no arm systematically rides (or
      pays for) cache state left by another;
    * **epochs** — rounds group into epochs and callers report the best
      per-epoch *median* ratio: the capability estimate under the least
      interference, exactly the logic of taking the min over
      repetitions lifted one level up.

    Parameters
    ----------
    arms:
        Ordered ``(name, runner)`` pairs.  Each runner is called as
        ``runner(tick)`` with ``tick = epoch * rounds + round_index``
        (derive per-round seeds as ``base + tick``).  A runner that
        returns a float reports its *own* measured seconds (for arms
        whose setup must stay outside the clock); otherwise the whole
        call is timed.
    rounds, max_epochs, min_epochs:
        Rounds per epoch; epoch ceiling; epochs always run before
        ``stop`` may trigger (cold-cache epochs must not decide alone).
    stop:
        Early-exit predicate over the epoch records so far (e.g. "best
        epoch reached the target speedup").  ``None`` runs every epoch.
    rotate:
        Rotate the starting arm each round (on by default; pass False
        to preserve a fixed ordering).
    warmup:
        Untimed calls per arm before the first epoch, with ticks
        ``-1, -2, ...`` — without them the first arm of the first round
        absorbs every cold-start cost.
    reps:
        Per-arm timed invocations per round (default 1 each) for
        asymmetric costs — e.g. one cold build against three warm
        requests.
    derive:
        Maps each raw epoch record to extra keys merged into it
        (overheads, throughputs, ...), so ``stop`` and callers see them.

    Returns the epoch records, one dict per epoch: ``{name}`` is the
    arm's best (minimum) single timing, ``{name}_median`` its median,
    plus whatever ``derive`` added.  Pick the headline epoch with
    :func:`best_epoch`.
    """
    arms = list(arms)
    reps = reps or {}
    for index in range(warmup):
        for _name, runner in arms:
            runner(-1 - index)
    epoch_stats: List[dict] = []
    for epoch in range(max_epochs):
        times: Dict[str, List[float]] = {name: [] for name, _ in arms}
        for round_index in range(rounds):
            tick = epoch * rounds + round_index
            order = arms
            if rotate:
                offset = tick % len(arms)
                order = arms[offset:] + arms[:offset]
            for name, runner in order:
                for _ in range(reps.get(name, 1)):
                    start = time.perf_counter()
                    reported = runner(tick)
                    elapsed = time.perf_counter() - start
                    times[name].append(
                        float(reported)
                        if isinstance(reported, float) else elapsed
                    )
        record = {
            **{name: min(values) for name, values in times.items()},
            **{
                f"{name}_median": float(np.median(values))
                for name, values in times.items()
            },
        }
        if derive is not None:
            record.update(derive(record))
        epoch_stats.append(record)
        if (
            epoch + 1 >= min_epochs
            and stop is not None
            and stop(epoch_stats)
        ):
            break
    return epoch_stats


def best_epoch(epoch_stats: List[dict], numerator: str,
               denominator: str) -> dict:
    """The epoch whose ``numerator/denominator`` median ratio is largest
    — the standard headline pick (for a slowdown bound, swap the
    arguments: maximizing ``dense/succinct`` minimizes
    ``succinct/dense``)."""
    return max(
        epoch_stats,
        key=lambda e: e[f"{numerator}_median"] / e[f"{denominator}_median"],
    )


def epoch_speedup(epoch: dict, numerator: str, denominator: str) -> float:
    """The per-epoch median ratio (the reported capability figure)."""
    return epoch[f"{numerator}_median"] / epoch[f"{denominator}_median"]


def format_table(headers, rows) -> str:
    """Fixed-width text table matching the paper's row/column layout."""
    widths = [
        max(len(str(header)), *(len(str(row[i])) for row in rows)) + 2
        for i, header in enumerate(headers)
    ] if rows else [len(str(h)) + 2 for h in headers]
    lines = ["".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    lines.append("-" * sum(widths))
    for row in rows:
        lines.append("".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
