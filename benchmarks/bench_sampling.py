"""Sampling-engine trajectory: per-sample loop vs batched urn draws.

The fig3-style workload at ensemble scale — G(n=2000, average degree 10),
k=6 — with the build-up table built once and the *sampling phase* timed
under both regimes:

* **loop** — the per-sample reference path: one recursion per draw
  (``sample_batch(..., method="loop")``) followed by one ``classify``
  call per sample;
* **batched** — the vectorized engine: one plan-replay descent per batch
  (``method="batched"``) plus one ``classify_batch`` sweep.

Both paths read the same uniform matrix, so for a fixed seed their
outputs are bit-identical (asserted below before any timing).  Timing is
interleaved (this box's clock drifts, so alternating runs is the only
fair protocol — see ``common.interleaved_epochs`` for the full
rationale); each side's reported time is its median over every round of
every epoch, and the speedup is their ratio.  Picking the epoch with the
best loop/batched ratio instead would let loop-side noise choose which
batched epoch is reported.  Results land as ``BENCH_sampling.json`` at the
repository root so the perf trajectory is tracked across PRs, plus the
usual text table under ``benchmarks/results/``.

The payload also records how many gathered-cumulative rows the urn
built over every draw (``gathered_rows_built``) against the gathered-key
universe (``gathered_keys``): only keys at admissible candidates with a
positive prime factor can be chosen, so a kernel that builds a row for
every key fails the ``gathered_rows_built < gathered_keys`` gate.

Alongside the timing comparison the payload carries a ``plan_cache``
section: the compiled descent program is saved into a throwaway table
artifact, reopened, and sampled from — asserting that the warm open
performed **zero** plan compilations (the build-once / sample-many
contract of the plan blob).

Run directly (``python benchmarks/bench_sampling.py``).  ``--quick``
shrinks the workload for CI perf smoke: the bit-identity and
zero-recompile gates still hold, only the timing protocol is shortened
(and the result lands as ``BENCH_sampling_quick`` under
``benchmarks/results/`` so the tracked trajectory file is untouched).
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time

import numpy as np

from repro.artifacts import open_table, save_table
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.urn import TreeletUrn
from repro.graph.generators import erdos_renyi
from repro.sampling.occurrences import GraphletClassifier
from repro.treelets.registry import TreeletRegistry
from repro.util.instrument import Instrumentation

from common import emit, emit_json, format_table, interleaved_epochs

#: The fig3 sampling workload: G(n, m) with avg degree 10, k=6.
N_VERTICES = 2000
N_EDGES = 10_000
K = 6
SAMPLES_PER_ROUND = 2000
ROUNDS = 5
MAX_EPOCHS = 10
#: Epochs always timed before the early exit may trigger: the first
#: epoch runs against cold caches (gathered rows filling, classifier
#: pattern cache still learning the tail), so the capability estimate
#: needs warm epochs in the pool.
MIN_EPOCHS = 4
#: Raised from 5.0 when the fused integer kernel landed (measured
#: 23-26x on this box; the bar keeps headroom for slower machines).
TARGET_SPEEDUP = 15.0


def _loop_side(urn, classifier, samples, seed):
    """Per-sample reference: scalar descent + scalar classification."""
    vertices, _treelets, _masks = urn.sample_batch(
        samples, np.random.default_rng(seed), method="loop"
    )
    return [classifier.classify(row) for row in vertices.tolist()]


def _batched_side(urn, classifier, samples, seed):
    """Vectorized engine: plan-replay descent + one classify sweep."""
    vertices, _treelets, _masks = urn.sample_batch(
        samples, np.random.default_rng(seed), method="batched"
    )
    return classifier.classify_batch(vertices)


def _plan_cache_check(graph, table, coloring, urn, samples: int) -> dict:
    """Save the compiled plan into an artifact, reopen, count compiles.

    The warm side must sample without a single plan compilation — its
    ``descent_plan_compiles`` counter stays at zero (a fresh
    Instrumentation, so no save-time compile bleeds in) — and return
    draws bit-identical to the original urn's.
    """
    from repro.colorcoding.descent import compile_program

    start = time.perf_counter()
    compile_program(urn.registry, table)  # a genuinely cold compile
    compile_seconds = time.perf_counter() - start
    program = urn.descent_program()
    with tempfile.TemporaryDirectory() as tmp:
        directory = os.path.join(tmp, "artifact")
        save_table(directory, table, coloring, graph,
                   descent_program=program)
        start = time.perf_counter()
        artifact = open_table(directory, graph)
        open_seconds = time.perf_counter() - start
        warm_inst = Instrumentation()
        warm = TreeletUrn(
            graph, artifact.table, artifact.coloring,
            program=artifact.descent_program,
            instrumentation=warm_inst,
        )
        seed = 4321
        warm_out = warm.sample_batch(
            samples, np.random.default_rng(seed)
        )
        cold_out = urn.sample_batch(samples, np.random.default_rng(seed))
        reopen_identical = all(
            np.array_equal(a, b) for a, b in zip(warm_out, cold_out)
        )
    return {
        "plan_loaded_from_artifact": artifact.descent_program is not None,
        "reopen_plan_compiles": int(warm_inst["descent_plan_compiles"]),
        "reopen_bit_identical": bool(reopen_identical),
        "plan_compile_seconds": compile_seconds,
        "warm_open_seconds": open_seconds,
    }


def run_sampling_comparison(
    samples: int = SAMPLES_PER_ROUND,
    rounds: int = ROUNDS,
    max_epochs: int = MAX_EPOCHS,
    target_speedup: float = TARGET_SPEEDUP,
    min_epochs: int = MIN_EPOCHS,
) -> dict:
    """Interleaved timing of both sampling paths; returns the payload.

    Noise protocol (see ``common.interleaved_epochs``):
    the two paths alternate within each round so they see the same
    machine state, rounds group into epochs, and each path's headline
    time is its median over every round of every epoch — epochs stop
    early once the ratio of those medians reaches the target, all
    epochs are recorded.
    """
    graph = erdos_renyi(N_VERTICES, N_EDGES, rng=31)
    coloring = ColoringScheme.uniform(N_VERTICES, K, rng=32)
    registry = TreeletRegistry(K)
    table = build_table(graph, coloring, registry=registry)
    urn = TreeletUrn(graph, table, coloring, registry=registry)
    # Separate classifiers so each path keeps its own natural caching.
    loop_classifier = GraphletClassifier(graph, K)
    batch_classifier = GraphletClassifier(graph, K)

    # Correctness gate: identical draws and classifications for a fixed
    # seed — a speedup over different answers is no speedup.
    check_seed = 1234
    loop_out = urn.sample_batch(
        samples, np.random.default_rng(check_seed), method="loop"
    )
    batch_out = urn.sample_batch(
        samples, np.random.default_rng(check_seed), method="batched"
    )
    bit_identical = all(
        np.array_equal(a, b) for a, b in zip(loop_out, batch_out)
    )
    assert bit_identical, "batched and loop paths disagree"
    codes_loop = [loop_classifier.classify(r) for r in loop_out[0].tolist()]
    codes_batch = batch_classifier.classify_batch(batch_out[0])
    assert codes_loop == codes_batch.tolist(), "classification disagrees"

    rounds_seconds: dict = {"batched": [], "loop": []}

    def _timed(name, side, classifier):
        def runner(tick):
            start = time.perf_counter()
            side(urn, classifier, samples, 10_000 + tick)
            rounds_seconds[name].append(time.perf_counter() - start)
            return rounds_seconds[name][-1]
        return name, runner

    def _speedup() -> float:
        return float(
            np.median(rounds_seconds["loop"])
            / np.median(rounds_seconds["batched"])
        )

    epoch_stats = interleaved_epochs(
        [
            _timed("batched", _batched_side, batch_classifier),
            _timed("loop", _loop_side, loop_classifier),
        ],
        rounds=rounds,
        max_epochs=max_epochs,
        min_epochs=min_epochs,
        stop=lambda _stats: _speedup() >= target_speedup,
    )
    loop_seconds = float(np.median(rounds_seconds["loop"]))
    batched_seconds = float(np.median(rounds_seconds["batched"]))
    counters = urn.instrumentation
    gathered_rows_built = int(
        counters["gathered_cumulative_builds"]
        + counters["gathered_transient_builds"]
    )
    plan_cache = _plan_cache_check(graph, table, coloring, urn, samples)
    return {
        "workload": {
            "graph": f"G(n={N_VERTICES}, m={N_EDGES})",
            "avg_degree": 2 * N_EDGES / N_VERTICES,
            "k": K,
            "samples_per_round": samples,
            "rounds": rounds,
            "epochs": len(epoch_stats),
            "protocol": (
                "interleaved rounds (rotating start); epochs until "
                "target (but at least "
                f"{min_epochs}, so warm-cache epochs are in the pool); "
                "reported time per path = its median over every round "
                "of every epoch, speedup = their ratio (all epochs "
                "recorded); timing covers draw + classification"
            ),
        },
        "loop_seconds": loop_seconds,
        "batched_seconds": batched_seconds,
        "loop_best_round_seconds": min(rounds_seconds["loop"]),
        "batched_best_round_seconds": min(rounds_seconds["batched"]),
        "loop_samples_per_second": samples / loop_seconds,
        "batched_samples_per_second": samples / batched_seconds,
        "speedup": loop_seconds / batched_seconds,
        "best_round_speedup": (
            min(rounds_seconds["loop"]) / min(rounds_seconds["batched"])
        ),
        "all_epochs": epoch_stats,
        "bit_identical": bool(bit_identical),
        "gathered_rows_built": gathered_rows_built,
        "gathered_keys": urn.descent_program().num_gathered_keys,
        "plan_cache": plan_cache,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI perf smoke: shortened timing protocol, relaxed speedup "
             "bar; the bit-identity and zero-recompile gates are "
             "unchanged; writes BENCH_sampling_quick (results dir only)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        payload = run_sampling_comparison(
            samples=500, rounds=2, max_epochs=2, target_speedup=2.0,
            min_epochs=1,
        )
        payload["quick"] = True
        emit_json("BENCH_sampling_quick", payload)
        target = 2.0
    else:
        payload = run_sampling_comparison()
        payload["quick"] = False
        emit_json("BENCH_sampling", payload, also_repo_root=True)
        target = TARGET_SPEEDUP
    emit(
        "sampling_engine",
        format_table(
            ["path", "median s", "samples/s"],
            [
                (
                    "loop (per-sample)",
                    f"{payload['loop_seconds']:.4f}",
                    f"{payload['loop_samples_per_second']:.0f}",
                ),
                (
                    "batched (vectorized)",
                    f"{payload['batched_seconds']:.4f}",
                    f"{payload['batched_samples_per_second']:.0f}",
                ),
                ("speedup", f"{payload['speedup']:.2f}x", ""),
            ],
        ),
    )
    assert payload["speedup"] >= target, payload
    assert payload["bit_identical"], payload
    assert payload["gathered_rows_built"] < payload["gathered_keys"], payload
    plan_cache = payload["plan_cache"]
    assert plan_cache["plan_loaded_from_artifact"], payload
    assert plan_cache["reopen_plan_compiles"] == 0, payload
    assert plan_cache["reopen_bit_identical"], payload


if __name__ == "__main__":
    main()
