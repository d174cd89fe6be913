"""Incremental-maintenance trajectory: delta updates vs rebuild-per-update.

Before this subsystem, any edge change invalidated the graph fingerprint
and forced a full color-coding rebuild.  ``MotivoCounter.update`` instead
maintains the count table as a materialized view of the Equation (1)
dynamic program: a batch of edge insertions/deletions is pushed through
each level as sparse ``(key, vertex, Δ)`` changes by the product rule,
deletions then insertions, and the sampling plane follows suit — the urn keeps its compiled descent program and its
gathered-cumulative store across the update (stale rows stay bit-exact
wherever a vertex's distance to the update clears the key's size,
because the kernel only ever reads them relatively; the reads the update
may have staled go through the successor urn's segment store of exact
running sums over the current adjacency).  The result is bit-identical
to a fresh rebuild on the updated graph under the same coloring.

Three workloads:

* **er_trickle** (the headline) — a sparse ER graph at ``k = 7``
  (``n = 50000, m = 125000``, average degree 5).  A single-edge update
  changes a few thousand entries out of millions, while a rebuild
  re-runs the whole ``k = 7`` dynamic program and re-warms every
  sampling cache.
* **fig3** — the ER graph the sampling benches use (``G(2000, 10000)``,
  degree 10, ``k = 6``): a small dense graph whose rebuild takes tens
  of milliseconds, so fixed costs weigh on the delta.
* **powerlaw** — a Chung-Lu heavy-tail graph (exponent 2.2) at the
  headline's size and ``k``: a hub near the changed edge spreads the
  change over its whole neighborhood, so the delta changes far more
  entries than on the headline graph.
* **hub_copy** — the e2ebench ``cold-build``/``budget-build`` input
  (Chung-Lu ``n = 12500, m = 62500``, exponent 2.5, ``k = 6``) in both
  layouts, through the copying path a served ``POST /update`` takes
  (``apply_edge_updates(..., in_place=False)``; the input table stays
  valid), against ``build_table(layout=...)`` on the updated graph.
  Table maintenance only, no requery; reported as measured.  Every
  other row here is dense and goes through ``MotivoCounter.update``
  (``in_place=True``).

For each workload a **trickle** of single-edge updates is timed under the
shared interleaved protocol (``benchmarks/common.py``): per round the
*incremental* arm applies one edge update to a live counter and requeries
(``update`` + ``sample_naive``), and the *rebuild* arm — the
pre-subsystem behavior — rebuilds the table from scratch on the updated
graph and requeries.  Both arms toggle the same edge in lockstep
(insert, then delete, then insert...), so the graph sequence, and hence
the work, is identical; the reported figure is the best per-epoch median
ratio.  The acceptance bar is **≥ 10x** single-edge on the headline
workload (``payload["speedup"]``); fig3 and powerlaw are reported as-is.

Before any timing, bit-identity is asserted per workload: after an
update batch, the maintained table's full digest (layer keys + counts),
the counter's **post-update master RNG state**, the naive estimates
drawn next, and the post-draw RNG state all equal those of a counter
freshly built on the updated graph with the same seed.

A **batch-size curve** (on the headline workload) then scales the batch
toward the whole graph: the changed entries grow with the batch until a
pass outgrows what a rebuild reads and the update rebuilds instead
(``delta_rebuilds``) — the crossover is recorded, not hidden.  Every
row reports the median changed entries (``delta_entries_per_update``)
and support columns (``rows_touched_per_update``) per update, and the
rebuilds among them.  Results land as
``BENCH_INCREMENTAL.json`` at the repository root plus the usual text
table under ``benchmarks/results/``.

Run directly (``python benchmarks/bench_incremental.py``).  ``--quick``
shrinks the headline workload for the CI ``incremental-smoke`` job: the
bit-identity gates are unchanged, only the timing protocol is shortened
and the speedup floor is noise-padded (writes
``BENCH_INCREMENTAL_quick`` under ``benchmarks/results/`` so the tracked
trajectory file is untouched).  It also runs the **carried-store
check**, untimed, on a small Chung-Lu graph where one edge's dirty ball
covers most vertices: after each of three single-edge updates the
successor urn must share its predecessor's gathered store, and its
draws must equal a fresh urn's and the ``method="loop"`` oracle's under
the same uniforms (``payload["carried_store"]``).  It also runs the
hub_copy workload's bit-identity gate, untimed (``payload["hub_copy"]``).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.incremental import apply_edge_updates
from repro.colorcoding.urn import TreeletUrn
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.motivo import MotivoConfig, MotivoCounter

from common import (
    best_epoch,
    emit,
    emit_json,
    epoch_speedup,
    format_table,
    interleaved_epochs,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tests"))
from support.graphgen import powerlaw_edges  # noqa: E402

SEED = 7
PL_EXPONENT = 2.2
PL_SEED = 9

#: Headline workload: sparse ER at k=7 — a single edge changes a few
#: thousand entries against a fifty-thousand-vertex rebuild.
HEAD_N = 50_000
HEAD_M = 125_000
HEAD_K = 7
#: fig3 saturation workload (degree 10 at k=6, the sampling benches' G).
FIG3_N = 2000
FIG3_M = 10_000
FIG3_K = 6
#: Quick (CI) headline: same degree-4 sparse regime, small enough for a
#: smoke job.
QUICK_N = 16_000
QUICK_M = 32_000

#: Both arms share this config: the gathered-row budget must hold the
#: k=7 program's full key set, or budget-fallback churn (identical in
#: both arms) dominates the comparison.
DESCENT_CACHE_BYTES = 1_500_000_000

SAMPLES_PER_REQUERY = 64
ROUNDS = 2
MAX_EPOCHS = 4
MIN_EPOCHS = 2
TARGET_SPEEDUP = 10.0
QUICK_TARGET_SPEEDUP = 2.0
#: Carried-store check (quick mode): a Chung-Lu graph on which one
#: inserted edge's radius-(k-2) ball covers most vertices.
HUB_N = 3000
HUB_M = 9000
HUB_K = 5
HUB_UPDATES = 3
#: hub_copy: the e2ebench cold-build/budget-build graph (its graph seed
#: for workload seed 1) through the copying update path.
COPY_N = 12_500
COPY_M = 62_500
COPY_K = 6
COPY_EXPONENT = 2.5
COPY_GRAPH_SEED = 5639305284100021919
COPY_UPDATES = 3
#: Batch sizes for the honest degradation curve (headline workload); the
#: largest point churns over 1.5% of the edge count in one batch.
CURVE_BATCH_SIZES = (1, 8, 64, 512, 2048)


def _config(k: int) -> MotivoConfig:
    return MotivoConfig(
        k=k, seed=SEED, descent_cache_bytes=DESCENT_CACHE_BYTES
    )


def _er_graph(n: int, m: int) -> Graph:
    return erdos_renyi(n, m, rng=31)


def _powerlaw_graph(n: int, m: int) -> Graph:
    edges = powerlaw_edges(n, m, exponent=PL_EXPONENT, seed=PL_SEED)
    return Graph.from_edges(edges, n=n)


def _pick_absent_edges(graph: Graph, count: int, seed: int) -> list:
    """``count`` distinct ``u < v`` non-edges, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    chosen, seen = [], set()
    while len(chosen) < count:
        need = count - len(chosen)
        us = rng.integers(0, n, size=4 * need + 16)
        vs = rng.integers(0, n, size=us.size)
        for u, v in zip(us.tolist(), vs.tolist()):
            if u == v:
                continue
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen or graph.has_edge(a, b):
                continue
            seen.add((a, b))
            chosen.append((a, b))
            if len(chosen) == count:
                break
    return chosen


def _table_digest(table, k: int) -> str:
    """Full content digest: every layer's key list and count bytes."""
    digest = hashlib.sha256()
    for h in range(1, k + 1):
        layer = table.layer(h)
        digest.update(np.int64(h).tobytes())
        digest.update(repr(layer.keys).encode("utf-8"))
        digest.update(
            np.ascontiguousarray(
                layer.dense_counts(), dtype=np.float64
            ).tobytes()
        )
    return "sha256:" + digest.hexdigest()


def _assert_bit_identity(graph: Graph, batch: list, k: int) -> dict:
    """Delta-maintained state must equal a fresh rebuild, bit for bit.

    Checked in dependency order: table digest, post-update master RNG
    state, the naive estimates both counters draw next, and the
    post-draw RNG state (the update consumed zero generator draws).
    """
    updates = [("+", u, v) for u, v in batch]
    inc = MotivoCounter(graph, _config(k))
    inc.build()
    stats = inc.update(updates)
    assert stats["mode"] == "incremental", stats
    assert stats["updates_applied"] == len(batch), stats

    fresh = MotivoCounter(inc.graph, _config(k))
    fresh.build()
    inc_digest = _table_digest(inc.table, k)
    assert inc_digest == _table_digest(fresh.table, k), (
        "delta-maintained table differs from fresh rebuild"
    )
    assert (
        inc._rng.bit_generator.state == fresh._rng.bit_generator.state
    ), "update consumed master RNG draws"
    inc_est = inc.sample_naive(SAMPLES_PER_REQUERY)
    fresh_est = fresh.sample_naive(SAMPLES_PER_REQUERY)
    assert inc_est.counts == fresh_est.counts
    assert inc_est.hits == fresh_est.hits
    assert (
        inc._rng.bit_generator.state == fresh._rng.bit_generator.state
    ), "post-requery RNG states diverged"
    inc.close()
    fresh.close()
    return {
        "bit_identical": True,
        "rng_state_identical": True,
        "table_digest": inc_digest,
        "rows_touched": stats["rows_touched"],
        "delta_entries": stats["delta_entries"],
        "touched_vertices": stats["touched_vertices"],
    }


def _carried_store_check(graph: Graph, k: int, updates: int) -> dict:
    """Single-edge updates on a hub graph keep the gathered store and
    stay bit-identical (untimed).

    After each update the successor urn must share its predecessor's
    gathered matrix, the maintained table must equal a fresh build, and
    the successor's draws must equal a fresh urn's and the loop
    oracle's under the same uniforms.
    """
    counter = MotivoCounter(graph, _config(k))
    counter.build()
    counter.sample_naive(SAMPLES_PER_REQUERY)  # materialize the store
    rng = np.random.default_rng(SEED)
    kept = []
    for index in range(updates):
        previous = counter.urn
        counter.update(
            [("+", u, v) for u, v in _pick_absent_edges(
                counter.graph, 1, seed=300 + index
            )]
        )
        urn = counter.urn
        kept.append(urn._gath_matrix is previous._gath_matrix)
        fresh_table = build_table(counter.graph, counter.coloring)
        assert _table_digest(counter.table, k) == _table_digest(
            fresh_table, k
        ), "delta-maintained table differs from fresh rebuild"
        uniforms = rng.random((4 * SAMPLES_PER_REQUERY, urn.draw_width))
        fresh = TreeletUrn(counter.graph, fresh_table, counter.coloring)
        drawn = urn.sample_batch(uniforms.shape[0], uniforms=uniforms)
        for got, want in zip(
            drawn, fresh.sample_batch(uniforms.shape[0], uniforms=uniforms)
        ):
            assert np.array_equal(got, want), "carried store diverged"
        head = uniforms[:SAMPLES_PER_REQUERY]
        loop = urn.sample_batch(head.shape[0], uniforms=head, method="loop")
        for got, want in zip(drawn, loop):
            assert np.array_equal(got[: head.shape[0]], want), (
                "carried store diverged from the loop oracle"
            )
    counters = counter.instrumentation.counters
    radii = counter.urn._gath_radii
    counter.close()
    return {
        "graph": f"PL(n={graph.num_vertices}, m={graph.num_edges}, k={k})",
        "updates": updates,
        "bit_identical": True,
        "kept_store": all(kept),
        "dirty_fraction": float((radii < k - 1).mean()),
        "segment_fills": int(counters.get("gathered_segment_fills", 0)),
        "segment_entries": int(counters.get("gathered_segment_entries", 0)),
    }


def _trickle_result(
    epoch_stats: list, batch_size: int, updates: list, graph: Graph
) -> dict:
    """A trickle's record: the best epoch's medians and speedup, and the
    per-update delta counters (``updates`` holds each update's stats)."""
    best = best_epoch(epoch_stats, "rebuild", "incremental")
    rows_touched = [stats["rows_touched"] for stats in updates]
    return {
        "batch_size": batch_size,
        "rebuild_seconds": best["rebuild_median"],
        "incremental_seconds": best["incremental_median"],
        "speedup": best["rebuild_median"] / best["incremental_median"],
        "rows_touched_per_update": float(np.median(rows_touched)),
        "delta_entries_per_update": float(
            np.median([stats["delta_entries"] for stats in updates])
        ),
        "delta_rebuilds": int(
            sum(stats["delta_rebuilds"] for stats in updates)
        ),
        "frontier_fraction": float(
            np.median(rows_touched) / graph.num_vertices
        ),
        "epochs": len(epoch_stats),
        "all_epochs": epoch_stats,
    }


def _layout_digest(table, k: int) -> str:
    """:func:`_table_digest` plus each succinct layer's CSR arrays,
    bytes and dtypes — what the artifact codec writes."""
    digest = hashlib.sha256(_table_digest(table, k).encode("utf-8"))
    for h in range(1, k + 1):
        layer = table.layer(h)
        if layer.layout == "succinct":
            for array in (layer.indptr, layer.key_row, layer.values):
                digest.update(str(array.dtype).encode("utf-8"))
                digest.update(np.ascontiguousarray(array).tobytes())
    return "sha256:" + digest.hexdigest()


def _copy_identity(
    graph: Graph, coloring: ColoringScheme, layout: str, k: int,
    updates: int,
) -> dict:
    """Chained single-edge updates through the copying path each equal
    a fresh build byte for byte and leave their input table untouched
    (untimed)."""
    table = build_table(graph, coloring, layout=layout)
    rows_touched, entries = [], []
    for index in range(updates):
        before = _layout_digest(table, k)
        edge = _pick_absent_edges(graph, 1, seed=400 + index)[0]
        result = apply_edge_updates(
            table, graph, [("+", *edge)], coloring, in_place=False
        )
        assert _layout_digest(table, k) == before, (
            "the copying update path mutated its input table"
        )
        digest = _layout_digest(result.table, k)
        fresh = build_table(result.graph, coloring, layout=layout)
        assert digest == _layout_digest(fresh, k), (
            f"{layout} copy-path update differs from fresh rebuild"
        )
        rows_touched.append(result.rows_touched)
        entries.append(result.delta_entries)
        graph, table = result.graph, result.table
    return {
        "bit_identical": True,
        "updates": updates,
        "table_digest": digest,
        "rows_touched": rows_touched,
        "delta_entries": entries,
    }


def _copy_trickle(
    graph: Graph,
    coloring: ColoringScheme,
    layout: str,
    rounds: int,
    max_epochs: int,
    min_epochs: int,
) -> dict:
    """Interleaved single-edge copy-path updates vs ``build_table``.

    The incremental arm toggles one edge on its live table through
    ``apply_edge_updates(..., in_place=False)``; the rebuild arm builds
    the matching graph state from scratch in the same layout.
    """
    edge = _pick_absent_edges(graph, 1, seed=100)[0]
    toggles = ([("+", *edge)], [("-", *edge)])
    plus_graph, _ = graph.apply_updates(toggles[0])
    live = {
        "graph": graph, "table": build_table(graph, coloring, layout=layout),
    }
    present = {"incremental": False, "rebuild": False}
    updates: list = []

    def _incremental_arm(_tick):
        batch = toggles[int(present["incremental"])]
        present["incremental"] = not present["incremental"]
        result = apply_edge_updates(
            live["table"], live["graph"], batch, coloring, in_place=False
        )
        live["graph"], live["table"] = result.graph, result.table
        updates.append(result.stats())

    def _rebuild_arm(_tick):
        target = graph if present["rebuild"] else plus_graph
        present["rebuild"] = not present["rebuild"]
        build_table(target, coloring, layout=layout)

    epoch_stats = interleaved_epochs(
        [("incremental", _incremental_arm), ("rebuild", _rebuild_arm)],
        rounds=rounds,
        max_epochs=max_epochs,
        min_epochs=min_epochs,
        warmup=1,
    )
    return _trickle_result(epoch_stats, 1, updates, graph)


def _copy_section(
    timed: bool, rounds: int = ROUNDS, max_epochs: int = MAX_EPOCHS,
    min_epochs: int = MIN_EPOCHS,
) -> dict:
    """The hub_copy workload: both layouts' bit-identity gate, and with
    ``timed`` their single-edge trickle."""
    graph = Graph.from_edges(
        powerlaw_edges(
            COPY_N, COPY_M, COPY_EXPONENT, seed=COPY_GRAPH_SEED
        ),
        n=COPY_N,
    )
    coloring = ColoringScheme.uniform(COPY_N, COPY_K, rng=SEED)
    section: dict = {
        "graph": (
            f"PL(n={graph.num_vertices}, m={graph.num_edges}, k={COPY_K})"
        ),
        "note": (
            "e2ebench cold-build/budget-build input through the copying "
            "update path (in_place=False) a served update takes, "
            "against build_table in the same layout; table "
            "maintenance only, reported as measured"
        ),
    }
    for layout in ("dense", "succinct"):
        entry = {
            "identity": _copy_identity(
                graph, coloring, layout, COPY_K, COPY_UPDATES
            ),
        }
        if timed:
            entry["single_edge"] = _copy_trickle(
                graph, coloring, layout, rounds, max_epochs, min_epochs
            )
        section[layout] = entry
    section["bit_identical"] = all(
        section[layout]["identity"]["bit_identical"]
        for layout in ("dense", "succinct")
    )
    return section


def _trickle_comparison(
    graph: Graph,
    batch: list,
    k: int,
    rounds: int,
    max_epochs: int,
    min_epochs: int,
    target_speedup: float,
) -> dict:
    """Interleaved update-and-requery vs rebuild-per-update timing.

    Both arms toggle the same edge batch in lockstep — the incremental
    counter inserts then deletes it on alternating calls, the rebuild
    arm builds from scratch on the matching graph state — so every
    round compares identical work.  ``interleaved_epochs``'s warm-up
    runs both arms once untimed, which keeps the toggles aligned.
    """
    add_batch = [("+", u, v) for u, v in batch]
    remove_batch = [("-", u, v) for u, v in batch]
    inc = MotivoCounter(graph, _config(k))
    inc.build()
    inc.sample_naive(SAMPLES_PER_REQUERY)
    plus_graph, _ = graph.apply_updates(add_batch)
    state = {"inc_present": False, "re_present": False}
    updates: list = []

    def _incremental_arm(_tick):
        batch = remove_batch if state["inc_present"] else add_batch
        state["inc_present"] = not state["inc_present"]
        updates.append(inc.update(batch))
        inc.sample_naive(SAMPLES_PER_REQUERY)

    def _rebuild_arm(_tick):
        target = graph if state["re_present"] else plus_graph
        state["re_present"] = not state["re_present"]
        counter = MotivoCounter(target, _config(k))
        counter.build()
        counter.sample_naive(SAMPLES_PER_REQUERY)
        counter.close()

    epoch_stats = interleaved_epochs(
        [("incremental", _incremental_arm), ("rebuild", _rebuild_arm)],
        rounds=rounds,
        max_epochs=max_epochs,
        min_epochs=min_epochs,
        warmup=1,
        stop=lambda stats: epoch_speedup(
            best_epoch(stats, "rebuild", "incremental"),
            "rebuild", "incremental",
        ) >= target_speedup,
    )
    inc.close()
    return _trickle_result(epoch_stats, len(batch), updates, graph)


def _workload_section(
    graph: Graph,
    label: str,
    k: int,
    rounds: int,
    max_epochs: int,
    min_epochs: int,
    target_speedup: float,
    note: str,
) -> dict:
    single_edge = _pick_absent_edges(graph, 1, seed=100)
    identity = _assert_bit_identity(graph, single_edge, k)
    trickle = _trickle_comparison(
        graph, single_edge, k, rounds, max_epochs, min_epochs,
        target_speedup,
    )
    return {
        "graph": (
            f"{label}(n={graph.num_vertices}, m={graph.num_edges}, k={k})"
        ),
        "note": note,
        "identity": identity,
        "single_edge": trickle,
    }


def run_incremental_comparison(
    n: int = HEAD_N,
    m: int = HEAD_M,
    k: int = HEAD_K,
    rounds: int = ROUNDS,
    max_epochs: int = MAX_EPOCHS,
    min_epochs: int = MIN_EPOCHS,
    target_speedup: float = TARGET_SPEEDUP,
    curve_batch_sizes=CURVE_BATCH_SIZES,
    side_workloads: bool = True,
) -> dict:
    headline_graph = _er_graph(n, m)
    workloads = {
        "er_trickle": _workload_section(
            headline_graph, "ER", k, rounds, max_epochs, min_epochs,
            target_speedup,
            note=(
                "headline: sparse graph, a single edge changes a few "
                "thousand of millions of entries"
            ),
        ),
    }
    if side_workloads:
        workloads["fig3"] = _workload_section(
            _er_graph(FIG3_N, FIG3_M), "G", FIG3_K, rounds, max_epochs,
            min_epochs, float("inf"),
            note=(
                "small dense graph: the rebuild takes tens of "
                "milliseconds, so the delta's fixed costs weigh"
            ),
        )
        workloads["powerlaw"] = _workload_section(
            _powerlaw_graph(n, m), "PL", k, rounds, max_epochs,
            min_epochs, float("inf"),
            note=(
                "hub case: a hub near the edge spreads the change over "
                "its whole neighborhood"
            ),
        )

    # The honest degradation curve: batches growing toward whole-graph
    # churn on the headline workload, each under a shortened protocol
    # with no early-stop target — the crossover where the delta stops
    # and rebuilds is part of the result, not a failure.
    curve = []
    for size in curve_batch_sizes:
        if size > 1:
            _assert_bit_identity(
                headline_graph,
                _pick_absent_edges(headline_graph, size, seed=200 + size),
                k,
            )
        point = _trickle_comparison(
            headline_graph,
            _pick_absent_edges(headline_graph, size, seed=200 + size),
            k,
            rounds=2,
            max_epochs=1,
            min_epochs=1,
            target_speedup=float("inf"),
        )
        point.pop("all_epochs")
        curve.append(point)

    hub_copy = _copy_section(
        timed=True, rounds=rounds, max_epochs=max_epochs,
        min_epochs=min_epochs,
    ) if side_workloads else None

    speedup = workloads["er_trickle"]["single_edge"]["speedup"]
    payload = {
        "workload": {
            "k": k,
            "samples_per_requery": SAMPLES_PER_REQUERY,
            "rounds": rounds,
            "headline_workload": "er_trickle",
            "protocol": (
                "per round: incremental arm (live counter, update + "
                "requery) and rebuild arm (fresh build on the updated "
                "graph + requery) toggle the same edge batch in "
                "lockstep, interleaved with rotating start; epochs "
                f"until target (but at least {min_epochs}); reported "
                "figure = best per-epoch rebuild/incremental median "
                "ratio; table digest, estimates, and post-update RNG "
                "state asserted bit-identical to a fresh rebuild "
                "before any timing; headline speedup = er_trickle "
                "single-edge, side workloads reported as measured"
            ),
        },
        "workloads": workloads,
        "batch_curve": curve,
        "speedup": speedup,
        "target_speedup": target_speedup,
        "bit_identical": all(
            section["identity"]["bit_identical"]
            for section in workloads.values()
        ) and (hub_copy is None or hub_copy["bit_identical"]),
    }
    if hub_copy is not None:
        payload["hub_copy"] = hub_copy
    return payload


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI incremental smoke: smaller headline graph, no side "
             "workloads, shortened timing, noise-padded speedup floor; "
             "the bit-identity and RNG-state gates are unchanged; "
             "writes BENCH_INCREMENTAL_quick (results dir only)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        payload = run_incremental_comparison(
            n=QUICK_N, m=QUICK_M, rounds=2, max_epochs=3, min_epochs=1,
            target_speedup=QUICK_TARGET_SPEEDUP,
            curve_batch_sizes=(1, 64),
            side_workloads=False,
        )
        payload["quick"] = True
        payload["carried_store"] = _carried_store_check(
            _powerlaw_graph(HUB_N, HUB_M), HUB_K, HUB_UPDATES
        )
        payload["hub_copy"] = _copy_section(timed=False)
        emit_json("BENCH_INCREMENTAL_quick", payload)
    else:
        payload = run_incremental_comparison()
        payload["quick"] = False
        emit_json("BENCH_INCREMENTAL", payload, also_repo_root=True)

    def _row(label, trickle):
        return (
            label,
            f"{trickle['rebuild_seconds']:.3f}s",
            f"{trickle['incremental_seconds'] * 1000:.1f}ms",
            f"{trickle['speedup']:.1f}x",
            f"{trickle['rows_touched_per_update']:.0f}",
            f"{trickle['delta_entries_per_update']:.0f}",
            f"{trickle['delta_rebuilds']}",
        )

    rows = [
        _row(f"{name} single-edge", section["single_edge"])
        for name, section in payload["workloads"].items()
    ]
    for layout in ("dense", "succinct"):
        trickle = payload.get("hub_copy", {}).get(layout, {}).get(
            "single_edge"
        )
        if trickle:
            rows.append(_row(f"hub_copy {layout} single-edge", trickle))
    rows += [
        _row(f"curve batch={point['batch_size']}", point)
        for point in payload["batch_curve"]
    ]
    emit(
        "incremental_updates",
        format_table(
            [
                "workload", "rebuild", "incremental", "speedup", "rows",
                "entries", "rebuilds",
            ],
            rows,
        ),
    )
    assert payload["bit_identical"], payload
    assert payload["speedup"] >= payload["target_speedup"], payload
    if args.quick:
        assert payload["carried_store"]["kept_store"], payload
        assert payload["hub_copy"]["bit_identical"], payload


if __name__ == "__main__":
    main()
