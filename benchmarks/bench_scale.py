"""Scale trajectory: out-of-core sharded build vs the in-memory kernel.

The paper's point of pride is building counts for graphs whose tables
dwarf RAM.  This benchmark reproduces that story end to end at two
scales:

* ``--quick`` — ~450k edges, the CI smoke: asserts the sharded build is
  bit-identical to the in-memory one (table digests and estimate digests
  from separate processes), that the tracked working-set peak respects
  the byte budget, and that the sharded build's measured RSS stays below
  the in-memory build's.  Both runs also record the fingerprints of the
  streamed CSR and of ``load_edge_list`` on the same file, which CI
  asserts are equal.
* full (default) — a generator-synthesized power-law graph with 2M
  edges, streamed from a SNAP-style text file into an external CSR,
  built under a budget the in-memory working set exceeds.  Results land
  as ``BENCH_scale.json`` at the repository root (peak RSS per mode,
  edges/sec, digests).

Measurement protocol.  ``ru_maxrss`` is a high-water mark, so each
measurement runs in its own subprocess (``--measure`` sub-mode, one JSON
line on stdout) and modes are interleaved across repeats; the reported
figure is the per-mode minimum (the capability floor — interference only
inflates RSS).  A ``baseline`` mode loads the graph and materializes the
adjacency CSR without building, isolating the build's *delta* from the
interpreter + graph footprint all modes share.  Two traps this layout
dodges: on Linux a forked child *inherits* the parent's ``ru_maxrss``,
so the orchestrator stays numpy-free and delegates even graph synthesis
to a ``--prepare`` subprocess; and the build-phase RSS is snapshotted
before the digest/sampling phase pages the memmapped table back in.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_SRC = os.path.join(REPO_ROOT, "src")

# Quick scale is sized so the in-memory working set clearly exceeds the
# interpreter+scipy import-time RSS floor (~50MB) — smaller graphs make
# every mode report the import peak and the comparison degenerates.
QUICK = {"n": 150_000, "m": 450_000, "k": 5, "samples": 1_000, "repeats": 2}
FULL = {"n": 400_000, "m": 2_000_000, "k": 4, "samples": 10_000, "repeats": 3}
SEED = 7
#: The budget is this fraction of the modeled whole-graph working set,
#: so the unsharded build cannot fit it by construction.
BUDGET_DIVISOR = 3


def _digest_table(table) -> str:
    """Streaming sha256 over every layer's keys and count bytes.

    Memmap-backed layers are digested straight from their backing file
    in bounded chunks — paging the whole table in would defeat the RSS
    measurement this digest rides along with.
    """
    import hashlib

    import numpy as np

    digest = hashlib.sha256()
    for size in range(1, table.k + 1):
        if not table.has_layer(size):
            continue
        layer = table.layer(size)
        digest.update(repr(layer.keys).encode())
        counts = layer.dense_counts()
        if isinstance(counts, np.memmap):
            with open(counts.filename, "rb") as handle:
                handle.seek(counts.offset)
                while True:
                    chunk = handle.read(1 << 22)
                    if not chunk:
                        break
                    digest.update(chunk)
        else:
            step = max(1, (1 << 22) // max(1, counts.shape[1] * 8))
            for lo in range(0, counts.shape[0], step):
                digest.update(
                    np.ascontiguousarray(counts[lo:lo + step]).tobytes()
                )
    return digest.hexdigest()


def _digest_estimates(estimates) -> str:
    import hashlib

    rows = sorted(estimates.counts.items())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _prepare(args) -> dict:
    """Child: synthesize the graph, build the external CSR, plan shards."""
    import time

    sys.path.insert(0, os.path.join(REPO_ROOT, "tests"))
    from support.graphgen import synthesize_snap_file

    from repro.colorcoding.sharded import _plan_bytes, plan_shards
    from repro.graph.io import load_edge_list
    from repro.graph.stream import build_csr_external, open_external
    from repro.treelets.registry import TreeletRegistry

    edge_file = os.path.join(args.workdir, "graph.txt")
    synthesize_snap_file(edge_file, n=args.n, m=args.m, seed=SEED)
    csr_dir = os.path.join(args.workdir, "csr")
    start = time.perf_counter()
    build_csr_external(edge_file, csr_dir)
    parse_seconds = time.perf_counter() - start
    graph = open_external(csr_dir)
    # The streamed CSR must be the in-memory loader's graph, bit for bit.
    start = time.perf_counter()
    in_memory = load_edge_list(edge_file)
    load_seconds = time.perf_counter() - start
    registry = TreeletRegistry(args.k)
    whole_working_set = _plan_bytes(graph, registry, 1)
    budget = whole_working_set // BUDGET_DIVISOR
    return {
        "csr_dir": csr_dir,
        "parse_seconds": parse_seconds,
        "whole_working_set": whole_working_set,
        "budget": budget,
        "shards": plan_shards(graph, registry, budget),
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "fingerprints": {
            "external": graph.fingerprint(),
            "in_memory": in_memory.fingerprint(),
        },
        "load_seconds": load_seconds,
    }


def _measure(args) -> dict:
    """Child: one mode, one JSON result line on stdout."""
    import resource
    import time

    import numpy as np

    from repro.colorcoding.buildup import build_table
    from repro.colorcoding.coloring import ColoringScheme
    from repro.colorcoding.sharded import MemoryBudget, build_table_sharded
    from repro.colorcoding.urn import TreeletUrn
    from repro.graph.stream import open_external
    from repro.sampling.naive import naive_estimate
    from repro.sampling.occurrences import GraphletClassifier
    from repro.table.layer_store import ShardedStore
    from repro.treelets.registry import TreeletRegistry

    graph = open_external(args.csr_dir)
    adjacency = graph.adjacency_csr()
    result = {
        "mode": args.mode,
        "n": graph.num_vertices,
        "m": graph.num_edges,
    }
    if args.mode != "baseline":
        coloring = ColoringScheme.uniform(
            graph.num_vertices, args.k, rng=np.random.default_rng(SEED)
        )
        registry = TreeletRegistry(args.k)
        start = time.perf_counter()
        if args.mode == "inmem":
            table = build_table(graph, coloring, registry=registry)
            store = None
        else:
            store = ShardedStore(
                args.shards, tempfile.mkdtemp(prefix="bench-scale-"),
                owns_directory=True,
            )
            budget = MemoryBudget(args.budget)
            table = build_table_sharded(
                graph, coloring, registry=registry, store=store,
                memory_budget=budget,
            )
            result["tracked_peak_bytes"] = budget.peak
            result["budget_bytes"] = args.budget
            result["shards"] = args.shards
        result["build_seconds"] = time.perf_counter() - start
        result["edges_per_sec"] = graph.num_edges / result["build_seconds"]
        # Snapshot the high-water mark *now*: this is the build-phase
        # peak the budget governs.  The digest and sampling below page
        # table rows in at will and are reported separately.
        result["build_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss
        result["table_digest"] = _digest_table(table)
        urn = TreeletUrn(graph, table, coloring)
        classifier = GraphletClassifier(graph, args.k)
        estimates = naive_estimate(
            urn, classifier, args.samples, np.random.default_rng(SEED + 1)
        )
        result["estimates_digest"] = _digest_estimates(estimates)
        if store is not None:
            store.close()
    else:
        # Touch the shared inputs the builds also touch.
        result["adjacency_nnz"] = int(adjacency.nnz)
    result["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss
    result.setdefault("build_rss_kb", result["peak_rss_kb"])
    return result


def _child(extra_args) -> dict:
    command = [sys.executable, os.path.abspath(__file__)] + extra_args
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [REPO_SRC, env.get("PYTHONPATH", "")])
    )
    completed = subprocess.run(
        command, capture_output=True, text=True, env=env, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"child {extra_args[:2]} failed:\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_scale(params, quick: bool) -> dict:
    workdir = tempfile.mkdtemp(prefix="bench-scale-root-")
    print(
        f"synthesizing power-law graph: n={params['n']} m={params['m']}",
        flush=True,
    )
    plan = _child([
        "--prepare", "--workdir", workdir,
        "--n", str(params["n"]), "--m", str(params["m"]),
        "--k", str(params["k"]),
    ])
    print(
        f"external CSR build {plan['parse_seconds']:.1f}s; modeled "
        f"whole-graph working set {plan['whole_working_set']} bytes; "
        f"budget {plan['budget']} bytes -> {plan['shards']} shards",
        flush=True,
    )

    measure_args = [
        "--csr-dir", plan["csr_dir"],
        "--k", str(params["k"]), "--samples", str(params["samples"]),
        "--budget", str(plan["budget"]), "--shards", str(plan["shards"]),
    ]
    runs = {"baseline": [], "inmem": [], "sharded": []}
    for repeat in range(params["repeats"]):
        for mode in ("baseline", "inmem", "sharded"):
            outcome = _child(["--measure", "--mode", mode] + measure_args)
            runs[mode].append(outcome)
            print(
                f"repeat {repeat} {mode}: "
                f"build_rss={outcome['build_rss_kb']}KB "
                f"build={outcome.get('build_seconds', 0):.2f}s",
                flush=True,
            )

    floor = {
        mode: min(r["build_rss_kb"] for r in results)
        for mode, results in runs.items()
    }
    end_floor = {
        mode: min(r["peak_rss_kb"] for r in results)
        for mode, results in runs.items()
    }
    inmem, sharded = runs["inmem"][0], runs["sharded"][0]
    assert inmem["table_digest"] == sharded["table_digest"], (
        "sharded build is not bit-identical to the in-memory build"
    )
    assert inmem["estimates_digest"] == sharded["estimates_digest"], (
        "sharded-table estimates diverge from the in-memory table's"
    )
    assert sharded["tracked_peak_bytes"] <= plan["budget"], (
        f"tracked peak {sharded['tracked_peak_bytes']} exceeds the "
        f"{plan['budget']}-byte budget"
    )
    assert floor["sharded"] < floor["inmem"], (
        f"sharded RSS floor {floor['sharded']}KB did not undercut the "
        f"in-memory build's {floor['inmem']}KB"
    )
    payload = {
        "protocol": {
            "graph": {
                "generator": "chung-lu powerlaw",
                "n": plan["n"],
                "m": plan["m"],
                "seed": SEED,
            },
            "k": params["k"],
            "samples": params["samples"],
            "repeats": params["repeats"],
            "quick": quick,
            "notes": (
                "one subprocess per measurement (ru_maxrss is a "
                "high-water mark and is inherited across fork, so the "
                "orchestrator stays numpy-free), modes interleaved, "
                "per-mode minimum reported; baseline = graph + "
                "adjacency CSR, no build; build_rss snapshotted before "
                "the digest/sampling phase pages the table back in"
            ),
        },
        "budget_bytes": plan["budget"],
        "modeled_whole_working_set_bytes": plan["whole_working_set"],
        "shards": plan["shards"],
        "tracked_peak_bytes": sharded["tracked_peak_bytes"],
        "external_csr_seconds": plan["parse_seconds"],
        "in_memory_load_seconds": plan["load_seconds"],
        "graph_fingerprints": plan["fingerprints"],
        "build_rss_floor_kb": floor,
        "process_rss_floor_kb": end_floor,
        "build_delta_kb": {
            "inmem": floor["inmem"] - floor["baseline"],
            "sharded": floor["sharded"] - floor["baseline"],
        },
        "build_seconds": {
            "inmem": min(r["build_seconds"] for r in runs["inmem"]),
            "sharded": min(r["build_seconds"] for r in runs["sharded"]),
        },
        "edges_per_sec": {
            "inmem": max(r["edges_per_sec"] for r in runs["inmem"]),
            "sharded": max(r["edges_per_sec"] for r in runs["sharded"]),
        },
        "table_digest": inmem["table_digest"],
        "estimates_digest": inmem["estimates_digest"],
        "bit_identical": True,
    }
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--measure", action="store_true")
    parser.add_argument("--mode", choices=["baseline", "inmem", "sharded"])
    parser.add_argument("--workdir")
    parser.add_argument("--csr-dir")
    parser.add_argument("--n", type=int)
    parser.add_argument("--m", type=int)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--budget", type=int, default=0)
    parser.add_argument("--shards", type=int, default=1)
    args = parser.parse_args(argv)

    if args.prepare or args.measure:
        if REPO_SRC not in sys.path:
            sys.path.insert(0, REPO_SRC)
        print(json.dumps(_prepare(args) if args.prepare else _measure(args)))
        return 0

    params = QUICK if args.quick else FULL
    payload = run_scale(params, quick=args.quick)

    # Import common (which pulls in numpy) only now: importing it before
    # the children run would donate its RSS to every fork's high-water
    # mark and poison the measurement.
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if REPO_SRC not in sys.path:
        sys.path.insert(0, REPO_SRC)
    from common import emit_json

    # Quick runs land in benchmarks/results/ only; the tracked repo-root
    # trajectory file records the full-scale protocol.
    if args.quick:
        emit_json("BENCH_scale_quick", payload)
    else:
        emit_json("BENCH_scale", payload, also_repo_root=True)
    print(
        f"OK: bit-identical at n={params['n']} m={params['m']}; "
        f"sharded build delta {payload['build_delta_kb']['sharded']}KB vs "
        f"in-memory {payload['build_delta_kb']['inmem']}KB under a "
        f"{payload['budget_bytes']}-byte budget ({payload['shards']} shards)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
