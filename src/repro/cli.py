"""Command-line interface — the ``motivo-py`` tool.

Motivo ships as a command-line program (build the tables, then sample);
this CLI mirrors that workflow:

``motivo-py generate <dataset> out.txt``
    Write one of the surrogate datasets as an edge list.
``motivo-py count <graph> --k 5 [--ags] [--samples N]``
    End to end: load, build, sample, print the estimated motif table
    (one-shot; nothing persists).
``motivo-py build <graph> --k 5 --seed 7 --output DIR``
    Run the build-up phase once and persist the count table (or, with
    ``--colorings N``, the whole ensemble) as an on-disk artifact.
``motivo-py sample <artifact> --samples N [--naive | --ags]``
    Reopen a persisted artifact — dense layers memory-mapped, no
    rebuild — and print estimates.  With the seed fixed at build time
    the output is bit-identical to a one-shot ``count``.
``motivo-py update <artifact> --updates FILE``
    Delta-maintain a persisted table under edge insertions/deletions:
    push the batch through each level as sparse deltas instead of
    rebuilding (:func:`repro.motivo.update_step`, as ``POST /update``
    does), append it to the artifact's edge log and fold the log into
    the blobs — bit-identical to a fresh build on the updated graph
    (``docs/artifacts.md``).
``motivo-py serve --artifact-dir DIR --port P``
    Long-lived serving: keep the cached tables warm and answer
    concurrent ``/count`` JSON queries (see ``docs/serving.md``).
``motivo-py exact <graph> --k 4``
    Exact ESU counts (small graphs only).
``motivo-py info <graph>``
    Basic statistics.
``motivo-py stats <file>``
    Pretty-print a telemetry snapshot (``--stats-out`` JSON) or a span
    trace (``--trace-out`` JSON-lines), including histogram p50/p99.

Graphs load from ``.txt`` edge lists or ``.npz`` binaries.

Progress/notice lines go through stdlib :mod:`logging` to stderr
(``--log-level``, ``--log-json`` — global flags, given before the
subcommand); results stay on stdout, so piping estimates keeps working.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
import threading
import time
from typing import List, Optional

from repro.errors import ReproError
from repro.exact.esu import exact_counts
from repro.graph.datasets import dataset_names, load_dataset
from repro.graph.graph import Graph
from repro.graph.io import load_graph, save_binary, save_edge_list
from repro.graphlets.encoding import decode_graphlet, graphlet_edge_count
from repro.colorcoding.urn import DEFAULT_DESCENT_CACHE_BYTES
from repro.motivo import MotivoConfig, MotivoCounter
from repro.sampling.naive import DEFAULT_BATCH_SIZE
from repro.telemetry import TelemetryConfig

__all__ = ["main", "build_parser"]

_LOG = logging.getLogger("motivo")


class _JsonLogFormatter(logging.Formatter):
    """One JSON object per log line (``--log-json``)."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 3),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True)


def _configure_logging(args: argparse.Namespace) -> None:
    """Point the root logger at (the current) stderr.

    ``force=True`` replaces handlers installed by an earlier
    :func:`main` call in the same process, so repeated invocations
    (tests, notebooks) always log to the *current* ``sys.stderr``.
    """
    handler = logging.StreamHandler(sys.stderr)
    if getattr(args, "log_json", False):
        handler.setFormatter(_JsonLogFormatter())
    else:
        handler.setFormatter(logging.Formatter("%(message)s"))
    level = getattr(
        logging, str(getattr(args, "log_level", "info")).upper(),
        logging.INFO,
    )
    logging.basicConfig(level=level, handlers=[handler], force=True)


def _telemetry_config(args: argparse.Namespace) -> Optional[TelemetryConfig]:
    """The command's telemetry config (``None`` when nothing is on)."""
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        return None
    return TelemetryConfig(trace_out=trace_out)


def _write_stats(path: str, instrumentation) -> None:
    """Dump a telemetry snapshot as JSON (readable by ``stats``)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            instrumentation.snapshot(), handle, indent=2, sort_keys=True
        )
        handle.write("\n")
    _LOG.info("telemetry snapshot written to %s", path)

_BYTE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def _parse_bytes(text: str) -> int:
    """Parse a byte count with optional K/M/G suffix (e.g. ``256M``)."""
    raw = text.strip().lower().removesuffix("b")
    scale = 1
    if raw and raw[-1] in _BYTE_SUFFIXES:
        scale = _BYTE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(float(raw) * scale)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a byte count (expected e.g. 800000, 64M, 2G)"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError("byte count must be positive")
    return value


def _batch_size(text: str) -> int:
    """Parse ``--batch-size``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="motivo-py",
        description="Approximate motif counting via color coding (Motivo reproduction)",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"], default="info",
        help="stderr logging threshold for progress/notice lines "
             "(default info; results always print to stdout)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log lines as JSON objects instead of plain text",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a surrogate dataset as an edge list"
    )
    generate.add_argument("dataset", choices=sorted(dataset_names()))
    generate.add_argument("output", help=".txt edge list or .npz binary path")

    count = commands.add_parser(
        "count", help="build + sample + print estimated motif counts"
    )
    count.add_argument("graph", help="edge list (.txt) or binary (.npz) path, or dataset name")
    count.add_argument("--k", type=int, default=5, help="motif size (default 5)")
    count.add_argument("--samples", type=int, default=20000, help="sampling budget")
    count.add_argument("--ags", action="store_true", help="use adaptive graphlet sampling")
    count.add_argument(
        "--cover-threshold", type=int, default=300,
        help="AGS covering threshold c̄ (default 300)",
    )
    count.add_argument("--seed", type=int, default=None, help="master seed")
    count.add_argument(
        "--colorings", type=int, default=1,
        help="average over this many independent colorings via the "
             "ensemble engine (paper: 20; default 1)",
    )
    count.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the coloring ensemble (default serial)",
    )
    count.add_argument(
        "--batch-size", type=_batch_size, default=DEFAULT_BATCH_SIZE,
        help="cap on the samples per vectorized sampling chunk, at "
             "least 1 and raised to the default; no estimate depends "
             f"on it (default {DEFAULT_BATCH_SIZE})",
    )
    count.add_argument(
        "--table-layout", choices=["dense", "succinct"], default="dense",
        help="in-memory count-table layout: dense matrices or the "
             "paper's succinct CSR records (same estimates either way; "
             "succinct holds O(stored pairs) resident)",
    )
    count.add_argument(
        "--descent-cache-bytes", type=int,
        default=DEFAULT_DESCENT_CACHE_BYTES,
        help="budget for the sampler's cached gathered-cumulative rows; "
             "rows past it are rebuilt per batch (default "
             f"{DEFAULT_DESCENT_CACHE_BYTES})",
    )
    count.add_argument(
        "--biased-lambda", type=float, default=None,
        help="biased-coloring λ (§3.4); omit for uniform coloring",
    )
    count.add_argument(
        "--no-zero-rooting", action="store_true", help="disable the §3.2 optimization"
    )
    count.add_argument("--top", type=int, default=20, help="rows to print")
    count.add_argument(
        "--memory-budget", type=_parse_bytes, default=None,
        help="hard byte budget for the build working set (suffixes K/M/G; "
             "runs the out-of-core sharded build, bit-identical counts)",
    )
    count.add_argument(
        "--shards", type=int, default=None,
        help="explicit vertex-shard count for the sharded build "
             "(default: planned from --memory-budget)",
    )
    count.add_argument(
        "--shard-jobs", type=int, default=1,
        help="worker processes for the sharded build's shard fan-out",
    )
    count.add_argument(
        "--noninduced", action="store_true",
        help="also derive non-induced copy counts (§1 conversion)",
    )
    count.add_argument(
        "--output", default=None,
        help="write the estimates as JSON to this path",
    )
    count.add_argument(
        "--trace-out", default=None,
        help="record build/sample stage spans as JSON lines to this "
             "path (never touches the RNG streams)",
    )
    count.add_argument(
        "--stats-out", default=None,
        help="write the run's telemetry snapshot as JSON to this path "
             "(pretty-print it with 'motivo-py stats')",
    )

    build = commands.add_parser(
        "build",
        help="build once: persist the count table(s) as an on-disk artifact",
    )
    build.add_argument("graph", help="edge list (.txt), binary (.npz), or dataset name")
    build.add_argument("--k", type=int, default=5, help="motif size (default 5)")
    build.add_argument(
        "--seed", type=int, default=None,
        help="master seed (fix it to make later sample runs bit-identical "
             "to a one-shot count)",
    )
    build.add_argument(
        "--output", "-o", required=True,
        help="artifact directory to write",
    )
    build.add_argument(
        "--codec", choices=["dense", "succinct"], default="dense",
        help="count-blob codec: dense reopens memory-mapped, succinct is "
             "smallest on disk (default dense)",
    )
    build.add_argument(
        "--colorings", type=int, default=1,
        help="build an ensemble artifact bundling this many independent "
             "colorings (default 1: a single table artifact)",
    )
    build.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for an ensemble build (default serial)",
    )
    build.add_argument(
        "--table-layout", choices=["dense", "succinct"], default="dense",
        help="in-memory layout during the build (recorded in the "
             "artifact; succinct seals layers as they retire from the "
             "build frontier)",
    )
    build.add_argument(
        "--biased-lambda", type=float, default=None,
        help="biased-coloring λ (§3.4); omit for uniform coloring",
    )
    build.add_argument(
        "--no-zero-rooting", action="store_true",
        help="disable the §3.2 optimization",
    )
    build.add_argument(
        "--memory-budget", type=_parse_bytes, default=None,
        help="hard byte budget for the build working set (suffixes K/M/G; "
             "runs the out-of-core sharded build, bit-identical tables)",
    )
    build.add_argument(
        "--shards", type=int, default=None,
        help="explicit vertex-shard count for the sharded build "
             "(default: planned from --memory-budget)",
    )
    build.add_argument(
        "--shard-jobs", type=int, default=1,
        help="worker processes for the sharded build's shard fan-out",
    )
    build.add_argument(
        "--descent-cache-bytes", type=int,
        default=DEFAULT_DESCENT_CACHE_BYTES,
        help="gathered-cumulative row budget recorded in the artifact "
             "(later sample/serve runs adopt it; default "
             f"{DEFAULT_DESCENT_CACHE_BYTES})",
    )
    build.add_argument(
        "--trace-out", default=None,
        help="record build stage spans as JSON lines to this path",
    )

    sample = commands.add_parser(
        "sample",
        help="sample many: estimate motifs from a persisted artifact, "
             "no rebuild",
    )
    sample.add_argument("artifact", help="artifact directory written by build")
    sample.add_argument(
        "--graph", default=None,
        help="host graph (path or dataset name); defaults to the source "
             "recorded in the artifact manifest",
    )
    sample.add_argument("--samples", type=int, default=20000, help="sampling budget")
    estimator = sample.add_mutually_exclusive_group()
    estimator.add_argument(
        "--naive", action="store_true",
        help="CC-style naive sampling (the default)",
    )
    estimator.add_argument(
        "--ags", action="store_true", help="use adaptive graphlet sampling"
    )
    sample.add_argument(
        "--cover-threshold", type=int, default=300,
        help="AGS covering threshold c̄ (default 300)",
    )
    sample.add_argument(
        "--seed", type=int, default=None,
        help="reseed the sampling stream (table artifacts only); by "
             "default the stream resumes from the state recorded at "
             "build time, reproducing a one-shot count bit for bit",
    )
    sample.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes when sampling an ensemble artifact",
    )
    sample.add_argument(
        "--batch-size", type=_batch_size, default=None,
        help="cap on the samples per vectorized sampling chunk, at "
             "least 1 (default: the value recorded at build time); no "
             "estimate depends on it",
    )
    sample.add_argument(
        "--table-layout", choices=["dense", "succinct"], default=None,
        help="force the in-memory layout when reopening the artifact "
             "(every member, for ensembles; default: the layout "
             "recorded at build time, else the codec's native layout; "
             "estimates are identical either way)",
    )
    sample.add_argument(
        "--verify", action="store_true",
        help="recompute blob digests (every member, for ensembles) "
             "before sampling",
    )
    sample.add_argument("--top", type=int, default=20, help="rows to print")
    sample.add_argument(
        "--noninduced", action="store_true",
        help="also derive non-induced copy counts (§1 conversion)",
    )
    sample.add_argument(
        "--output", default=None,
        help="write the estimates as JSON to this path",
    )
    sample.add_argument(
        "--trace-out", default=None,
        help="record sampling stage spans as JSON lines to this path",
    )
    sample.add_argument(
        "--stats-out", default=None,
        help="write the run's telemetry snapshot as JSON to this path",
    )

    update = commands.add_parser(
        "update",
        help="delta-maintain a persisted table artifact under edge "
             "updates (no rebuild)",
    )
    update.add_argument(
        "artifact", help="table artifact directory written by build"
    )
    update.add_argument(
        "--updates", required=True,
        help="edge-update file: one '+ u v' (insert) or '- u v' "
             "(delete) per line, '#' comments; last op on an edge wins",
    )
    update.add_argument(
        "--graph", default=None,
        help="host graph (path or dataset name); defaults to the source "
             "recorded in the artifact manifest",
    )
    update.add_argument(
        "--trace-out", default=None,
        help="record the update stage span as JSON lines to this path",
    )
    update.add_argument(
        "--stats-out", default=None,
        help="write the run's telemetry snapshot as JSON to this path",
    )

    serve = commands.add_parser(
        "serve",
        help="serve count queries over warm artifacts (JSON over HTTP)",
    )
    serve.add_argument(
        "--artifact-dir", required=True,
        help="artifact cache root to serve (the build --output / "
             "MotivoConfig.artifact_dir directory)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port (0 picks an ephemeral one; default 8765)",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="log one line per HTTP request to stderr",
    )
    serve.add_argument(
        "--trace-out", default=None,
        help="record one serve.count span (plus nested sampling spans) "
             "per request as JSON lines to this path",
    )

    exact = commands.add_parser("exact", help="exact ESU counts (small graphs)")
    exact.add_argument("graph")
    exact.add_argument("--k", type=int, default=4)
    exact.add_argument("--top", type=int, default=20)

    info = commands.add_parser("info", help="basic graph statistics")
    info.add_argument("graph")

    tune = commands.add_parser(
        "suggest-lambda",
        help="pick a biased-coloring lambda by the §3.4 growth procedure",
    )
    tune.add_argument("graph")
    tune.add_argument("--k", type=int, default=5)
    tune.add_argument("--target-fraction", type=float, default=0.01)
    tune.add_argument("--seed", type=int, default=None)

    profile = commands.add_parser(
        "profile",
        help="motif frequency fingerprint of a graph (for comparison)",
    )
    profile.add_argument("graph")
    profile.add_argument("--k", type=int, default=5)
    profile.add_argument("--samples", type=int, default=20000)
    profile.add_argument("--seed", type=int, default=None)

    stats = commands.add_parser(
        "stats",
        help="pretty-print a telemetry snapshot (--stats-out) or span "
             "trace (--trace-out) file",
    )
    stats.add_argument(
        "file",
        help="a snapshot JSON document or a JSON-lines trace "
             "(auto-detected)",
    )
    stats.add_argument(
        "--top", type=int, default=20,
        help="span names to show for traces (default 20)",
    )
    return parser


def _load_graph(spec: str) -> Graph:
    return load_graph(spec)


def _describe(bits: int, k: int) -> str:
    edges = graphlet_edge_count(bits)
    name = ""
    max_edges = k * (k - 1) // 2
    if edges == max_edges:
        name = " (clique)"
    elif edges == k - 1:
        from repro.graphlets.enumerate import path_graphlet, star_graphlet

        if bits == star_graphlet(k):
            name = " (star)"
        elif bits == path_graphlet(k):
            name = " (path)"
    return f"{bits:#x} [{edges} edges]{name}"


def _print_counts(rows: "list[tuple[int, float]]", k: int, total: float) -> None:
    print(f"{'graphlet':<28}{'est. count':>16}{'frequency':>14}")
    for bits, value in rows:
        frequency = value / total if total > 0 else 0.0
        print(f"{_describe(bits, k):<28}{value:>16.1f}{frequency:>14.3e}")


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset)
    if args.output.endswith(".npz"):
        save_binary(graph, args.output)
    else:
        save_edge_list(graph, args.output)
    _LOG.info(
        "wrote %s: n=%d m=%d -> %s",
        args.dataset, graph.num_vertices, graph.num_edges, args.output,
    )
    return 0


def _report_estimates(estimates, top: int, noninduced: bool, output) -> None:
    """Shared tail of ``count`` and ``sample``: table, conversions, JSON."""
    k = estimates.k
    if estimates.empty_urn:
        _LOG.warning(
            "empty urn: the coloring produced no colorful k-treelets "
            "(reporting 0 occurrences for every graphlet)"
        )
    print(
        f"distinct graphlets observed: {estimates.distinct_graphlets()}; "
        f"estimated total copies: {estimates.total:.3e}"
    )
    _print_counts(estimates.top(top), k, estimates.total)
    if noninduced:
        from repro.graphlets.noninduced import noninduced_counts

        derived = noninduced_counts(estimates.counts, k)
        total = sum(derived.values())
        print("\nderived non-induced copy counts:")
        ranked = sorted(derived.items(), key=lambda kv: -kv[1])[:top]
        _print_counts(ranked, k, total)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(estimates.to_json())
        _LOG.info("estimates written to %s", output)


def _cmd_count(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    config = MotivoConfig(
        k=args.k,
        seed=args.seed,
        zero_rooting=not args.no_zero_rooting,
        biased_lambda=args.biased_lambda,
        batch_size=args.batch_size,
        table_layout=args.table_layout,
        descent_cache_bytes=args.descent_cache_bytes,
        memory_budget=args.memory_budget,
        num_shards=args.shards,
        shard_jobs=args.shard_jobs,
        telemetry=_telemetry_config(args),
    )
    if args.colorings > 1:
        estimates, instrumentation = _run_ensemble(graph, config, args)
    else:
        estimates, instrumentation = _run_single(graph, config, args)
    if args.stats_out:
        _write_stats(args.stats_out, instrumentation)
    _report_estimates(estimates, args.top, args.noninduced, args.output)
    return 0


def _run_single(graph, config, args):
    counter = MotivoCounter(graph, config)
    start = time.perf_counter()
    counter.build()
    build_seconds = time.perf_counter() - start
    _LOG.info(
        "build-up: n=%d m=%d k=%d in %.2fs",
        graph.num_vertices, graph.num_edges, args.k, build_seconds,
    )
    if counter.build_budget is not None:
        budget = counter.build_budget
        ceiling = f"/{budget.limit}" if budget.limit is not None else ""
        _LOG.info(
            "sharded build: %d shards, tracked peak %d%s bytes",
            counter.store.num_shards, budget.peak, ceiling,
        )
    start = time.perf_counter()
    if args.ags:
        result = counter.sample_ags(args.samples, args.cover_threshold)
        estimates = result.estimates
        _LOG.info(
            "AGS: %d samples, %d covered, %d shape switches, %.2fs",
            args.samples, len(result.covered), result.switches,
            time.perf_counter() - start,
        )
    else:
        estimates = counter.sample_naive(args.samples)
        _LOG.info(
            "naive sampling: %d samples in %.2fs",
            args.samples, time.perf_counter() - start,
        )
    if counter.build_budget is not None:
        # One-shot run: drop the sharded build's scratch directory (it
        # defaults to a fresh tempdir the counter owns).
        counter.close()
    return estimates, counter.instrumentation


def _run_ensemble(graph, config, args):
    from repro.engine import PipelineEngine

    engine = PipelineEngine(
        graph, config, colorings=args.colorings, jobs=args.jobs
    )
    start = time.perf_counter()
    if args.ags:
        result = engine.run_ags(args.samples, args.cover_threshold)
    else:
        result = engine.run_naive(args.samples)
    seconds = time.perf_counter() - start
    inst = result.instrumentation
    _LOG.info(
        "ensemble: n=%d m=%d k=%d: %d colorings x %d samples "
        "on %d job(s) in %.2fs (%d empty, %.2fs total build)",
        graph.num_vertices, graph.num_edges, args.k,
        result.colorings, args.samples, args.jobs, seconds,
        result.empty_runs, inst.timings["buildup"],
    )
    return result.estimates, inst


def _cmd_build(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    config = MotivoConfig(
        k=args.k,
        seed=args.seed,
        zero_rooting=not args.no_zero_rooting,
        biased_lambda=args.biased_lambda,
        table_layout=args.table_layout,
        descent_cache_bytes=args.descent_cache_bytes,
        memory_budget=args.memory_budget,
        num_shards=args.shards,
        shard_jobs=args.shard_jobs,
        telemetry=_telemetry_config(args),
    )
    start = time.perf_counter()
    if args.colorings > 1:
        from repro.engine import PipelineEngine

        engine = PipelineEngine(
            graph, config, colorings=args.colorings, jobs=args.jobs
        )
        bundle = engine.build_artifact(
            args.output, codec=args.codec, source=args.graph
        )
        built = sum(1 for member in bundle.manifest["members"] if member)
        _LOG.info(
            "ensemble artifact: %d/%d colorings built (k=%d, codec=%s) "
            "in %.2fs -> %s",
            built, args.colorings, args.k, args.codec,
            time.perf_counter() - start, args.output,
        )
        return 0
    with MotivoCounter(graph, config) as counter:
        counter.build()
        artifact = counter.save_artifact(
            args.output, codec=args.codec, source=args.graph
        )
    manifest = artifact.manifest
    _LOG.info(
        "table artifact: k=%d codec=%s %d layers, %d pairs, %d bytes "
        "(%.1f bits/pair vs paper's 176) in %.2fs -> %s",
        args.k, args.codec, len(manifest["layers"]),
        artifact.total_pairs(), artifact.payload_bytes(),
        artifact.bits_per_pair(), time.perf_counter() - start,
        args.output,
    )
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    from repro.artifacts import ENSEMBLE_FORMAT, load_manifest

    manifest = load_manifest(args.artifact)
    source = args.graph or manifest.get("graph", {}).get("source")
    if not source:
        print(
            "error: the artifact records no graph source; pass --graph",
            file=sys.stderr,
        )
        return 1
    graph = _load_graph(source)
    mode = "ags" if args.ags else "naive"
    start = time.perf_counter()
    if manifest.get("format") == ENSEMBLE_FORMAT:
        if args.seed is not None:
            print(
                "error: --seed applies to table artifacts only (ensemble "
                "seeds are fixed at build time)",
                file=sys.stderr,
            )
            return 1
        from repro.engine import PipelineEngine

        if args.verify:
            from repro.artifacts import EnsembleArtifact

            EnsembleArtifact(args.artifact, manifest).verify()
        # The engine restores each member's recorded build/sampling
        # parameters from its own manifest — that fidelity is what keeps
        # `sample` bit-identical to the live ensemble; --batch-size is an
        # explicit override of the chunk cap, which no estimate reads.
        engine = PipelineEngine(
            graph,
            MotivoConfig(
                k=int(manifest["k"]), telemetry=_telemetry_config(args)
            ),
            colorings=len(manifest["seeds"]),
            jobs=args.jobs,
        )
        if mode == "ags":
            result = engine.run_ags(
                args.samples, args.cover_threshold,
                artifact=args.artifact, batch_size=args.batch_size,
                table_layout=args.table_layout,
            )
        else:
            result = engine.run_naive(
                args.samples,
                artifact=args.artifact, batch_size=args.batch_size,
                table_layout=args.table_layout,
            )
        estimates = result.estimates
        instrumentation = result.instrumentation
        _LOG.info(
            "sampled ensemble artifact: %d colorings x %d %s samples on "
            "%d job(s) in %.2fs (no rebuild, %d empty)",
            result.colorings, args.samples, mode, args.jobs,
            time.perf_counter() - start, result.empty_runs,
        )
    else:
        counter = MotivoCounter.from_artifact(
            graph, args.artifact, verify=args.verify, reseed=args.seed,
            table_layout=args.table_layout,
        )
        counter.configure_telemetry(_telemetry_config(args))
        # from_artifact restored the recorded batch_size; an explicit
        # flag overrides it (it only caps the chunk size).
        if args.batch_size is not None:
            counter.config.batch_size = args.batch_size
        if mode == "ags":
            estimates = counter.sample_ags(
                args.samples, args.cover_threshold
            ).estimates
        else:
            estimates = counter.sample_naive(args.samples)
        instrumentation = counter.instrumentation
        _LOG.info(
            "sampled table artifact: %d %s samples in %.2fs "
            "(memory-mapped, no rebuild)",
            args.samples, mode, time.perf_counter() - start,
        )
    if args.stats_out:
        _write_stats(args.stats_out, instrumentation)
    _report_estimates(estimates, args.top, args.noninduced, args.output)
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    from repro.artifacts import (
        ENSEMBLE_FORMAT,
        append_edge_log,
        compact_table,
        load_manifest,
        log_rows,
    )
    from repro.graph.io import load_updates

    manifest = load_manifest(args.artifact)
    if manifest.get("format") == ENSEMBLE_FORMAT:
        print(
            "error: update applies to table artifacts (rebuild ensemble "
            "members with 'build --colorings N')",
            file=sys.stderr,
        )
        return 1
    source = args.graph or manifest.get("graph", {}).get("source")
    if not source:
        print(
            "error: the artifact records no graph source; pass --graph",
            file=sys.stderr,
        )
        return 1
    graph = _load_graph(source)
    updates = load_updates(args.updates)
    start = time.perf_counter()
    counter = MotivoCounter.from_artifact(graph, args.artifact)
    try:
        counter.configure_telemetry(_telemetry_config(args))
        stats = counter.update(updates)
        changes = stats.pop("changes")
        if stats["updates_applied"]:
            manifest = append_edge_log(
                args.artifact,
                manifest,
                changes,
                counter.graph,
                instrumentation=counter.instrumentation,
            )
        folded = log_rows(manifest) > 0
        if folded:
            # Fold the log before exiting (updated graph embedded, so
            # later sample/update/serve runs resolve it without --graph).
            compact_table(
                args.artifact,
                manifest,
                counter.table,
                counter.coloring,
                counter.graph,
                descent_program=(
                    counter.urn.descent_program()
                    if counter.urn is not None else None
                ),
            )
        if args.stats_out:
            _write_stats(args.stats_out, counter.instrumentation)
    finally:
        counter.close()
    _LOG.info(
        "%s update: %d entries -> %d applied (+%d/-%d), %d rows touched, "
        "%d entries changed, %d rebuilds, %.3fs propagate, %.2fs total%s",
        stats["mode"], len(updates), stats["updates_applied"],
        stats["edges_added"], stats["edges_removed"],
        stats["rows_touched"], stats["delta_entries"],
        stats["delta_rebuilds"], stats["propagate_seconds"],
        time.perf_counter() - start,
        "" if folded else " (artifact unchanged)",
    )
    print(json.dumps(stats, sort_keys=True))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import SamplingService, serve_http

    service = SamplingService(
        args.artifact_dir, telemetry=_telemetry_config(args)
    )
    entries = service.artifacts()
    server = serve_http(
        service, host=args.host, port=args.port, quiet=not args.verbose
    )
    host, port = server.server_address[:2]
    # A deliberate print (flushed stdout, not a log line): wrapper
    # scripts — the CI smoke test included — block on this line to know
    # the port is bound, whatever --log-level is in effect.
    print(
        f"serving {len(entries)} artifact(s) from {args.artifact_dir} "
        f"on http://{host}:{port} (/count /artifacts /healthz /metrics); "
        "Ctrl-C stops",
        flush=True,
    )
    # SIGTERM (kill, CI, systemd, containers) stops the server the way
    # Ctrl-C does, so the close below still folds every edge log.
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    start = time.perf_counter()
    counts = exact_counts(graph, args.k)
    seconds = time.perf_counter() - start
    total = float(sum(counts.values()))
    print(
        f"exact ESU: {len(counts)} distinct {args.k}-graphlets, "
        f"{total:.0f} occurrences, {seconds:.2f}s"
    )
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])[: args.top]
    _print_counts([(bits, float(count)) for bits, count in ranked], args.k, total)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    degrees = graph.degrees()
    print(f"n = {graph.num_vertices}")
    print(f"m = {graph.num_edges}")
    if graph.num_vertices:
        print(f"max degree = {graph.max_degree}")
        print(f"mean degree = {degrees.mean():.2f}")
        print(f"connected = {graph.is_connected()}")
    return 0


def _cmd_suggest_lambda(args: argparse.Namespace) -> int:
    from repro.sampling.bounds import suggest_lambda
    from repro.util.combinatorics import (
        biased_colorful_probability,
        colorful_probability,
    )

    graph = _load_graph(args.graph)
    lam = suggest_lambda(
        graph, args.k,
        target_fraction=args.target_fraction, rng=args.seed,
    )
    uniform_p = colorful_probability(args.k)
    print(f"suggested lambda: {lam:.6g}  (uniform would be {1 / args.k:.4f})")
    if lam < 1.0 / args.k:
        biased_p = biased_colorful_probability(args.k, lam)
        print(
            f"colorful probability: {biased_p:.3e} "
            f"(uniform {uniform_p:.3e}, variance factor "
            f"~{uniform_p / biased_p:.1f}x)"
        )
    else:
        print("bias buys nothing on this graph; use the uniform coloring")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    counter = MotivoCounter(graph, MotivoConfig(k=args.k, seed=args.seed))
    counter.build()
    estimates = counter.sample_naive(args.samples)
    frequencies = sorted(
        estimates.frequencies().items(), key=lambda kv: -kv[1]
    )
    print(f"motif profile (k={args.k}, {args.samples} samples):")
    for bits, frequency in frequencies:
        print(f"{_describe(bits, args.k):<28}{frequency:>12.4e}")
    return 0


def _print_snapshot_stats(snapshot: dict) -> int:
    """Pretty-print one telemetry snapshot document."""
    from repro.telemetry import histogram_quantile

    families: "dict[str, dict]" = {
        "count.": {}, "time.": {}, "gauge.": {}, "hist.": {},
    }
    for name, value in snapshot.items():
        for prefix, bucket in families.items():
            if name.startswith(prefix):
                bucket[name[len(prefix):]] = value
                break
    counters, timers, gauges, hists = (
        families["count."], families["time."],
        families["gauge."], families["hist."],
    )
    if counters:
        print("counters:")
        for name in sorted(counters):
            print(f"  {name:<44}{counters[name]:>18.0f}")
    if timers:
        print("timers (total seconds):")
        for name in sorted(timers):
            print(f"  {name:<44}{timers[name]:>18.6f}")
    if gauges:
        print("gauges:")
        for name in sorted(gauges):
            print(f"  {name:<44}{gauges[name]:>18.3f}")
    for name in sorted(hists):
        state = hists[name]
        observations = int(sum(state.get("counts", [])))
        print(
            f"histogram {name}: n={observations} "
            f"sum={float(state.get('sum', 0.0)):.6f} "
            f"p50={histogram_quantile(state, 0.5):.6f} "
            f"p99={histogram_quantile(state, 0.99):.6f}"
        )
    if not any((counters, timers, gauges, hists)):
        print("empty snapshot (no telemetry families recorded)")
    return 0


def _print_trace_stats(spans: "list[dict]", top: int) -> int:
    """Aggregate and print one JSON-lines span trace."""
    by_name: "dict[str, list[float]]" = {}
    traces = set()
    errors = 0
    for record in spans:
        name = str(record.get("name", "?"))
        by_name.setdefault(name, []).append(
            float(record.get("dur_ms", 0.0))
        )
        if record.get("trace"):
            traces.add(record["trace"])
        if record.get("error"):
            errors += 1
    print(
        f"{len(spans)} spans in {len(traces)} trace(s)"
        + (f", {errors} error span(s)" if errors else "")
    )
    print(
        f"{'span':<28}{'count':>8}{'total ms':>14}{'mean ms':>12}"
        f"{'max ms':>12}"
    )
    ranked = sorted(
        by_name.items(), key=lambda item: -sum(item[1])
    )[:top]
    for name, durations in ranked:
        total = sum(durations)
        print(
            f"{name:<28}{len(durations):>8}{total:>14.3f}"
            f"{total / len(durations):>12.3f}{max(durations):>12.3f}"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        document = json.loads(text)
    except ValueError:
        document = None
    if isinstance(document, dict):
        return _print_snapshot_stats(document)
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            print(
                f"error: {args.file} is neither a telemetry snapshot "
                "(JSON object) nor a span trace (JSON lines)",
                file=sys.stderr,
            )
            return 1
        if isinstance(record, dict):
            spans.append(record)
    return _print_trace_stats(spans, args.top)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    handlers = {
        "generate": _cmd_generate,
        "count": _cmd_count,
        "build": _cmd_build,
        "sample": _cmd_sample,
        "update": _cmd_update,
        "serve": _cmd_serve,
        "exact": _cmd_exact,
        "info": _cmd_info,
        "suggest-lambda": _cmd_suggest_lambda,
        "profile": _cmd_profile,
        "stats": _cmd_stats,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
