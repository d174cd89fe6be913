#!/usr/bin/env python3
"""Aggregate the tracked ``BENCH_*.json`` trajectory files into
``BENCHMARKS.md``.

Every perf-oriented PR leaves a machine-readable result at the
repository root (written by the ``benchmarks/bench_*.py`` scripts via
``emit_json(..., also_repo_root=True)``).  This tool renders them into
one markdown summary table — the README links it — so the performance
trajectory is readable without opening seven JSON documents.

Usage::

    python tools/bench_report.py            # rewrite BENCHMARKS.md
    python tools/bench_report.py --check    # fail if BENCHMARKS.md is stale

``--check`` is what the CI lint job runs: it regenerates the document in
memory and compares it against the committed file, so the summary can
never silently drift from the JSON it claims to render.  Unknown
``BENCH_*.json`` files (a future PR's) are never an error — they get a
generic row, so adding a trajectory file does not require touching this
tool (though a bespoke extractor row reads better).

A *malformed* trajectory file — unreadable, not JSON, not an object,
or structured so its extractor blows up — is a hard error (exit 1 with
the offending file named), never a silent skip or a raw traceback: a
benchmark claim that cannot be rendered should fail CI, not vanish
from the table.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_NAME = "BENCHMARKS.md"


class BenchReportError(Exception):
    """A ``BENCH_*.json`` file that cannot be rendered."""

HEADER = """# Benchmark trajectory

**Machine-generated** from the `BENCH_*.json` files at the repository
root — regenerate with `python tools/bench_report.py` (the CI docs job
runs `--check` against this file).  Protocols, workload definitions, and
honest caveats live in each producing script's docstring under
`benchmarks/`; the JSON files are the authoritative numbers.

| trajectory | workload | headline | bit-identical | source |
|---|---|---|---|---|
"""


def _get(payload: dict, *path, default=None):
    node = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node


def _fmt(value, spec: str = "{:.1f}"):
    if value is None:
        return "?"
    try:
        return spec.format(value)
    except (TypeError, ValueError):
        return str(value)


def _row_sampling(p):
    return (
        "batched sampling",
        _get(p, "workload", "graph", default="fig3-style"),
        f"{_fmt(_get(p, 'batched_samples_per_second'), '{:,.0f}')} vs "
        f"{_fmt(_get(p, 'loop_samples_per_second'), '{:,.0f}')} samples/s "
        f"(**{_fmt(_get(p, 'speedup'))}x**); "
        f"{_fmt(_get(p, 'gathered_rows_built'), '{}')} of "
        f"{_fmt(_get(p, 'gathered_keys'), '{}')} gathered rows built",
        _get(p, "bit_identical"),
    )


def _row_table(p):
    dense_rate = _get(p, "dense_samples_per_second")
    succ_rate = _get(p, "succinct_samples_per_second")
    slowdown = (
        dense_rate / succ_rate if dense_rate and succ_rate else None
    )
    return (
        "succinct table memory",
        _get(p, "workload", "graph", default="fig3-style"),
        f"{_fmt(_get(p, 'succinct_bits_per_pair'))} vs "
        f"{_fmt(_get(p, 'dense_bits_per_pair'))} bits/pair "
        f"(**{_fmt(_get(p, 'memory_ratio'))}x smaller**, sampling within "
        f"{_fmt(slowdown, '{:.2f}')}x)",
        _get(p, "bit_identical"),
    )


def _row_artifacts(p):
    serving = _get(p, "serving", default={})
    return (
        "artifact warm opens",
        _get(serving, "workload", "graph", default="?"),
        f"warm {_fmt(_get(serving, 'warm_request_seconds', default=0) * 1e3)}"
        f"ms vs rebuild "
        f"{_fmt(_get(serving, 'build_and_sample_seconds', default=0) * 1e3, '{:,.0f}')}ms "
        f"per request (**{_fmt(_get(serving, 'speedup'))}x**)",
        _get(serving, "bit_identical"),
    )


def _row_serve(p):
    return (
        "sampling service",
        _get(p, "workload", "graph", default="?"),
        f"{_fmt(_get(p, 'served_throughput_rps'))} req/s served vs "
        f"{_fmt(_get(p, 'sequential_throughput_rps'))} req/s one-shot "
        f"(**{_fmt(_get(p, 'speedup'))}x**)",
        _get(p, "bit_identical"),
    )


def _row_scale(p):
    graph = _get(p, "protocol", "graph", default={})
    workload = (
        f"{_get(graph, 'generator', default='power law')} "
        f"(n={_fmt(_get(graph, 'n'), '{}')}, m={_fmt(_get(graph, 'm'), '{}')}), "
        f"k={_fmt(_get(p, 'protocol', 'k'), '{}')}"
    )
    sharded = _get(p, "build_delta_kb", "sharded", default=0) / 1024
    inmem = _get(p, "build_delta_kb", "inmem", default=0) / 1024
    seconds = _get(p, "build_seconds", default={})
    return (
        "out-of-core build",
        workload,
        f"build RSS delta {_fmt(sharded, '{:,.0f}')}MB sharded vs "
        f"{_fmt(inmem, '{:,.0f}')}MB in-memory under a "
        f"{_fmt(_get(p, 'budget_bytes', default=0) / 1e6, '{:,.0f}')}MB "
        f"budget ({_fmt(_get(p, 'shards'), '{}')} shards); build "
        f"{_fmt(_get(seconds, 'sharded'), '{:.2f}')}s sharded vs "
        f"{_fmt(_get(seconds, 'inmem'), '{:.2f}')}s in-memory, external "
        f"CSR {_fmt(_get(p, 'external_csr_seconds'), '{:.2f}')}s",
        _get(p, "bit_identical"),
    )


def _row_observability(p):
    return (
        "telemetry overhead",
        _get(p, "workload", "graph", default="fig3-style"),
        f"disabled {_fmt(_get(p, 'disabled_overhead', default=0) * 100)}% / "
        f"traced {_fmt(_get(p, 'enabled_overhead', default=0) * 100)}% over "
        "the bypassed floor",
        _get(p, "bit_identical"),
    )


def _row_incremental(p):
    head = _get(p, "workloads", "er_trickle", "single_edge", default={})
    curve = _get(p, "batch_curve", default=[])
    crossover = next(
        (pt["batch_size"] for pt in curve if pt.get("speedup", 9e9) < 1.0),
        None,
    )
    rebuilt = next(
        (pt["batch_size"] for pt in curve if pt.get("delta_rebuilds", 0)),
        None,
    )
    curve_text = (
        f"loses to rebuild by batch={crossover}" if crossover is not None
        else "never loses to rebuild"
    )
    if rebuilt is not None:
        curve_text += f", rebuilds from batch={rebuilt}"
    return (
        "incremental updates",
        _get(p, "workloads", "er_trickle", "graph", default="?"),
        f"single-edge update+requery "
        f"{_fmt(_get(head, 'incremental_seconds', default=0) * 1e3, '{:,.0f}')}ms "
        f"vs rebuild "
        f"{_fmt(_get(head, 'rebuild_seconds', default=0) * 1e3, '{:,.0f}')}ms "
        f"(**{_fmt(_get(head, 'speedup'))}x**; {curve_text})",
        _get(p, "bit_identical"),
    )


EXTRACTORS = {
    "BENCH_sampling": _row_sampling,
    "BENCH_table": _row_table,
    "BENCH_artifacts": _row_artifacts,
    "BENCH_serve": _row_serve,
    "BENCH_scale": _row_scale,
    "BENCH_observability": _row_observability,
    "BENCH_INCREMENTAL": _row_incremental,
}

#: Render order: the pipeline-stage order the README's prose follows.
ORDER = [
    "BENCH_sampling", "BENCH_table", "BENCH_artifacts", "BENCH_serve",
    "BENCH_scale", "BENCH_observability", "BENCH_INCREMENTAL",
]


def _row_generic(name, p):
    keys = ", ".join(sorted(p)[:6])
    return (name.replace("BENCH_", "").replace("_", " "),
            "?", f"(no extractor; top-level keys: {keys})",
            _get(p, "bit_identical"))


def render(root: Path = REPO_ROOT) -> str:
    files = sorted(root.glob("BENCH_*.json"))
    names = [f.stem for f in files]
    ordered = [n for n in ORDER if n in names] + sorted(
        n for n in names if n not in ORDER
    )
    lines = [HEADER]
    for name in ordered:
        try:
            payload = json.loads((root / f"{name}.json").read_text())
        except OSError as error:
            raise BenchReportError(
                f"cannot read {name}.json: {error}"
            ) from None
        except ValueError as error:
            raise BenchReportError(
                f"{name}.json is not valid JSON: {error}"
            ) from None
        if not isinstance(payload, dict):
            raise BenchReportError(
                f"{name}.json must hold a JSON object at top level, "
                f"got {type(payload).__name__}"
            )
        extractor = EXTRACTORS.get(name, lambda p: _row_generic(name, p))
        try:
            trajectory, workload, headline, identical = extractor(payload)
            mark = {True: "yes", False: "**NO**", None: "—"}[identical]
        except BenchReportError:
            raise
        except Exception as error:
            raise BenchReportError(
                f"{name}.json does not match the shape its extractor "
                f"expects ({type(error).__name__}: {error}); fix the file "
                "or its extractor in tools/bench_report.py"
            ) from None
        lines.append(
            f"| {trajectory} | {workload} | {headline} | {mark} | "
            f"[`{name}.json`]({name}.json) |\n"
        )
    lines.append(
        "\nEvery `bit-identical: yes` row is an exactness claim, not an "
        "approximation: the fast/small/incremental path is asserted "
        "byte-equal to its reference before any timing (same tables, "
        "same estimates, same post-run RNG state for a fixed seed).\n"
    )
    return "".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if BENCHMARKS.md does not match the JSON files",
    )
    parser.add_argument(
        "--root", type=Path, default=REPO_ROOT,
        help="directory holding the BENCH_*.json files and BENCHMARKS.md "
             "(default: the repository root)",
    )
    args = parser.parse_args(argv)
    output = args.root / OUTPUT_NAME
    try:
        text = render(args.root)
    except BenchReportError as error:
        print(f"bench_report: error: {error}", file=sys.stderr)
        return 1
    if args.check:
        current = output.read_text() if output.exists() else ""
        if current != text:
            print(
                f"bench_report: {OUTPUT_NAME} is stale — regenerate with "
                "'python tools/bench_report.py'",
                file=sys.stderr,
            )
            return 1
        print(f"bench_report: {output.name} is up to date")
        return 0
    output.write_text(text)
    print(f"bench_report: wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
