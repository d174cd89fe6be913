"""Outside-in end-to-end benchmark of the motivo pipeline.

One command runs one seeded workload through the whole pipeline —
edge-list file -> CSR -> coloring -> build-up -> seal -> artifact ->
cold open -> urn descent -> classify -> naive/AGS estimator -> served
HTTP response — checks the outputs and prints the metrics::

    python3 e2ebench/run.py --workload cold-build --seed 1 --seconds 10 --trace 0

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Workloads, metrics and the
layer -> end-to-end map are documented in ``e2ebench/README.md``.

The build, the sampler and the server each run in their own process
(``stages.py``); this orchestrator synthesizes the inputs (the timed
set-up), interleaves build and sample repetitions with the served
rounds, drives the HTTP client and checks the outputs.  All files live
under ``.e2ebench_work/`` in the checkout and are removed when the run
ends; a traced run also leaves its spans in ``.e2ebench_traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".e2ebench_work")
TRACE_ROOT = os.path.join(ROOT, ".e2ebench_traces")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from stats import (  # noqa: E402
    Tally, median, root_coverage, self_times, tail_latency, upper_quartile,
)

#: ``--seconds`` the plans below are sized for (2-core box); other
#: values scale the serve rounds, builds and sample runs proportionally.
NOMINAL_SECONDS = 10
#: Set-ups per run, all but the first spread over the served rounds;
#: ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Served requests checked against a replayed reference, per round.
CHECKS_PER_ROUND = 1
#: Top-level spans must cover this share of the measured wall time.
COVERAGE_BAR = 0.95
STAGE_TIMEOUT = 170

#: The served mix of every workload: each round sends 7 naive ``/count``
#: requests of 512 samples, then one ``/update`` with one edge toggle.
SERVE = {"rounds": 15, "counts": 7, "samples": 512}
#: Builds per run on every workload.
BUILDS = 5


def warm_sample(opens: int) -> dict:
    """The sample worker's plan on every workload, 6 runs of: ``opens``
    cold opens, a first naive request of 20k samples, two more of 20k,
    then an AGS run of 4k."""
    return {"runs": 6, "opens": opens, "first": 20_000, "steady": 20_000,
            "steady_requests": 2, "ags": 4000, "loop_replay": 64}


_POWERLAW_INPUT = {"kind": "chung-lu", "n": 12_500, "m": 62_500,
                   "exponent": 2.5, "seed": 1}

# Dense opens take about 20 ms, so the sample worker repeats them for
# the per-layer open time; a succinct open takes about ten times longer.
WORKLOADS: Dict[str, dict] = {
    "cold-build": {
        "graph": _POWERLAW_INPUT,
        "k": 6, "coloring_seed": 1, "build": "memory", "layout": "succinct",
        "codec": "succinct", "primary": "build",
        "sample": warm_sample(opens=1),
        "serve": SERVE,
    },
    "budget-build": {
        "graph": _POWERLAW_INPUT,
        "k": 6, "coloring_seed": 1, "build": "budget", "layout": "dense",
        "codec": "dense", "memory_budget": 16_000_000, "primary": "build",
        "sample": warm_sample(opens=8),
        "serve": SERVE,
    },
    "serve-churn": {
        "graph": {"kind": "erdos-renyi", "n": 30_000, "m": 75_000, "seed": 1},
        "k": 6, "coloring_seed": 1, "build": "memory", "layout": "dense",
        "codec": "dense", "primary": "serve",
        "sample": warm_sample(opens=8),
        "serve": SERVE,
    },
}


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit sub-seed for one purpose, stable across runs."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def scaled_plan(workload: dict, seconds: int) -> dict:
    """The workload with its repetitions scaled to ``seconds``: serve
    rounds never below the 100 counts a p90 needs, builds and sample
    runs never below three."""
    scale = seconds / NOMINAL_SECONDS
    plan = json.loads(json.dumps(workload))
    serve = plan["serve"]
    serve["rounds"] = max(-(-100 // serve["counts"]), round(serve["rounds"] * scale))
    plan["builds"] = max(3, round(BUILDS * scale))
    plan["sample"]["runs"] = max(3, round(plan["sample"]["runs"] * scale))
    return plan


# ----------------------------------------------------------------------
# Set-up: seeded input synthesis
# ----------------------------------------------------------------------


def synthesize(plan: dict, seed: int, directory: str) -> dict:
    """Write the workload's edge-list file and pick its update stream."""
    import numpy as np

    from repro.graph.generators import erdos_renyi
    from repro.graph.graph import Graph
    from support.graphgen import powerlaw_edges, write_snap_edge_list

    spec = plan["graph"]
    graph_seed = derive_seed(spec["seed"], "graph")
    if spec["kind"] == "chung-lu":
        edges = powerlaw_edges(spec["n"], spec["m"], spec["exponent"], seed=graph_seed)
        graph = Graph.from_edges(edges, n=spec["n"])
    else:
        graph = erdos_renyi(spec["n"], spec["m"], rng=graph_seed)
        edges = graph.edge_array()
    path = os.path.join(directory, "graph.txt")
    write_snap_edge_list(path, edges, n=spec["n"])

    # Single-edge toggles, one per round: even rounds insert a seeded
    # absent pair and odd rounds delete it again, so every update changes
    # the graph and its cost does not hinge on hitting a hub.
    rng = np.random.default_rng(derive_seed(seed, "updates"))
    n = spec["n"]
    present = set((edges[:, 0] * n + edges[:, 1]).tolist())
    updates: Dict[int, list] = {}
    pair: List[int] = []
    for round_index in range(plan["serve"]["rounds"]):
        if round_index % 2:
            updates[round_index] = [-1] + pair
            continue
        while True:
            u, v = sorted(rng.integers(0, n, size=2).tolist())
            if u != v and u * n + v not in present:
                present.add(u * n + v)
                pair = [u, v]
                updates[round_index] = [1] + pair
                break
    with open(path, "rb") as handle:
        file_digest = hashlib.sha256(handle.read()).hexdigest()
    return {
        "graph_file": path,
        "file_digest": file_digest,
        "fingerprint": graph.fingerprint(),
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "max_degree": graph.max_degree,
        "updates": updates,
    }


class Setup:
    """The timed set-up.  The first synthesis makes the inputs; the
    repeats run between the untraced run's served rounds, like the
    builds, and must write the same files."""

    def __init__(self, plan: dict, seed: int, workdir: str, tally: Tally):
        self.plan, self.seed, self.workdir, self.tally = plan, seed, workdir, tally
        self.times: List[float] = []
        self.inputs = self.synthesize()

    def synthesize(self) -> dict:
        directory = os.path.join(self.workdir, f"input-{len(self.times)}")
        os.makedirs(directory)
        started = time.perf_counter()
        result = synthesize(self.plan, self.seed, directory)
        self.times.append(time.perf_counter() - started)
        return result

    def repeat(self) -> None:
        other = self.synthesize()
        self.tally.record(
            other["file_digest"] == self.inputs["file_digest"]
            and other["fingerprint"] == self.inputs["fingerprint"],
            "setup: the same seed synthesized different inputs",
        )
        shutil.rmtree(os.path.dirname(other["graph_file"]), ignore_errors=True)


# ----------------------------------------------------------------------
# Stage processes and the HTTP client
# ----------------------------------------------------------------------


def _stage_command(name: str, config_path: str) -> List[str]:
    return [sys.executable, os.path.join(HERE, "stages.py"), name, config_path]


def _stage_env(workdir: str) -> dict:
    # Stage processes keep their temporary files inside the checkout,
    # share one hash seed (their outputs are compared with each other)
    # and import the program from this checkout only.
    env = dict(os.environ)
    env["TMPDIR"] = workdir
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _write_config(directory: str, name: str, config: dict) -> str:
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    return path


def _last_json(text: str, name: str) -> dict:
    lines = [line for line in text.strip().splitlines() if line.startswith("{")]
    if not lines:
        raise RuntimeError(f"stage {name} printed no result")
    return json.loads(lines[-1])


class StageProcess:
    """One ``stages.py`` process, spoken to in JSON lines."""

    def __init__(self, name: str, config: dict, directory: str):
        self.name = name
        self.stderr_path = os.path.join(directory, f"{name}.stderr")
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            _stage_command(name, _write_config(directory, name, config)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            text=True, env=_stage_env(config["scratch"]),
        )

    def _stderr_tail(self) -> str:
        self._stderr.flush()
        with open(self.stderr_path, encoding="utf-8") as handle:
            return handle.read()[-4000:]

    def readline(self) -> dict:
        line = self.process.stdout.readline()
        if not line.startswith("{"):
            raise RuntimeError(f"stage {self.name} stopped early:\n{self._stderr_tail()}")
        reply = json.loads(line)
        if "stage" in reply:
            # A worker only prints its summary early when it failed.
            raise RuntimeError(f"stage {self.name} failed: {reply['failures']}\n"
                               f"{self._stderr_tail()}")
        return reply

    def request(self, payload: dict) -> dict:
        self.process.stdin.write(json.dumps(payload) + "\n")
        self.process.stdin.flush()
        return self.readline()

    def finish(self, tally: Tally) -> dict:
        """Tell the stage to stop, read its summary, fold in its failures."""
        out, _ = self.process.communicate(
            json.dumps({"stop": True}) + "\n", timeout=STAGE_TIMEOUT
        )
        if self.process.returncode != 0:
            raise RuntimeError(f"stage {self.name} exited {self.process.returncode}:\n"
                               f"{self._stderr_tail()}")
        summary = _last_json(out, self.name)
        tally.add(summary["attempted"], summary["failures"])
        if summary["failures"]:
            sys.stderr.write(self._stderr_tail())
        if summary.get("raised"):
            raise RuntimeError(f"stage {self.name} raised: {summary['failures'][-1]}")
        return summary

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._stderr.close()


class ServeClient:
    """Closed-loop load from one process over two keep-alive connections.

    Each round sends ``counts`` naive ``POST /count`` requests, split
    across the two connections, each its own session with a seeded
    ``seed``; after they return, it sends one ``POST /update`` carrying
    a single edge toggle.
    """

    def __init__(self, port: int, key: str, seed: int, connections: int = 2):
        self.key = key
        self.seed = seed
        self.connections = [
            http.client.HTTPConnection("127.0.0.1", port, timeout=STAGE_TIMEOUT)
            for _ in range(connections)
        ]
        self.pool = ThreadPoolExecutor(max_workers=connections)
        self.counts: List[dict] = []
        self.updates: List[dict] = []
        self.windows: List[Tuple[float, float]] = []

    def close(self) -> None:
        self.pool.shutdown()
        for connection in self.connections:
            connection.close()

    @staticmethod
    def post(connection, path: str, body: dict, trace_id: str) -> Tuple[int, dict, float, float]:
        data = json.dumps(body).encode("utf-8")
        started = time.perf_counter()
        try:
            connection.request(
                "POST", path, body=data,
                headers={"Content-Type": "application/json", "X-Trace-Id": trace_id},
            )
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            return 0, {"error": str(error)}, started, time.perf_counter()
        finished = time.perf_counter()
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError:
            payload = {"error": "response body is not JSON"}
        return response.status, payload, started, finished

    def _share(self, connection, requests: List[dict]) -> List[dict]:
        from stages import counts_digest

        done = []
        for request in requests:
            body = {
                "artifact": self.key, "estimator": "naive",
                "samples": request["samples"], "session": request["session"],
                "seed": request["seed"],
            }
            status, payload, started, finished = self.post(
                connection, "/count", body, request["session"]
            )
            ok = status == 200 and payload.get("sequence") == 0 and bool(payload.get("counts"))
            done.append(dict(
                request, status=status, ok=ok, start=started, end=finished,
                latency=finished - started,
                digest=counts_digest(payload["counts"]) if ok else None,
                error=None if ok else payload.get("error", f"HTTP {status}"),
            ))
        return done

    def round(self, serve: dict, round_index: int, update: Optional[list]) -> None:
        width = len(self.connections)
        requests = [
            {"round": round_index, "session": f"r{round_index}c{i}",
             "seed": derive_seed(self.seed, f"session/{round_index}/{i}"),
             "samples": serve["samples"]}
            for i in range(serve["counts"])
        ]
        started = time.perf_counter()
        futures = [
            self.pool.submit(self._share, self.connections[j], requests[j::width])
            for j in range(width)
        ]
        for future in futures:
            self.counts.extend(future.result())
        if update is not None:
            status, payload, sent, finished = self.post(
                self.connections[0], "/update",
                {"artifact": self.key, "updates": [update]}, f"u{round_index}",
            )
            self.updates.append({
                "round": round_index, "status": status, "start": sent,
                "end": finished, "latency": finished - sent,
                "applied": payload.get("updates_applied"),
                "touched_vertices": payload.get("touched_vertices", 0),
                "error": payload.get("error"),
            })
        self.windows.append((started, time.perf_counter()))

    def record(self, tally: Tally) -> None:
        for count in self.counts:
            tally.record(count["ok"], f"serve: /count {count['session']}: {count['error']}")
        for update in self.updates:
            tally.record(
                update["status"] == 200 and update["applied"] == 1,
                f"serve: /update round {update['round']}: "
                f"{update['error'] or update['applied']}",
            )


def spread(count: int, rounds: int) -> List[int]:
    """``count`` round indices spaced evenly over ``rounds`` rounds."""
    return [min(rounds - 1, (2 * i + 1) * rounds // (2 * count)) for i in range(count)]


def run_pipeline(plan: dict, seed: int, inputs: dict, workdir: str, label: str,
                 trace: bool, tally: Tally, setup: Optional[Setup] = None) -> dict:
    """One build -> sample -> serve pass, repetitions interleaved.

    This box's speed drifts over seconds, so a metric measured in one
    contiguous stretch is mostly drift.  The build and sample workers
    therefore repeat their work between serve rounds, spread over the
    whole run, and each metric is taken over those repetitions.  The
    first build is the one served and sampled.
    """
    directory = os.path.join(workdir, label)
    scratch = os.path.join(directory, "scratch")
    cache_root = os.path.join(directory, "cache")
    os.makedirs(scratch)
    base = {
        "workload": plan, "graph_file": inputs["graph_file"],
        "fingerprint": inputs["fingerprint"], "scratch": scratch,
        "cache_root": cache_root, "trace": trace,
        # The graph and its coloring are part of the workload, like a
        # dataset and k: which graph and which hub colors decide which
        # gathered rows sampling needs, and that would swamp every other
        # difference between seeds.  The sampler replays the stream the
        # artifact recorded; the seed drives the served sessions and the
        # edge updates.
        "build_seed": plan["coloring_seed"],
        "check_seed": derive_seed(seed, "check"),
    }
    serve = plan["serve"]
    stages = {name: StageProcess(name, base, directory) for name in ("build", "serve")}
    sample_summaries: List[dict] = []

    def sample(first: bool) -> dict:
        # A fresh process per repetition: sampling speed differed by up
        # to 1.4x between processes and kept to the process, so a single
        # long-lived sampler made whole runs read fast or slow.
        process = StageProcess("sample", base, directory)
        try:
            reply = process.request({
                "artifact": initial,
                "loop_replay": plan["sample"]["loop_replay"] if first else 0,
            })
            sample_summaries.append(process.finish(tally))
        finally:
            process.close()
        return reply

    try:
        port = stages["serve"].readline()["port"]

        def build(index: int, served: bool) -> dict:
            own = os.path.join(scratch, f"build-{index}")
            os.makedirs(own)
            result = stages["build"].request({
                "scratch": own,
                "cache_root": cache_root if served else os.path.join(own, "cache"),
            })
            if not served:
                shutil.rmtree(own, ignore_errors=True)
            return result

        builds = [build(0, served=True)]
        key = builds[0]["key"]
        artifact = os.path.join(cache_root, key)
        initial = os.path.join(directory, "initial-artifact")
        shutil.copytree(artifact, initial)
        build_rounds = spread(plan["builds"] - 1, serve["rounds"])
        sample_rounds = spread(plan["sample"]["runs"], serve["rounds"])
        setup_rounds = spread(SETUP_REPEATS - 1, serve["rounds"]) if setup else []
        samples = []
        client = ServeClient(port, key, seed)
        try:
            for round_index in range(serve["rounds"]):
                client.round(serve, round_index, inputs["updates"].get(round_index))
                for _ in range(build_rounds.count(round_index)):
                    builds.append(build(len(builds), served=False))
                for _ in range(sample_rounds.count(round_index)):
                    samples.append(sample(first=not samples))
                for _ in range(setup_rounds.count(round_index)):
                    setup.repeat()
        finally:
            client.close()
        client.record(tally)
        summaries = {name: process.finish(tally) for name, process in stages.items()}
    finally:
        for process in stages.values():
            process.close()
    summaries["sample"] = {
        "windows": [w for part in sample_summaries for w in part["windows"]],
        "spans": [span for part in sample_summaries for span in part["spans"]],
        "peak_rss_mb": max(part["peak_rss_mb"] for part in sample_summaries),
        "runtime_warnings": sum(part["runtime_warnings"] for part in sample_summaries),
    }
    tally.record(
        len({reply["estimate_digest"] for reply in samples}) == 1,
        "sample: estimates differ across cold opens of the same artifact",
    )
    return {"base": base, "builds": builds, "samples": samples,
            "summaries": summaries,
            "loop": {"counts": client.counts, "updates": client.updates,
                     "windows": client.windows},
            "artifact": artifact, "initial": initial, "directory": directory}


def verify(plan: dict, run: dict, inputs: dict, tally: Tally) -> dict:
    """Replay checked responses and compare table digests (not timed)."""
    # Only even rounds are served on the initial table (see synthesize).
    checks = []
    per_round: Dict[int, int] = {}
    for count in run["loop"]["counts"]:
        if not count["ok"] or count["round"] % 2:
            continue
        seen = per_round.get(count["round"], 0)
        if seen < CHECKS_PER_ROUND:
            per_round[count["round"]] = seen + 1
            checks.append({key: count[key] for key in
                           ("round", "session", "seed", "samples", "digest")})
    config = dict(
        run["base"], trace=False, checks=checks,
        updates=inputs["updates"], rounds=plan["serve"]["rounds"],
        initial_artifact=run["initial"], final_artifact=run["artifact"],
    )
    process = StageProcess("verify", config, run["directory"])
    try:
        return process.finish(tally)
    finally:
        process.close()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(plan: dict, run: dict, setup_times: List[float]) -> Dict[str, float]:
    builds, samples, loop = run["builds"], run["samples"], run["loop"]
    counts_ms = [count["latency"] * 1000.0 for count in loop["counts"] if count["ok"]]
    updates_ms = [u["latency"] * 1000.0 for u in loop["updates"] if u["status"] == 200]
    serve_s = sum(end - start for start, end in loop["windows"])
    sample_plan = plan["sample"]
    return {
        "setup_s": median(setup_times),
        "peak_rss_mb": run["summaries"][plan["primary"]]["peak_rss_mb"],
        # Most repetitions run at one speed and a varying share of them
        # run up to 1.6x faster, a whole repetition at once; that share
        # would drag a median between runs, the upper quartile stays put.
        "build_s": upper_quartile([build["build_s"] for build in builds]),
        "first_naive_s": upper_quartile([sample["first_s"] for sample in samples]),
        "naive_samples_per_s": (
            sample_plan["steady"] * sample_plan["steady_requests"]
            / upper_quartile([sum(sample["steady_s"]) for sample in samples])
        ),
        "ags_samples_per_s": sample_plan["ags"] / upper_quartile(
            [sample["ags_s"] for sample in samples]
        ),
        "count_p50_ms": median(counts_ms),
        "count_p90_ms": tail_latency(counts_ms, 90.0),
        "counts_per_s": len(counts_ms) / serve_s,
        "update_p50_ms": median(updates_ms),
    }


def measured_windows(run: dict) -> Dict[str, List[Tuple[float, float]]]:
    """Each stage's measured windows; the serve stage's are the client's
    rounds."""
    windows = {stage: [tuple(w) for w in run["summaries"][stage]["windows"]]
               for stage in ("build", "sample")}
    windows["serve"] = list(run["loop"]["windows"])
    return windows


def serve_spans(run: dict) -> List[dict]:
    """The client's request spans plus the server's spans, joined on the
    trace id: each request's ``serve.*`` span becomes the child of the
    client span that sent it, so HTTP and transport time is the client
    span's self time."""
    loop = run["loop"]
    spans = [
        {"id": f"client:{c['session']}", "parent": None, "name": "http.count",
         "start": c["start"], "end": c["end"], "run": "client"}
        for c in loop["counts"]
    ] + [
        {"id": f"client:u{u['round']}", "parent": None, "name": "http.update",
         "start": u["start"], "end": u["end"], "run": "client"}
        for u in loop["updates"]
    ]
    for span in run["summaries"]["serve"]["spans"]:
        trace_id = span.get("attrs", {}).get("trace_id")
        if span["parent"] is None and trace_id:
            span = dict(span, parent=f"client:{trace_id}")
        spans.append(span)
    return spans


def per_layer(plan: dict, run: dict, untraced: dict, warnings_seen: int) -> Dict[str, float]:
    # Counters come from the first build and sample repetition (the
    # others repeat the same deterministic work); spans from all of them.
    build, sample = run["builds"][0], run["samples"][0]
    summaries = run["summaries"]
    serve = summaries["serve"]
    stage_spans = {
        "build": summaries["build"]["spans"],
        "sample": summaries["sample"]["spans"],
        "serve": serve_spans(run),
    }
    spans = [span for group in stage_spans.values() for span in group]
    own = self_times(spans)
    bc, sc, vc = build["counters"], sample["counters"], serve["counters"]
    sharded = plan["build"] == "budget"

    def span_s(name: str) -> float:
        return own.get(name, 0.0)

    def count(snapshot: dict, name: str) -> float:
        return float(snapshot.get(f"count.{name}", 0.0))

    cumulative = count(sc, "gathered_cumulative_builds")
    transient = count(sc, "gathered_transient_builds")
    classified = count(sc, "classified")
    served = {
        span["attrs"]["trace_id"]: span["end"] - span["start"]
        for span in serve["spans"]
        if span["name"] == "serve.count" and span.get("attrs", {}).get("trace_id")
    }
    overheads = [
        (c["latency"] - served[c["session"]]) * 1000.0
        for c in run["loop"]["counts"] if c["ok"] and c["session"] in served
    ]
    windows = measured_windows(run)
    traced_wall = sum(hi - lo for group in windows.values() for lo, hi in group)
    untraced_wall = sum(
        hi - lo for group in measured_windows(untraced).values() for lo, hi in group
    )
    coverage = {
        f"trace.coverage_{stage}": root_coverage(stage_spans[stage], windows[stage])
        for stage in windows
    }
    return {
        "graph.load_s": span_s("graph.load"),
        "graph.stream_s": span_s("graph.stream"),
        "graph.fingerprint_s": span_s("graph.fingerprint"),
        "graph.save_s": span_s("graph.save"),
        "coloring.s": span_s("coloring"),
        "buildup.s": span_s("buildup"),
        "buildup.spmm_ops": 0.0 if sharded else count(bc, "spmm_ops"),
        "buildup.merge_ops": 0.0 if sharded else count(bc, "merge_ops"),
        "sharded.s": span_s("sharded"),
        "sharded.shard_tasks": count(bc, "shard_tasks"),
        "sharded.spmm_ops": count(bc, "spmm_ops") if sharded else 0.0,
        "sharded.tracked_peak_mb": build["tracked_peak_mb"],
        "table.bytes": float(build["table"]["bytes"]),
        "table.max_count_log2": build["table"]["max_count_log2"],
        "table.exact": float(build["table"]["exact"]),
        "artifacts.save_s": span_s("artifacts.save"),
        "artifacts.bytes_written": float(sum(
            span["attrs"]["bytes"] for span in spans if span["name"] == "artifacts.save"
        )),
        "artifacts.open_s": span_s("artifacts.open"),
        "open.median_s": median([s for sample in run["samples"] for s in sample["open_s"]]),
        "urn.init_s": span_s("urn.init"),
        "urn.sample_s": span_s("urn.sample"),
        "urn.gathered_cumulative_builds": cumulative,
        "urn.gathered_transient_builds": transient,
        "urn.gathered_budget_fallbacks": count(sc, "gathered_budget_fallbacks"),
        "urn.gathered_resident_ratio": (
            cumulative / (cumulative + transient) if cumulative + transient else 1.0
        ),
        "descent.plan_compiles": count(sc, "descent_plan_compiles")
        + count(vc, "descent_plan_compiles"),
        "descent.compile_s": span_s("descent.compile"),
        "occurrences.classify_s": span_s("occurrences.classify"),
        "occurrences.cache_hit_ratio": (
            count(sc, "classify_cache_hits") / classified if classified else 0.0
        ),
        "naive.self_s": span_s("naive"),
        "ags.self_s": span_s("ags"),
        "ags.switches": float(sample["ags_switches"]),
        "ags.shape_alias_rebuilds": count(sc, "shape_alias_rebuilds"),
        "incremental.apply_s": span_s("incremental.apply"),
        "incremental.rows_touched": count(vc, "delta_rows_touched"),
        "incremental.touched_vertices": float(sum(
            u["touched_vertices"] or 0 for u in run["loop"]["updates"]
        )),
        "serve.count_self_s": span_s("serve.count"),
        "serve.update_self_s": span_s("serve.update"),
        "serve.tables_opened": count(vc, "serve_tables_opened"),
        "serve.coalesced_batches": count(vc, "serve_coalesced_batches"),
        "serve.transient_builds": count(vc, "gathered_transient_builds"),
        "http.count_self_s": span_s("http.count"),
        "http.overhead_ms": median(overheads) if overheads else 0.0,
        "rss.build_mb": summaries["build"]["peak_rss_mb"],
        "rss.sample_mb": summaries["sample"]["peak_rss_mb"],
        "rss.serve_mb": serve["peak_rss_mb"],
        "runtime_warnings": float(warnings_seen),
        **coverage,
        "trace.overhead_s": traced_wall - untraced_wall,
    }


UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "build_s": "s",
    "first_naive_s": "s", "naive_samples_per_s": "1/s",
    "ags_samples_per_s": "1/s", "count_p50_ms": "ms", "count_p90_ms": "ms",
    "counts_per_s": "1/s", "update_p50_ms": "ms",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("ratio", "error_rate")) or ".coverage" in name:
        return "ratio"
    if name.endswith("log2"):
        return "log2"
    return "count"


def stage_warnings(run: dict, checks: dict) -> int:
    stages = list(run["summaries"].values()) + [checks]
    return sum(stage["runtime_warnings"] for stage in stages)


def execute(args) -> dict:
    plan = scaled_plan(WORKLOADS[args.workload], args.seconds)
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        tally = Tally()
        clock = time.perf_counter()
        setup = Setup(plan, args.seed, workdir, tally)
        inputs = setup.inputs
        print(f"  set-up {time.perf_counter() - clock:.1f}s", file=sys.stderr)
        untraced = run_pipeline(plan, args.seed, inputs, workdir, "untraced", False,
                                tally, setup)
        run = untraced
        if args.trace:
            run = run_pipeline(plan, args.seed, inputs, workdir, "traced", True, tally)
            tally.record(
                run["samples"][0]["estimate_digest"]
                == untraced["samples"][0]["estimate_digest"],
                "trace: traced estimates differ from untraced ones",
            )
        clock = time.perf_counter()
        checks = verify(plan, run, inputs, tally)
        print(f"  verify stage {time.perf_counter() - clock:.1f}s", file=sys.stderr)
        print(
            f"{args.workload} seed={args.seed}: input {plan['graph']['kind']} "
            f"n={inputs['n']} m={inputs['m']} max_degree={inputs['max_degree']} "
            f"{inputs['fingerprint']}; table digest {checks.get('table_digest')}; "
            f"estimate digest {run['samples'][0]['estimate_digest']}"
        )
        try:
            if args.trace:
                metrics = per_layer(plan, run, untraced, stage_warnings(run, checks))
                # Serve coverage is met by construction (its roots are the
                # client's own request spans), so only the build and sample
                # stages are gated.
                for stage in ("build", "sample"):
                    coverage = metrics[f"trace.coverage_{stage}"]
                    tally.record(
                        coverage >= COVERAGE_BAR,
                        f"trace: top-level spans cover {coverage:.1%} of the {stage} "
                        f"stage's measured wall time, under the {COVERAGE_BAR:.0%} bar",
                    )
                metrics["run.error_rate"] = tally.error_rate
                os.makedirs(TRACE_ROOT, exist_ok=True)
                trace_path = os.path.join(TRACE_ROOT, f"{args.workload}-seed{args.seed}.jsonl")
                with open(trace_path, "w", encoding="utf-8") as handle:
                    for span in (run["summaries"]["build"]["spans"]
                                 + run["summaries"]["sample"]["spans"] + serve_spans(run)):
                        handle.write(json.dumps(span) + "\n")
            else:
                metrics = end_to_end(plan, run, setup.times)
        finally:
            for reason in tally.reasons:
                print(f"FAILED: {reason}", file=sys.stderr)
        print(f"error_rate {tally.error_rate:.4f} ({tally.failed}/{tally.attempted})")
        for name, value in metrics.items():
            print(f"  {name:34s} {value:14.6g} {unit_of(name)}")
        return {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit_of(name)}
                for name, value in metrics.items()
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [
        path for path in ("src/repro/motivo.py", "tests/support/graphgen.py")
        if not os.path.isfile(os.path.join(ROOT, path))
    ]
    if missing:
        print(f"error: the program sources are missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "tests"), os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        result = execute(args)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
