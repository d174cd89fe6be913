"""Stage processes of the end-to-end benchmark.

``run.py`` starts each pipeline role as its own process, so each role
reports its own memory high-water mark::

    python3 e2ebench/stages.py build  CONFIG.json   # edge-list file -> sealed artifact, per request
    python3 e2ebench/stages.py sample CONFIG.json   # cold open, naive and AGS requests, per request
    python3 e2ebench/stages.py serve  CONFIG.json   # HTTP server until stdin says stop
    python3 e2ebench/stages.py verify CONFIG.json   # output checks (not timed)

``build`` and ``sample`` are workers: each JSON line on stdin is one
repetition, answered by one JSON line on stdout.  ``run.py`` keeps one
build worker for the whole run and starts a fresh sample worker for
each repetition.  ``serve`` first prints
``{"port": P}`` and then waits for a line on stdin.  Every stage ends
with one summary line: the measured windows, the failures it saw, its
RSS high-water mark, the ``RuntimeWarning`` count and, when the config
asks for tracing, the spans recorded by :mod:`spans`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import sys
import threading
import time
import traceback
import warnings
from contextlib import contextmanager
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bootstrap() -> None:
    """Put the program's sources and the test-support generators first
    on ``sys.path``."""
    for path in (HERE, os.path.join(ROOT, "tests"), os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def peak_rss_mb() -> float:
    """This process's RSS high-water mark in MB.

    ``VmHWM`` belongs to the current address space, so unlike
    ``ru_maxrss`` it does not inherit the parent's peak across exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def table_digest(table) -> str:
    """Layout-independent sha256 of a count table: per layer, the sorted
    key list and the dense count matrix, whatever layout holds them."""
    import numpy as np

    digest = hashlib.sha256()
    for size in range(1, table.k + 1):
        if not table.has_layer(size):
            continue
        layer = table.layer(size)
        digest.update(f"{size}:{list(layer.keys)!r}".encode())
        counts = np.ascontiguousarray(layer.dense_counts(), dtype=np.float64)
        digest.update(counts.tobytes())
    return digest.hexdigest()


def counts_digest(counts: Dict[str, float]) -> str:
    """sha256 of a hex-keyed ``counts`` document (as served and saved)."""
    text = json.dumps(counts, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def estimates_digest(estimates) -> str:
    return counts_digest(json.loads(estimates.to_json())["counts"])


def counter_delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    """``count.``/``time.`` entries of ``after`` minus ``before``."""
    return {
        name: value - before.get(name, 0.0)
        for name, value in after.items()
        if name.startswith(("count.", "time."))
    }


def add_into(total: Dict[str, float], part: Dict[str, float]) -> None:
    for name, value in part.items():
        total[name] = total.get(name, 0.0) + value


def table_stats(table) -> dict:
    """Count magnitude probe: the largest stored count and whether it is
    still exact in float64 (below 2^53)."""
    largest = 0.0
    for size in range(1, table.k + 1):
        if table.has_layer(size):
            largest = max(largest, float(table.layer(size).max_value()))
    return {
        "max_count_log2": math.log2(largest) if largest > 0 else 0.0,
        "exact": 1 if largest < 2.0 ** 53 else 0,
        "bytes": int(table.actual_bytes()),
    }


class Stage:
    """One stage's measured windows and failures."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.windows: List[List[float]] = []
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)
        return ok

    @contextmanager
    def window(self):
        """A measured region: spans are recorded only inside windows."""
        if self.recorder is not None:
            self.recorder.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if self.recorder is not None:
                self.recorder.active = False
            self.windows.append([start, end])

    def elapsed(self) -> float:
        start, end = self.windows[-1]
        return end - start


# ----------------------------------------------------------------------
# build: edge-list file -> sealed artifact in an artifact-cache root
# ----------------------------------------------------------------------


class BuildWorker:
    """Loads the edge-list file, builds, seals and admits the artifact
    into the request's cache root."""

    def __init__(self, cfg: dict, stage: Stage):
        self.cfg = cfg
        self.stage = stage

    def __call__(self, request: dict) -> dict:
        from repro import MotivoConfig, MotivoCounter
        from repro.artifacts import ArtifactCache
        import repro.graph.io as graph_io
        import repro.graph.stream as graph_stream

        cfg, stage = self.cfg, self.stage
        workload = cfg["workload"]
        budgeted = workload["build"] == "budget"
        config = MotivoConfig(
            k=workload["k"],
            seed=cfg["build_seed"],
            table_layout=workload["layout"],
            memory_budget=workload.get("memory_budget") if budgeted else None,
            shard_jobs=1,
            shard_dir=os.path.join(request["scratch"], "shards") if budgeted else None,
        )
        cache = ArtifactCache(request["cache_root"])
        gc.collect()
        with stage.window():
            if budgeted:
                csr_dir = os.path.join(request["scratch"], "csr")
                graph_stream.build_csr_external(cfg["graph_file"], csr_dir)
                graph = graph_stream.open_external(csr_dir)
            else:
                graph = graph_io.load_edge_list(cfg["graph_file"])
            counter = MotivoCounter(graph, config)
            counter.build()
            key = cache.key(graph, config, workload["codec"])
            tmp = cache.tmp_path(key)
            counter.save_artifact(tmp, codec=workload["codec"])
            cache.admit(tmp, key)
        build_s = stage.elapsed()
        stage.check(counter.urn is not None, "build: empty urn")
        stage.check(
            graph.fingerprint() == cfg["fingerprint"],
            "build: loaded graph fingerprint differs from the generated input",
        )
        budget = counter.build_budget
        if budgeted:
            stage.check(
                budget.peak <= workload["memory_budget"],
                "build: tracked peak exceeds the memory budget",
            )
        result = {
            "build_s": build_s,
            "key": key,
            "table": table_stats(counter.table),
            "counters": counter.instrumentation.snapshot(),
            "tracked_peak_mb": (budget.peak / 1e6) if budget is not None else 0.0,
        }
        counter.close()
        return result


# ----------------------------------------------------------------------
# sample: cold open, first request, steady naive, AGS
# ----------------------------------------------------------------------


class SampleWorker:
    """Per request: ``opens`` cold ``from_artifact`` calls, the first
    naive request on the last of them, the steady naive requests and one
    AGS run.  All of them consume the stream the artifact recorded, so
    every repetition does the same work and must return the same
    estimates."""

    def __init__(self, cfg: dict, stage: Stage):
        import repro.graph.io as graph_io

        self.cfg = cfg
        self.stage = stage
        self.graph = graph_io.load_edge_list(cfg["graph_file"])

    def __call__(self, request: dict) -> dict:
        import numpy as np

        from repro import MotivoCounter
        from repro.artifacts import load_manifest

        stage = self.stage
        plan = self.cfg["workload"]["sample"]
        artifact = request["artifact"]
        stored = load_manifest(artifact).get("instrumentation", {})
        # A collection is forced before each timed region so that one
        # triggered by the benchmark's own leftovers does not land in it.
        open_s = []
        for _ in range(plan["opens"] - 1):
            gc.collect()
            with stage.window():
                MotivoCounter.from_artifact(self.graph, artifact).close()
            open_s.append(stage.elapsed())
        gc.collect()
        with stage.window():
            started = time.perf_counter()
            counter = MotivoCounter.from_artifact(self.graph, artifact)
            opened = time.perf_counter()
            outputs = [counter.sample_naive(plan["first"])]
        open_s.append(opened - started)
        first_s = stage.windows[-1][1] - opened
        steady_s = []
        for _ in range(plan["steady_requests"]):
            gc.collect()
            with stage.window():
                outputs.append(counter.sample_naive(plan["steady"]))
            steady_s.append(stage.elapsed())
        gc.collect()
        with stage.window():
            ags = counter.sample_ags(plan["ags"], cover_threshold=300)
        ags_s = stage.elapsed()
        outputs.append(ags.estimates)
        stage.check(
            all(estimates.counts for estimates in outputs),
            "sample: a request returned an empty estimate",
        )
        if request.get("loop_replay"):
            # The batched descent must replay the per-sample loop oracle
            # bit for bit on the same uniform block (not timed).
            urn = counter.urn
            size = request["loop_replay"]
            uniforms = np.random.default_rng(self.cfg["check_seed"]).random(
                (size, urn.draw_width)
            )
            batched = urn.sample_batch(size, uniforms=uniforms)
            looped = urn.sample_batch(size, uniforms=uniforms, method="loop")
            stage.check(
                all(np.array_equal(a, b) for a, b in zip(batched, looped)),
                "sample: batched draws differ from the method='loop' replay",
            )
        counters = counter_delta(counter.instrumentation.snapshot(), stored)
        add_into(counters, counter.classifier.stats_snapshot())
        counter.close()
        return {
            "open_s": open_s,
            "first_s": first_s,
            "steady_s": steady_s,
            "ags_s": ags_s,
            "ags_switches": ags.switches,
            "estimate_digest": hashlib.sha256(
                repr([estimates_digest(estimates) for estimates in outputs]).encode()
            ).hexdigest(),
            "counters": counters,
        }


# ----------------------------------------------------------------------
# serve: SamplingService behind serve_http until told to stop
# ----------------------------------------------------------------------


def stage_serve(cfg: dict, stage: Stage) -> dict:
    from repro.serve import SamplingService, serve_http
    import repro.graph.io as graph_io

    graph = graph_io.load_edge_list(cfg["graph_file"])
    service = SamplingService(cfg["cache_root"])
    service.add_graph(graph)
    server = serve_http(service, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    try:
        if stage.recorder is not None:
            stage.recorder.active = True
        print(json.dumps({"port": server.server_address[1]}), flush=True)
        sys.stdin.readline()
        if stage.recorder is not None:
            stage.recorder.active = False
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=60)
    stage.check(not thread.is_alive(), "serve: server thread did not stop")
    snapshot = service.metrics_snapshot()
    service.close()
    return {
        "counters": {
            name: value
            for name, value in snapshot.items()
            if name.startswith(("count.", "time."))
        }
    }


# ----------------------------------------------------------------------
# verify: the output checks (never timed)
# ----------------------------------------------------------------------


def stage_verify(cfg: dict, stage: Stage) -> dict:
    from repro import MotivoCounter
    from repro.artifacts import open_table
    from repro.colorcoding.buildup import build_table
    from repro.sampling.naive import naive_estimate
    from repro.util.rng import ensure_rng
    import repro.graph.io as graph_io

    graph = graph_io.load_edge_list(cfg["graph_file"])
    workload = cfg["workload"]
    initial = open_table(cfg["initial_artifact"], graph)
    built = table_digest(initial.table)
    if workload["build"] == "budget" or workload["layout"] != "dense":
        # The sharded and succinct builds must match the dense in-memory
        # kernel bit for bit under the same coloring.
        stage.check(
            built == table_digest(build_table(graph, initial.coloring)),
            "verify: artifact table differs from an in-memory build_table",
        )
    del initial

    # Each odd round's update deletes the edge the round before inserted,
    # so even rounds are served on the initial table, reopened from an
    # artifact that updates rewrote.  Their checked responses must equal
    # a single-threaded estimate under the same seed on that table.
    counter = MotivoCounter.from_artifact(graph, cfg["initial_artifact"])
    for record in cfg["checks"]:
        estimates = naive_estimate(
            counter.urn, counter.classifier, record["samples"],
            ensure_rng(record["seed"]),
            batch_size=counter.config.batch_size,
        )
        stage.check(
            estimates_digest(estimates) == record["digest"],
            f"verify: response r{record['round']} {record['session']} "
            "differs from its replayed reference",
        )
    counter.close()
    final_graph = graph
    for round_index in range(cfg["rounds"]):
        final_graph = final_graph.apply_updates([cfg["updates"][str(round_index)]])[0]
    served = open_table(cfg["final_artifact"], final_graph)
    stage.check(
        table_digest(served.table)
        == table_digest(build_table(final_graph, served.coloring)),
        "verify: served table differs from a fresh build on the final graph",
    )
    return {"table_digest": built}


WORKERS = {"build": BuildWorker, "sample": SampleWorker}
ONE_SHOT = {"serve": stage_serve, "verify": stage_verify}


def run_worker(worker) -> None:
    """Answer one JSON request line per stdin line until ``stop``."""
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("stop"):
            return
        print(json.dumps(worker(request)), flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    names = sorted(WORKERS) + sorted(ONE_SHOT)
    if len(argv) != 2 or argv[0] not in names:
        print(f"usage: stages.py {{{','.join(names)}}} CONFIG.json", file=sys.stderr)
        return 2
    name, config_path = argv
    bootstrap()
    with open(config_path, encoding="utf-8") as handle:
        cfg = json.load(handle)
    recorder = None
    if cfg.get("trace"):
        import spans

        recorder = spans.Recorder(run_id=f"{name}-{os.getpid()}")
        spans.install(recorder)
    stage = Stage(recorder)
    summary: dict = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if name in WORKERS:
                run_worker(WORKERS[name](cfg, stage))
            else:
                summary.update(ONE_SHOT[name](cfg, stage))
        except Exception as error:  # noqa: BLE001 - reported as a failure
            traceback.print_exc(file=sys.stderr)
            stage.attempted += 1
            stage.failures.append(f"{name}: {type(error).__name__}: {error}")
            summary["raised"] = True
    summary.update(
        stage=name,
        attempted=stage.attempted,
        failures=stage.failures,
        windows=stage.windows,
        peak_rss_mb=peak_rss_mb(),
        runtime_warnings=sum(
            1 for item in caught if issubclass(item.category, RuntimeWarning)
        ),
        spans=recorder.snapshot() if recorder is not None else [],
    )
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
