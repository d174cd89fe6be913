"""Span recording from outside the program: wrap each layer's entry point.

The benchmark's traced run calls :func:`install`, which replaces the
public entry point of every pipeline layer with a wrapper that records
a span (name, start, end, parent, run id, thread) into an in-memory
:class:`Recorder`.  Each name is patched where its caller looks it up:
``repro.motivo`` imported ``build_table``, ``naive_estimate`` and
``ags_estimate`` by name, and ``repro.serve.service`` imported
``open_table``, ``naive_estimate`` and ``ags_estimate`` by name, so those
module attributes are patched alongside the defining ones.  Methods are
patched on their class, which every caller shares.

Spans are only recorded while the recorder is active (inside the
benchmark's measured windows), kept in memory, and returned with the
stage's result when the process ends.  Times come from
``time.perf_counter``, the system-wide monotonic clock on Linux, so
spans from the stage processes and the client share one time axis.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, span name).  A dotted attribute path names a
#: method on a class of that module.  Paths listed once per lookup site.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.graph.io", "load_edge_list", "graph.load"),
    ("repro.graph.stream", "build_csr_external", "graph.stream"),
    ("repro.graph.stream", "open_external", "graph.stream"),
    ("repro.graph.graph", "Graph.fingerprint", "graph.fingerprint"),
    ("repro.graph.io", "save_binary", "graph.save"),
    ("repro.colorcoding.coloring", "ColoringScheme.uniform", "coloring"),
    ("repro.treelets.registry", "TreeletRegistry.__init__", "treelets.registry"),
    ("repro.motivo", "build_table", "buildup"),
    ("repro.colorcoding.sharded", "build_table_sharded", "sharded"),
    ("repro.artifacts", "save_table", "artifacts.save"),
    ("repro.artifacts", "open_table", "artifacts.open"),
    ("repro.serve.service", "open_table", "artifacts.open"),
    ("repro.colorcoding.urn", "TreeletUrn.__init__", "urn.init"),
    ("repro.colorcoding.urn", "TreeletUrn.sample_batch", "urn.sample"),
    ("repro.colorcoding.urn", "TreeletUrn.sample_shape_batch", "urn.sample"),
    ("repro.colorcoding.urn", "compile_program", "descent.compile"),
    ("repro.sampling.occurrences", "GraphletClassifier.__init__", "occurrences.init"),
    ("repro.sampling.occurrences", "GraphletClassifier.classify_batch", "occurrences.classify"),
    ("repro.motivo", "naive_estimate", "naive"),
    ("repro.serve.service", "naive_estimate", "naive"),
    ("repro.motivo", "ags_estimate", "ags"),
    ("repro.serve.service", "ags_estimate", "ags"),
    ("repro.colorcoding.incremental", "apply_edge_updates", "incremental.apply"),
    ("repro.serve.service", "SamplingService.count", "serve.count"),
    ("repro.serve.service", "SamplingService.update", "serve.update"),
)


def directory_bytes(path: str) -> int:
    """Bytes of the regular files under ``path`` (0 if it is missing)."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            if os.path.isfile(full) and not os.path.islink(full):
                total += os.path.getsize(full)
    return total


class Recorder:
    """In-memory span sink with a per-thread parent stack.

    Span ids are ``"<run id>:<n>"``, so records from several processes
    can be pooled without collisions.
    """

    _GUARDED_BY = {"spans": "_lock", "_next_id": "_lock"}

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[dict] = []
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the block (nothing while inactive)."""
        if not self.active:
            yield attrs
            return
        with self._lock:
            span_id = f"{self.run_id}:{self._next_id}"
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "run": self.run_id,
                "thread": threading.get_ident(),
            }
            if attrs:
                record["attrs"] = dict(attrs)
            with self._lock:
                self.spans.append(record)

    def snapshot(self) -> List[dict]:
        with self._lock:
            return list(self.spans)


def _wrap(recorder: Recorder, name: str, func: Callable) -> Callable:
    if name == "serve.count" or name == "serve.update":
        @functools.wraps(func)
        def traced_request(*args, **kwargs):
            with recorder.span(name, trace_id=kwargs.get("trace_id")):
                return func(*args, **kwargs)
        return traced_request
    if name == "artifacts.save":
        @functools.wraps(func)
        def traced_save(directory, *args, **kwargs):
            with recorder.span(name) as attrs:
                result = func(directory, *args, **kwargs)
                attrs["bytes"] = directory_bytes(str(directory))
                return result
        return traced_save

    @functools.wraps(func)
    def traced(*args, **kwargs):
        with recorder.span(name):
            return func(*args, **kwargs)
    return traced


def install(recorder: Recorder) -> Dict[str, int]:
    """Patch every entry point in :data:`ENTRY_POINTS`; returns how many
    lookup sites each span name was installed at."""
    installed: Dict[str, int] = {}
    for module_name, path, name in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *classes, attribute = path.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        raw = owner.__dict__[attribute] if classes else getattr(owner, attribute)
        if isinstance(raw, classmethod):
            patched: object = classmethod(_wrap(recorder, name, raw.__func__))
        else:
            patched = _wrap(recorder, name, raw)
        setattr(owner, attribute, patched)
        installed[name] = installed.get(name, 0) + 1
    return installed
