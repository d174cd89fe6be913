"""Stdlib HTTP front-end for the sampling service.

One thread per connection (``ThreadingHTTPServer``) on top of
:class:`~repro.serve.service.SamplingService` — the service's handle
refcounts, session locks, and draw coalescing do all the concurrency
work, so the HTTP layer is a thin JSON codec:

``GET /healthz``
    Liveness plus serving totals (open tables, sessions, request and
    coalescing counters, cache bytes on disk).
``GET /metrics``
    The telemetry registry in Prometheus text exposition format 0.0.4
    (counters, timers, gauges, and the ``serve_request_seconds``
    latency histogram — p50/p99 come out of ``histogram_quantile`` on
    its buckets).
``GET /artifacts``
    Every servable artifact in the cache, with warm-handle state.
``POST /count``
    Body: ``{"artifact": <key>?, "estimator": "naive"|"ags",
    "samples": N, "session": <id>, "seed": S?, "cover_threshold": C?}``.
    Response: the estimates document (same hex-keyed ``counts``/
    ``hits`` encoding as ``motivo-py sample --output``) plus request
    metadata (``key``, ``session``, ``sequence``, ``elapsed_ms``,
    ``empty_urn``).
``POST /update``
    Body: ``{"artifact": <key>?, "updates": [[op, u, v], ...]}`` with
    ``op`` ``1``/``-1`` (or ``"+"``/``"-"``).  Delta-maintains the
    served table in memory under the edge updates (bit-identical to a
    rebuild on the updated graph), appends the batch to the artifact's
    edge log, then swaps in a warm successor handle — no reopen;
    in-flight requests finish on the old table and the key's sessions
    restart.
    Response: the update stats (``updates_applied``, ``rows_touched``,
    ``delta_entries``, ``delta_rebuilds``, new ``fingerprint``, ...).

**Tracing.**  Every request gets a trace id: an inbound ``X-Trace-Id``
header is honored (sanitized to ``[A-Za-z0-9_.-]``, max 128 chars),
otherwise a fresh ``os.urandom`` id is minted — never an RNG draw.
Every response (success or error, any route) echoes it back in
``X-Trace-Id``, and a service configured with ``trace_out`` records
the request's ``serve.count`` span under it.

Error mapping: unknown/evicted artifacts → 404, malformed requests and
library :class:`~repro.errors.ReproError` s → 400, everything else →
500; every error body is ``{"error": <message>}``.

The full API schema and the per-session determinism contract live in
``docs/serving.md``.
"""

from __future__ import annotations

import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.errors import ReproError, ServeError
from repro.graph.graph import exact_int
from repro.serve.service import SamplingService
from repro.telemetry.tracing import new_trace_id

__all__ = ["SamplingHTTPServer", "serve_http"]

#: Characters an inbound trace id may carry; anything else is replaced
#: before the id is echoed (header-splitting hygiene).
_TRACE_ID_OK = re.compile(r"[^A-Za-z0-9_.-]")


def _resolve_trace_id(header_value: Optional[str]) -> str:
    """The request's trace id: the sanitized inbound one, or fresh."""
    if header_value:
        cleaned = _TRACE_ID_OK.sub("_", header_value.strip())[:128]
        if cleaned:
            return cleaned
    return new_trace_id()


class SamplingHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` bound to one :class:`SamplingService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: SamplingService,
                 quiet: bool = True):
        self.service = service
        self.quiet = quiet
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    server_version = "motivo-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every connection.  A response goes out as two
    #: writes (headers, then body); with Nagle's algorithm on, the body
    #: waits for the client's delayed ACK of the headers — up to the
    #: delayed-ACK timeout (40 ms on Linux) on every request.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    def _trace_id(self) -> str:
        """This request's trace id (resolved once, then reused)."""
        cached = getattr(self, "_request_trace_id", None)
        if cached is None:
            cached = _resolve_trace_id(self.headers.get("X-Trace-Id"))
            self._request_trace_id = cached
        return cached

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Trace-Id", self._trace_id())
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.send_header("X-Trace-Id", self._trace_id())
        self.end_headers()
        self.wfile.write(encoded)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ServeError(f"request body is not JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        return payload

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        # Keep-alive connections reuse the handler instance: re-resolve
        # the trace id for every request, never carry one over.
        self._request_trace_id = None
        service = self.server.service
        try:
            if self.path == "/healthz":
                self._send_json(200, service.healthz())
            elif self.path == "/metrics":
                self._send_text(
                    200,
                    service.metrics_text(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif self.path == "/artifacts":
                self._send_json(200, {"artifacts": service.artifacts()})
            else:
                self._send_json(404, {"error": f"no route {self.path!r}"})
        except Exception as error:  # noqa: BLE001 - must answer
            self._send_json(*_error_response(error))

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._request_trace_id = None
        service = self.server.service
        if self.path not in ("/count", "/update"):
            # Drain the body first: on a keep-alive (HTTP/1.1)
            # connection, unread body bytes would be parsed as the
            # start of the next request.
            length = int(self.headers.get("Content-Length") or 0)
            if length > 0:
                self.rfile.read(length)
            self._send_json(404, {"error": f"no route {self.path!r}"})
            return
        try:
            request = self._read_json()
            if self.path == "/update":
                updates = request.get("updates")
                if not isinstance(updates, list):
                    raise ServeError(
                        "'updates' must be a list of [op, u, v] triples"
                    )
                stats = service.update(
                    updates,
                    artifact=_opt_str(request, "artifact"),
                    trace_id=self._trace_id(),
                )
                self._send_json(200, stats)
                return
            result = service.count(
                artifact=_opt_str(request, "artifact"),
                estimator=str(request.get("estimator", "naive")),
                samples=_as_int(request, "samples", 1000),
                session=str(request.get("session", "default")),
                seed=_opt_int(request, "seed"),
                cover_threshold=_as_int(request, "cover_threshold", 300),
                trace_id=self._trace_id(),
            )
            self._send_json(200, result.to_payload())
        except Exception as error:  # noqa: BLE001 - must answer
            self._send_json(*_error_response(error))


def _opt_str(request: dict, name: str) -> Optional[str]:
    value = request.get(name)
    return None if value is None else str(value)


def _opt_int(request: dict, name: str) -> Optional[int]:
    value = request.get(name)
    if value is None:
        return None
    result = exact_int(value)
    if result is None:
        raise ServeError(f"{name!r} must be an integer, got {value!r}")
    return result


def _as_int(request: dict, name: str, default: int) -> int:
    value = _opt_int(request, name)
    return default if value is None else value


def _error_response(error: Exception) -> Tuple[int, dict]:
    """(status, body) of one failed request."""
    message = str(error) or error.__class__.__name__
    if isinstance(error, ServeError):
        status = 404 if "no servable artifact" in message else 400
    elif isinstance(error, ReproError):
        status = 400
    else:
        status = 500
    return status, {"error": message}


def serve_http(
    service: SamplingService, host: str = "127.0.0.1", port: int = 8765,
    quiet: bool = True,
) -> SamplingHTTPServer:
    """Bind the JSON API; the caller runs ``serve_forever()``.

    Returns the bound server (``server_address`` carries the actual
    port when ``port=0`` asked for an ephemeral one).
    """
    return SamplingHTTPServer((host, port), service, quiet=quiet)
