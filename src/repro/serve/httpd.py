"""Minimal stdlib HTTP frontend for a servable backend.

The frontend serves any :class:`~repro.serve.Servable` — a single
:class:`InferenceServer` or a whole-fleet :class:`~repro.fleet.Router`.
JSON in/out, no dependencies beyond the standard library (the repo's
no-new-deps rule):

- ``GET /healthz`` — liveness: 200 ``{"status": "ok", ...}`` while the
  backend accepts work, 503 once draining, closed or a worker died,
- ``GET /stats`` — the backend's metrics snapshot (queue depth,
  latency/batch histograms, shed/reject counters),
- ``GET /metrics`` — the same registry in Prometheus text exposition
  format (version 0.0.4), scrapeable as-is (including the ``slo_*``
  burn-rate gauges, the reason-labeled
  ``repro_serve_dropped_total`` family, the fleet's replica-labeled
  families, and the ``repro_build_info`` version gauge); see
  :mod:`repro.obs.prometheus` and ``docs/serving.md``,
- ``GET /slo`` — the attached :class:`~repro.obs.SLOMonitor`'s
  objectives evaluated now, as JSON (404 when the server has none),
- ``GET /fleetz`` — the merged fleet-observability document (per-
  replica QPS/latency/queue/memory, anomalies, SLO burn) from the
  attached :class:`~repro.obs.FleetView` (404 when none is attached);
  the ``repro top`` dashboard polls this,
- ``POST /infer`` — body ``{"inputs": {name: nested-list}, optional
  "deadline_ms": float}``; replies ``{"outputs": {...},
  "latency_ms": float}``.  Overload maps to **429**, an expired
  deadline to **504**, malformed requests to **400**, a body larger
  than :data:`MAX_BODY_BYTES` to **413**, a closed or draining server
  to **503** — the typed overload semantics on the wire.

The frontend speaks HTTP/1.1 with **keep-alive**: a client that holds
its connection open pays for one TCP connection and one handler thread,
not one of each per request.  ``TCP_NODELAY`` is set on every accepted
socket, and that is not optional: a reply is two writes (headers, then
body), and on a kept-alive connection Nagle's algorithm holds the second
back until the client's delayed ACK of the first — measured 44 ms per
round trip against 0.13 ms with it off.  A reply sent before the request
body was read (413, a bad ``Content-Length``) closes the connection,
since what is left on it is not a request; a client that sent
``Connection: close`` or spoke HTTP/1.0 is closed after its answer.

JSON tensors are the simplest thing that round-trips everywhere; for
throughput benchmarking use the in-process
:mod:`repro.serve.loadgen`, which skips serialization entirely.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from .servable import DeadlineExceeded, Overloaded, Servable, ServerClosed

logger = logging.getLogger(__name__)

__all__ = ["ServeHTTPD", "serve_http", "MAX_BODY_BYTES"]

#: request bodies larger than this are rejected with 413 before
#: parsing — a JSON-encoded tensor this large means a caller bug, and
#: buffering it would let one request balloon the frontend's memory
MAX_BODY_BYTES = 32 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"  # keep-alive
    #: ``setup()`` sets ``TCP_NODELAY``; see the module docstring for
    #: what keep-alive costs without it
    disable_nagle_algorithm = True
    #: set by :class:`ServeHTTPD` on the handler subclass
    inference_server: Servable
    max_body_bytes = MAX_BODY_BYTES

    def log_message(self, fmt: str, *args) -> None:  # route to logging
        logger.debug("http: " + fmt, *args)

    def _reply(self, status: int, payload: dict) -> None:
        self._reply_raw(status, json.dumps(payload).encode(),
                        "application/json")

    def _reply_raw(self, status: int, body: bytes,
                   content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        server = self.inference_server
        if self.path == "/healthz":
            doc = server.health_doc()
            self._reply(200 if doc.get("status") == "ok" else 503, doc)
        elif self.path == "/stats":
            self._reply(200, {"stats": server.stats()})
        elif self.path == "/metrics":
            self._reply_raw(200, server.metrics_text().encode(),
                            PROMETHEUS_CONTENT_TYPE)
        elif self.path == "/slo":
            if server.slo is None:
                self._reply(404, {"error": "no SLO monitor attached"})
            else:
                statuses = [s.to_dict() for s in server.slo.evaluate()]
                self._reply(200, {
                    "slo": statuses,
                    "healthy": all(s["healthy"] for s in statuses)})
        elif self.path == "/fleetz":
            if server.view is None:
                self._reply(404, {"error": "no fleet view attached "
                                           "(serve with observability on)"})
            else:
                self._reply(200, server.view.fleet_doc())
        else:
            self._reply(404, {"error": f"no such endpoint {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        # until the body is read, what follows on the connection is not
        # the next request: a reply sent before that must close it.
        # Afterwards the client's own choice (``Connection: close``,
        # HTTP/1.0), as parse_request() read it, stands again.
        keep_alive = not self.close_connection
        self.close_connection = True
        if self.path != "/infer":
            self._reply(404, {"error": f"no such endpoint {self.path!r}"})
            return
        server = self.inference_server
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                raise ValueError(f"bad Content-Length {length}")
            if length > self.max_body_bytes:
                self._reply(413, {
                    "error": f"request body of {length} bytes exceeds the "
                             f"{self.max_body_bytes}-byte limit"})
                return
            body = self.rfile.read(length)
            self.close_connection = not keep_alive
            doc = json.loads(body)
            raw = doc["inputs"]
            if not isinstance(raw, dict):
                raise ValueError("'inputs' must be an object")
            dtypes = {v.name: v.dtype.np for v in server.graph.inputs}
            inputs = {name: np.asarray(arr, dtype=dtypes.get(name))
                      for name, arr in raw.items()}
            deadline_ms = doc.get("deadline_ms")
            deadline_s = None if deadline_ms is None else float(deadline_ms) / 1e3
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": f"bad request: {exc}"})
            return
        try:
            future = server.submit(inputs, deadline_s=deadline_s)
            outputs = future.result()
        except Overloaded as exc:
            self._reply(429, {"error": str(exc)})
        except DeadlineExceeded as exc:
            self._reply(504, {"error": str(exc)})
        except ServerClosed as exc:
            self._reply(503, {"error": str(exc)})
        except ValueError as exc:
            self._reply(400, {"error": str(exc)})
        else:
            self._reply(200, {
                "outputs": {name: arr.tolist()
                            for name, arr in outputs.items()},
                "latency_ms": (future.latency_s or 0.0) * 1e3})


class _HTTPServer(ThreadingHTTPServer):
    """A threading server that knows its live connections, so that
    closing it can end the handler threads idle keep-alive clients
    would otherwise keep parked in a read."""

    daemon_threads = True

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._live: dict[socket.socket, threading.Thread] = {}
        self._live_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name="repro-serve-http-conn", daemon=True)
        with self._live_lock:
            self._live[request] = thread
        thread.start()

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._live_lock:
                del self._live[request]

    def close_connections(self, timeout: float) -> None:
        """End every handler thread: an idle one sees end-of-file at
        once, a busy one after writing the reply it is working on."""
        with self._live_lock:
            live = list(self._live.items())
        for request, _thread in live:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:  # the handler closed it meanwhile
                pass
        for _request, thread in live:
            thread.join(timeout)


class ServeHTTPD:
    """Owns the listening socket + acceptor thread for one backend."""

    def __init__(self, server: Servable, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        handler = type("BoundHandler", (_Handler,),
                       {"inference_server": server})
        self.httpd = _HTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """Bound (host, port) — port is concrete even when 0 was asked."""
        return self.httpd.server_address[:2]

    def start(self) -> "ServeHTTPD":
        """Run the acceptor (idempotent: ``serve_http(x)`` and ``with
        serve_http(x):`` both end up with exactly one)."""
        if self._thread is None:
            # shutdown() waits out one poll interval, so keep it short
            self._thread = threading.Thread(
                target=self.httpd.serve_forever, args=(0.05,),
                name="repro-serve-http", daemon=True)
            self._thread.start()
            host, port = self.address
            logger.info("http frontend listening on %s:%d", host, port)
        return self

    def close(self) -> None:
        if self._thread is not None:
            self.httpd.shutdown()
            self._thread.join(5.0)
            self._thread = None
        self.httpd.server_close()
        self.httpd.close_connections(5.0)

    def __enter__(self) -> "ServeHTTPD":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_http(server: Servable, host: str = "127.0.0.1",
               port: int = 0) -> ServeHTTPD:
    """Start the HTTP frontend for ``server``; returns the running
    :class:`ServeHTTPD` (close it to release the socket)."""
    return ServeHTTPD(server, host, port).start()
