"""Serving: dynamic batching, backpressure, deadlines, load generation.

The first subsystem that exercises the compiler's output under
concurrency.  Five moving parts:

- :mod:`repro.serve.servable` — :class:`Servable`, the declared base
  a single server and a whole fleet (:class:`repro.fleet.Router`)
  both subclass, plus the typed errors and :class:`ServeFuture`,
- :mod:`repro.serve.batcher` — pure packing logic that coalesces /
  splits requests against the graph's static batch and hands the tail
  to the smallest probe-verified batch bucket that holds it,
- :mod:`repro.serve.server` — :class:`InferenceServer`: a bounded
  admission queue with typed :class:`Overloaded` backpressure,
  per-request deadlines with shed-on-expiry, and worker threads each
  owning a warm :class:`~repro.runtime.engine.InferenceSession`,
- :mod:`repro.serve.loadgen` — open-/closed-loop load generation
  reporting throughput and p50/p95/p99 latency,
- :mod:`repro.serve.httpd` — a stdlib-only JSON/HTTP frontend
  (``/infer``, ``/healthz``, ``/stats``, Prometheus ``/metrics``,
  ``/slo``).

The layer is observable end to end: every admitted request gets a
``trace_id`` that flows through the admission span, the worker's
micro-batch span, and the per-op executor spans, rendering as a
per-request waterfall (queue wait → batching → execute) in the Chrome
trace; drops are counted by reason, and an optional
:class:`~repro.obs.SLOMonitor` turns completions into rolling
error-budget burn rates (see ``docs/serving.md``).

Quick use::

    from repro.serve import InferenceServer, ServerConfig

    with InferenceServer(plan, ServerConfig(num_workers=2)) as server:
        outputs = server.infer({"x": one_sample}, timeout=5.0)

See ``docs/serving.md`` for the batching policy and overload
semantics, and ``repro serve`` / ``repro loadgen`` on the CLI.
"""

from .batcher import (Bucket, BucketRefusal, Buckets, Segment, Shard,
                      assemble, derive_buckets, request_samples, scatter)
from .httpd import ServeHTTPD, serve_http
from .loadgen import (LoadgenConfig, LoadgenReport, request_inputs,
                      run_loadgen)
from .servable import (DeadlineExceeded, Overloaded, Servable, ServeError,
                       ServeFuture, ServerClosed, ServerDraining)
from .server import InferenceServer, ServerConfig

__all__ = [
    "Segment",
    "Shard",
    "Bucket",
    "BucketRefusal",
    "Buckets",
    "derive_buckets",
    "request_samples",
    "assemble",
    "scatter",
    "ServeError",
    "Overloaded",
    "DeadlineExceeded",
    "ServerClosed",
    "ServerDraining",
    "ServeFuture",
    "Servable",
    "ServerConfig",
    "InferenceServer",
    "LoadgenConfig",
    "LoadgenReport",
    "request_inputs",
    "run_loadgen",
    "ServeHTTPD",
    "serve_http",
]
