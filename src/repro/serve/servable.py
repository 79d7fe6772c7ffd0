"""The servable base: what a single server and a whole fleet share.

:class:`Servable` is what the HTTP frontend, the load generator,
:class:`repro.obs.FleetView` and the CLI program against.
:class:`~repro.serve.InferenceServer` (a queue plus micro-batching
workers) and :class:`repro.fleet.Router` (routing across a replica
pool) subclass it and differ only in the hooks at the bottom of the
class.  The typed serving errors and :class:`ServeFuture` live here too.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable

import numpy as np

from .._version import __version__
from ..ir.graph import Graph
from ..obs import MetricsRegistry, SLOMonitor, new_trace_id
from ..obs.prometheus import prometheus_text
from .batcher import request_samples

__all__ = ["ServeError", "Overloaded", "DeadlineExceeded", "ServerClosed",
           "ServerDraining", "ServeFuture", "Servable"]


class ServeError(RuntimeError):
    """Base class for typed serving failures."""


class Overloaded(ServeError):
    """Admission queue full: the caller should back off and retry."""


class DeadlineExceeded(ServeError):
    """The request's deadline expired before it could be served."""


class ServerClosed(ServeError):
    """The server is shut down (or was, before the request completed)."""


class ServerDraining(ServerClosed):
    """The server is draining: it finishes in-flight work but admits
    nothing new.  A subclass of :class:`ServerClosed` so existing
    retry/failover logic treats the two identically; the fleet router
    uses the distinction only for metrics labels."""


class ServeFuture:
    """Completion handle for one submitted request."""

    def __init__(self, request_id: int, samples: int,
                 trace_id: str = "") -> None:
        self.request_id = request_id
        self.samples = samples
        #: lifecycle trace id assigned at admission; grep the exported
        #: trace for it to reconstruct this request's waterfall
        self.trace_id = trace_id
        self._settled = threading.Condition()
        self._done = False
        self._callbacks: list[Callable[["ServeFuture"], None]] = []
        self._outputs: dict[str, np.ndarray] | None = None
        self._error: BaseException | None = None
        #: wall-clock seconds from admission to completion (set on resolve)
        self.latency_s: float | None = None

    def done(self) -> bool:
        return self._done

    def result(self, timeout: float | None = None) -> dict[str, np.ndarray]:
        """Block for the outputs; raises the typed error on failure."""
        with self._settled:
            if not self._settled.wait_for(self.done, timeout):
                raise TimeoutError(
                    f"request {self.request_id} not done after {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._outputs is not None
        return self._outputs

    def add_done_callback(self, fn: Callable[["ServeFuture"], None]) -> None:
        """Call ``fn(self)`` exactly once when the request settles —
        from the settling thread, or right here when it already has.
        Callbacks must not block: they run on serving threads."""
        with self._settled:
            if not self._done:
                self._callbacks.append(fn)
                return
        fn(self)

    def _resolve(self, outputs: dict[str, np.ndarray], latency_s: float) -> None:
        self._settle(outputs, None, latency_s)

    def _reject(self, error: BaseException) -> None:
        self._settle(None, error, None)

    def _settle(self, outputs, error, latency_s) -> None:
        with self._settled:
            if self._done:  # first outcome wins
                return
            self._outputs, self._error = outputs, error
            self.latency_s = latency_s
            self._done = True
            callbacks, self._callbacks = self._callbacks, []
            self._settled.notify_all()
        for fn in callbacks:
            fn(self)


class Servable:
    """One thing that admits inference requests for one graph.

    Declared attributes — read them, don't probe for them:

    - ``graph`` / ``graph_batch`` — the served graph and its static batch,
    - ``metrics`` — the :class:`~repro.obs.MetricsRegistry` everything
      lands on, ``tracer`` — the tracer spans/instants go to,
    - ``slo`` — the attached :class:`~repro.obs.SLOMonitor` or None,
    - ``memory_plan`` — the enforced :class:`~repro.plan.MemoryPlan`
      (per replica, for a fleet) or None,
    - ``view`` — the :class:`~repro.obs.FleetView` behind ``GET
      /fleetz``; None until somebody attaches one.

    Subclasses call :meth:`__init__`, set :attr:`family` /
    :attr:`_noun`, and implement the hooks grouped at the end.
    """

    #: metric / trace-event family: ``serve`` or ``fleet``
    family = "serve"
    #: how error messages name this servable
    _noun = "server"

    def __init__(self, graph: Graph, *, metrics: MetricsRegistry, tracer,
                 slo: SLOMonitor | None = None, memory_plan=None) -> None:
        self.graph = graph
        self.graph_batch = graph.inputs[0].shape[0]
        self.metrics = metrics
        self.tracer = tracer
        self.slo = slo
        self.memory_plan = memory_plan
        self.view = None
        self._lock = threading.Lock()
        #: notified when the last admitted request settles
        self._idle = threading.Condition(self._lock)
        self._ids = itertools.count()
        #: requests admitted and not yet settled (queued or running)
        self._in_flight = 0
        self._started = False
        self._closed = False
        self._draining = False

    # -- lifecycle -----------------------------------------------------

    def start(self):
        """Bring the servable up (idempotent); returns ``self``."""
        with self._lock:
            if self._closed:
                raise ServerClosed(f"{self._noun} already closed")
            if self._started:
                return self
            self._started = True
        self._start()
        return self

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop admitting, reject what has not started, stop the
        threads (idempotent).  ``timeout`` bounds each thread join."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._idle.notify_all()
        self._close(timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def drain(self, timeout: float | None = 30.0) -> bool:
        """Graceful shutdown: stop admitting, finish in-flight, close.

        New :meth:`submit` calls raise :class:`ServerDraining` (a
        :class:`ServerClosed`) immediately, :meth:`healthy` flips to
        False (so ``GET /healthz`` answers 503 and a balancer stops
        sending traffic), and the call blocks until the last admitted
        request settles — woken by that completion, not by polling —
        then closes for real.  Returns False when ``timeout`` expired
        with work still pending (the leftovers are rejected the way
        :meth:`close` does).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            if self._closed:
                return True
            self._draining = True
            drained = self._idle.wait_for(
                lambda: self._in_flight == 0 or self._closed, timeout)
        drained = self._drain_parts(deadline) and drained
        self.close()
        return drained

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def draining(self) -> bool:
        return self._draining and not self._closed

    # -- admission -----------------------------------------------------

    def submit(self, inputs: dict[str, np.ndarray] | np.ndarray, *,
               deadline_s: float | None = None,
               trace_id: str | None = None) -> ServeFuture:
        """Admit one request; returns its :class:`ServeFuture`.

        A bare array is accepted for a single-input graph.  Raises
        ``ValueError`` for inputs that do not fit the graph,
        :class:`ServerClosed` / :class:`ServerDraining` once shut down
        or draining, :class:`Overloaded` for a full queue — and then
        nothing was admitted.  ``trace_id`` lets an upstream router
        propagate its id, so one request's spans correlate across the
        router and every replica it was attempted on.
        """
        if isinstance(inputs, np.ndarray):
            if len(self.graph.inputs) != 1:
                raise ValueError(
                    f"graph has {len(self.graph.inputs)} inputs; pass a dict")
            inputs = {self.graph.inputs[0].name: inputs}
        samples = request_samples(self.graph, inputs)
        if trace_id is None:
            trace_id = new_trace_id()
        tracing = self.tracer.enabled
        admitted_us = self.tracer.now_us() if tracing else 0.0
        with self._lock:
            if self._closed:
                raise ServerClosed(f"{self._noun} is closed")
            if self._draining:
                raise ServerDraining(
                    f"{self._noun} is draining: finishing in-flight "
                    f"requests, admitting none")
            future = self._admit_locked(next(self._ids), inputs, samples,
                                        deadline_s, trace_id, admitted_us)
            self._in_flight += 1
            self.metrics.inc(f"{self.family}.requests")
        future.add_done_callback(self._settled)
        if tracing:
            # a short admission span on the main row hosts the source
            # endpoint of the request's flow arrow
            self.tracer.complete(
                f"{self.family}.admit", admitted_us,
                max(self.tracer.now_us() - admitted_us, 1.0),
                category=self.family, request_id=future.request_id,
                trace_id=trace_id, samples=samples)
            self.tracer.flow(f"{self.family}.request", future.request_id,
                             "start", ts_us=admitted_us, trace_id=trace_id)
        self._dispatch(future, inputs, deadline_s)
        return future

    def infer(self, inputs: dict[str, np.ndarray] | np.ndarray, *,
              deadline_s: float | None = None,
              timeout: float | None = None) -> dict[str, np.ndarray]:
        """Synchronous convenience: :meth:`submit` + wait for the result."""
        return self.submit(inputs, deadline_s=deadline_s).result(timeout)

    def _settled(self, _future: ServeFuture) -> None:
        with self._idle:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.notify_all()

    # -- introspection -------------------------------------------------

    def _refresh(self) -> dict[str, float]:
        """Re-export the SLO burn-rate gauges into the registry and
        return the point-in-time gauges that live outside it."""
        if self.slo is not None:
            self.slo.export_gauges(self.metrics)
        return self._gauges()

    def stats(self) -> dict[str, float]:
        """Point-in-time metrics snapshot: counters, gauges, histogram
        quantiles, fresh ``slo.*`` burn rates, liveness gauges."""
        gauges = self._refresh()
        snapshot = self.metrics.snapshot()
        snapshot.update(gauges)
        return snapshot

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body: the registry in Prometheus text
        exposition, plus the liveness gauges and ``repro_build_info``."""
        return prometheus_text(self.metrics, build_info=__version__,
                               extra_gauges=self._refresh())

    def health_doc(self) -> dict:
        """The ``GET /healthz`` body: ``status`` is ``"ok"`` while
        accepting work, ``"draining"`` during :meth:`drain`, else
        ``"unavailable"`` — anything but ``"ok"`` maps to 503."""
        status = ("ok" if self.healthy() else
                  "draining" if self.draining else "unavailable")
        return {"status": status, **self._health_fields(status)}

    def replicas(self) -> list[tuple[str, dict, "Servable | None"]]:
        """``(id, descriptor, server)`` per replica behind this
        servable; a lone server is its own pseudo-replica ``0``."""
        return [("0", {"id": 0, "state": "ready", "generation": 0,
                       "routed": 0, "outstanding": 0}, self)]

    # -- what a subclass provides ---------------------------------------

    def healthy(self) -> bool:
        """Accepting work right now (the ``/healthz`` predicate)."""
        raise NotImplementedError

    def _start(self) -> None:
        """Spawn threads; called once, outside the lock."""
        raise NotImplementedError

    def _close(self, timeout: float | None) -> None:
        """Reject pending work, stop threads; called once, unlocked."""
        raise NotImplementedError

    def _admit_locked(self, request_id: int, inputs, samples: int,
                      deadline_s: float | None, trace_id: str,
                      admitted_us: float) -> ServeFuture:
        """Create (and enqueue) the request; raise to refuse it."""
        raise NotImplementedError

    def _dispatch(self, future: ServeFuture, inputs,
                  deadline_s: float | None) -> None:
        """Start what drives an admitted request; called unlocked."""

    def _drain_parts(self, deadline: float | None) -> bool:
        """Drain what sits behind this servable once its own requests
        have settled; False when that timed out."""
        return True

    def _gauges(self) -> dict[str, float]:
        """Liveness gauges kept outside the registry."""
        raise NotImplementedError

    def _health_fields(self, status: str) -> dict:
        """Extra ``/healthz`` fields for ``status``."""
        raise NotImplementedError
