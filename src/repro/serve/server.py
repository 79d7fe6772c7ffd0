"""The inference server: bounded admission, micro-batching workers.

:class:`InferenceServer` turns a compiled graph into a servable unit:

- **admission** — :meth:`submit` appends to a *bounded* queue; a full
  queue raises :class:`Overloaded` immediately (typed backpressure,
  never unbounded growth, never a hang),
- **deadlines** — each request may carry a deadline; requests that
  expire while queued are shed at dequeue time (their future raises
  :class:`DeadlineExceeded`) instead of wasting a batch slot,
- **dynamic batching** — each worker thread drains the queue into up
  to one graph-batch of samples and runs the shard(s) on its own warm
  :class:`~repro.runtime.engine.InferenceSession`, one per batch
  **bucket** (:func:`~repro.serve.batcher.derive_buckets`: the tail
  shard runs at the smallest probe-verified batch size that holds it,
  not zero-padded to the static batch).  The batcher is
  work-conserving: a worker holds a batch open for co-riders (at most
  ``ServerConfig.max_wait_s``) only while another worker is running a
  batch — the only evidence one can arrive — and stops holding the
  moment that batch ends; an idle worker never sits on the only
  request in the system,
- **observability** — queue depth gauge, latency/batch-occupancy
  histograms, shed/reject counters (aggregate *and* reason-labeled:
  ``serve.dropped.reason.{queue_full,deadline_expired,server_closed,
  worker_error}`` renders as one Prometheus family with a ``reason``
  label; ``serve.bucket_runs.size.<n>`` likewise with a ``size``
  label), all in a :class:`~repro.obs.MetricsRegistry`
  (:meth:`stats`),
- **request-lifecycle tracing** — every request gets a ``trace_id``
  at admission; when a recording tracer is active the server records
  an admission span, a flow arrow from admission into the micro-batch
  that served the request (the batcher's fan-in, one arrow per
  coalesced request), per-op executor spans tagged with the batch's
  trace ids, and — once the outcome is known — the request's async
  waterfall (``queue_wait`` → ``batching`` → ``execute``) on its own
  lane in the Chrome trace,
- **SLOs** — pass an :class:`~repro.obs.SLOMonitor` and the server
  feeds it every outcome (completions with latency; sheds, rejects
  and failures as bad events); :meth:`stats` re-exports burn-rate
  gauges so ``GET /metrics`` exposes them.

The server serves whatever graph it is given; ``repro serve --tuned``
hands it the autotuned compiled plan from the :mod:`repro.tune` cache
(:func:`repro.tune.load_cached_plan`) so every request reuses the
tuned tiles.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..ir.graph import Graph
from ..obs import MetricsRegistry, SLOMonitor, get_tracer
from ..runtime.engine import InferenceSession
from .batcher import Buckets, assemble, derive_buckets, scatter
from .servable import (DeadlineExceeded, Overloaded, Servable, ServeError,
                       ServeFuture, ServerClosed)

logger = logging.getLogger(__name__)

__all__ = ["ServerConfig", "InferenceServer"]


@dataclass(frozen=True)
class ServerConfig:
    """Queueing / batching / SLO knobs of one server."""

    num_workers: int = 1
    #: admission bound, in requests; the backpressure knob
    max_queue: int = 64
    #: upper bound on how long a worker holds a batch open for
    #: co-riders; the hold lasts only while another worker is running
    #: a batch, so it needs ``num_workers >= 2`` to ever start
    max_wait_s: float = 0.002
    #: deadline applied to requests submitted without one (None = none)
    default_deadline_s: float | None = None
    #: False = no coalescing: one request per micro-batch (the
    #: one-request-at-a-time baseline the batching A/B test compares)
    batching: bool = True

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {self.max_wait_s}")


@dataclass(eq=False)  # identity hash: requests key scatter buffers
class _Request:
    """One admitted request (internal work item)."""

    id: int
    trace_id: str
    inputs: dict[str, np.ndarray]
    samples: int
    future: ServeFuture
    enqueued_at: float
    deadline_at: float | None  #: monotonic absolute deadline
    #: tracer timestamps bounding the queue-wait segment of the
    #: request's waterfall (0.0 when tracing is off)
    admitted_us: float = 0.0
    dequeued_us: float = 0.0


class InferenceServer(Servable):
    """Serve a compiled graph from one warm session per batch bucket,
    shared by a pool of worker threads.

    Use as a context manager, or call :meth:`start` / :meth:`close`::

        with InferenceServer(plan, ServerConfig(num_workers=2)) as server:
            future = server.submit({"x": batch_of_one})
            outputs = future.result(timeout=5.0)
    """

    def __init__(self, graph: Graph, config: ServerConfig | None = None, *,
                 metrics: MetricsRegistry | None = None,
                 tracer=None, slo: SLOMonitor | None = None,
                 memory_plan=None, buckets: Buckets | None = None) -> None:
        graph.validate()
        #: ``memory_plan`` is enforced on every static batch a bucket's
        #: session runs (a smaller bucket runs under its own plan for
        #: the same budget); each run parks its spilled tensors in its
        #: own enforcer, so workers never share spill state.  ``buckets``
        #: lets a pool hand every replica the one set it derived for
        #: their spec.
        super().__init__(
            graph, metrics=metrics or MetricsRegistry(),
            tracer=tracer if tracer is not None else get_tracer(),
            slo=slo, memory_plan=memory_plan)
        self.config = config or ServerConfig()
        self.buckets = (buckets if buckets is not None
                        else derive_buckets(graph, memory_plan))
        if memory_plan is not None:
            self.metrics.gauge("plan.budget_bytes",
                               float(memory_plan.budget_bytes or 0))
            # the largest plan any bucket runs under, so that the
            # running-max measured peak can only exceed it by drifting
            self.metrics.gauge("plan.planned_peak_bytes", float(max(
                bucket.memory_plan.planned_peak_bytes
                for bucket in self.buckets.offered.values())))
        self._not_empty = threading.Condition(self._lock)
        self._queue: deque[_Request] = deque()
        #: batches some worker has taken and not finished running; what
        #: a worker with a drained queue holds its batch open against
        self._running = 0
        self._workers: list[threading.Thread] = []
        # each worker records through a tagged view stamping its
        # worker_id and pinning its spans onto a dedicated, labeled
        # Chrome-trace row (tid = worker index + 1; tid 0 stays the
        # admission/main timeline), so the merged trace renders one lane
        # per worker.
        self._worker_tracers = [
            self.tracer.tagged(tid=index + 1, worker_id=index)
            for index in range(self.config.num_workers)]
        for index in range(self.config.num_workers):
            self.tracer.name_thread(index + 1, f"worker-{index}")
        # one warm session per bucket, run by every worker: a session
        # holds no per-run state, and each run passes its worker's view
        self._sessions = {
            size: InferenceSession(bucket.graph,
                                   memory_plan=bucket.memory_plan)
            for size, bucket in self.buckets.offered.items()}

    # -- the Servable hooks ---------------------------------------------

    def _start(self) -> None:
        for index in range(self.config.num_workers):
            worker = threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"repro-serve-{index}", daemon=True)
            worker.start()
            self._workers.append(worker)
        logger.info("serving %s: %d worker(s), batch %d, %s, queue bound "
                    "%d, max wait %.1f ms, batching %s", self.graph.name,
                    self.config.num_workers, self.graph_batch,
                    self.buckets.describe(),
                    self.config.max_queue, self.config.max_wait_s * 1e3,
                    "on" if self.config.batching else "off")

    def _close(self, timeout: float | None) -> None:
        with self._not_empty:
            pending = list(self._queue)
            self._queue.clear()
            self._gauge_depth_locked()
            self._not_empty.notify_all()
        for request in pending:
            request.future._reject(ServerClosed(
                f"server closed with request {request.id} still queued"))
            self.metrics.inc("serve.rejected_on_close")
            self._drop(request, "server_closed")
        for worker in self._workers:
            worker.join(timeout)
        self._workers.clear()

    def healthy(self) -> bool:
        """Accepting work and every worker thread alive."""
        if self._closed or self._draining or not self._started:
            return False
        return all(w.is_alive() for w in self._workers)

    def _health_fields(self, status: str) -> dict:
        if status == "ok":
            return {"model": self.graph.name,
                    "workers": self.config.num_workers,
                    "graph_batch": self.graph_batch,
                    **self.buckets.health_fields()}
        return {"model": self.graph.name} if status == "draining" else {}

    def _gauges(self) -> dict[str, float]:
        with self._lock:
            queued = len(self._queue)
            in_flight = self._in_flight - queued
        return {"serve.queue_depth": float(queued),
                "serve.in_flight": float(in_flight),
                "serve.workers": float(self.config.num_workers),
                "serve.graph_batch": float(self.graph_batch)}

    def _admit_locked(self, request_id: int, inputs, samples: int,
                      deadline_s: float | None, trace_id: str,
                      admitted_us: float) -> ServeFuture:
        """Enqueue, or raise :class:`Overloaded` when the admission
        queue is at ``max_queue`` (the request is *not* enqueued)."""
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        now = time.monotonic()
        request = _Request(
            id=request_id, trace_id=trace_id, inputs=inputs, samples=samples,
            future=ServeFuture(request_id, samples, trace_id),
            enqueued_at=now, admitted_us=admitted_us,
            deadline_at=None if deadline_s is None else now + deadline_s)
        if len(self._queue) >= self.config.max_queue:
            self.metrics.inc("serve.rejected")
            self._drop(request, "queue_full")
            raise Overloaded(
                f"admission queue full ({self.config.max_queue} requests); "
                f"retry with backoff")
        self._queue.append(request)
        self._gauge_depth_locked()
        self._not_empty.notify()
        return request.future

    # -- worker side ---------------------------------------------------

    def _gauge_depth_locked(self) -> None:
        self.metrics.gauge("serve.queue_depth", len(self._queue))

    def _drop(self, request: _Request, reason: str) -> None:
        """Account one request that will never complete.

        The ``serve.dropped.reason.<reason>`` counter renders as a
        single labeled Prometheus family
        (``repro_serve_dropped_total{reason="..."}``); the SLO monitor
        sees the outcome as a bad event; with tracing on, the
        truncated waterfall lands on the request's async lane.
        """
        self.metrics.inc(f"serve.dropped.reason.{reason}")
        if self.slo is not None:
            self.slo.record(ok=False)
        if self.tracer.enabled:
            now_us = self.tracer.now_us()
            self.tracer.instant("serve.dropped", category="serve",
                                request_id=request.id,
                                trace_id=request.trace_id, reason=reason)
            if request.admitted_us:
                self.tracer.async_slice(
                    "request", request.id, request.admitted_us, now_us,
                    category="serve", trace_id=request.trace_id,
                    outcome=reason)
                self.tracer.async_slice(
                    "queue_wait", request.id, request.admitted_us,
                    request.dequeued_us or now_us, category="serve",
                    trace_id=request.trace_id)

    def _shed(self, request: _Request, now: float) -> None:
        overdue = now - (request.deadline_at or now)
        request.future._reject(DeadlineExceeded(
            f"request {request.id} expired {overdue * 1e3:.1f} ms before "
            f"service"))
        self.metrics.inc("serve.shed")
        self._drop(request, "deadline_expired")

    def _pop_live_locked(self, expired: list[_Request]) -> _Request | None:
        """Pop the next unexpired request; expired ones are moved to
        ``expired`` for the caller to shed once it has let go of the
        lock (rejecting a future runs its callbacks)."""
        now = time.monotonic()
        while self._queue:
            request = self._queue.popleft()
            if self.tracer.enabled:
                request.dequeued_us = self.tracer.now_us()
            if request.deadline_at is not None and now > request.deadline_at:
                expired.append(request)
                continue
            return request
        return None

    def _fill_batch_locked(self, expired: list[_Request]
                           ) -> list[_Request] | None:
        """Wait for the first live request and take what else is
        queued, up to ``graph_batch`` samples; with batching off, a single
        request.  With the queue drained, hold the batch open — for at
        most ``max_wait_s`` — only while another worker is running a
        batch (a batch held open like this one does not count): the
        next request of one of its callers is the only co-rider that
        can arrive, and :meth:`_worker_loop` wakes the holder when that
        batch ends.  None when the server closed; empty when there is
        only shedding to do."""
        first = self._pop_live_locked(expired)
        while first is None:
            self._gauge_depth_locked()
            if self._closed:
                return None
            if expired:
                return []
            self._not_empty.wait()
            first = self._pop_live_locked(expired)
        taken = [first]
        total = first.samples
        if self.config.batching:
            wait_until = time.monotonic() + self.config.max_wait_s
            while total < self.graph_batch and not self._closed:
                request = self._pop_live_locked(expired)
                if request is not None:
                    taken.append(request)
                    total += request.samples
                    continue
                remaining = wait_until - time.monotonic()
                if remaining <= 0 or not self._running:
                    break
                self._not_empty.wait(remaining)
        self._running += 1
        self._gauge_depth_locked()
        return taken

    def _take_batch(self) -> list[_Request] | None:
        """Block for the next micro-batch; None when the server closes."""
        while True:
            expired: list[_Request] = []
            with self._not_empty:
                taken = self._fill_batch_locked(expired)
            now = time.monotonic()
            for request in expired:
                self._shed(request, now)
            if taken is None or taken:
                return taken

    def _worker_loop(self, index: int) -> None:
        while True:
            taken = self._take_batch()
            if taken is None:
                return
            try:
                self._run_batch(index, taken)
            except BaseException as exc:  # noqa: BLE001 — fail the batch, not the server
                logger.exception("serve worker failed on a batch")
                for request in taken:
                    if not request.future.done():
                        request.future._reject(
                            ServeError(f"inference failed: {exc!r}"))
                        self._drop(request, "worker_error")
                self.metrics.inc("serve.failed", len(taken))
            finally:
                with self._not_empty:
                    self._running -= 1
                    # a worker holding a batch open against this one
                    # has nobody left to wait for
                    self._not_empty.notify_all()

    def _run_batch(self, index: int, taken: list[_Request]) -> None:
        tracer = self._worker_tracers[index]
        tracing = self.tracer.enabled
        shards = assemble(self.buckets,
                          [(request, request.inputs) for request in taken])
        buffers: dict[_Request, dict[str, np.ndarray]] = {}
        filled: dict[_Request, int] = {}
        totals = {request: request.samples for request in taken}
        now = time.monotonic()
        self.metrics.observe("serve.batch_requests", len(taken))
        self.metrics.observe(
            "serve.batch_samples", sum(r.samples for r in taken))
        trace_ids = [request.trace_id for request in taken]
        padding = sum(shard.padding for shard in shards)
        batch_start_us = tracer.now_us() if tracing else 0.0
        # the batch span carries the ids of every request it coalesced
        # (and, via the worker's tagged view, the worker_id / row);
        # every per-node executor span recorded by session.run nests
        # inside it and is tagged with the batch's trace ids
        with tracer.span("serve.batch", category="serve",
                         request_ids=[request.id for request in taken],
                         trace_ids=trace_ids, requests=len(taken),
                         samples=sum(r.samples for r in taken),
                         padding=padding,
                         bucket=[shard.size for shard in shards]):
            if tracing:
                # fan-in: one arrow per coalesced request, from its
                # admission span into this batch span
                fanin_us = tracer.now_us()
                for request in taken:
                    tracer.flow("serve.request", request.id, "finish",
                                ts_us=fanin_us, trace_id=request.trace_id)
            run_tracer = tracer.tagged(trace_ids=trace_ids)
            for shard in shards:
                size = shard.size
                result = self._sessions[size].run(shard.inputs,
                                                  tracer=run_tracer)
                outputs = result.outputs
                self.metrics.inc("serve.batches")
                self.metrics.inc(f"serve.bucket_runs.size.{size}")
                self._record_measured_peak(result.memory)
                self.metrics.inc("serve.padded_samples", shard.padding)
                self._record_plan_stats(result.memory.plan_stats)
                now = time.monotonic()
                for request in scatter(shard, outputs, buffers, filled,
                                       totals):
                    latency = now - request.enqueued_at
                    request.future._resolve(buffers.pop(request), latency)
                    self.metrics.inc("serve.completed")
                    self.metrics.observe("serve.latency_ms", latency * 1e3)
                    if self.slo is not None:
                        self.slo.record(latency, ok=True)
                    tracer.instant(
                        "serve.request_done", category="serve",
                        request_id=request.id, trace_id=request.trace_id,
                        samples=request.samples, latency_ms=latency * 1e3)
                    if tracing:
                        self._record_waterfall(tracer, request,
                                               batch_start_us, latency)
                    if (request.deadline_at is not None
                            and now > request.deadline_at):
                        self.metrics.inc("serve.late_completions")

    def _record_measured_peak(self, memory) -> None:
        """Running max of the measured per-batch internal-tensor peak
        (``serve.measured_peak_bytes``).  Next to the
        ``plan.planned_peak_bytes`` / ``plan.budget_bytes`` gauges,
        this is the planned-vs-measured drift signal the memory-drift
        anomaly detector and the ``repro top`` dashboard watch."""
        peak = float(getattr(memory, "peak_internal_bytes", 0) or 0)
        if peak <= 0:
            return
        # read-modify-write under the server lock so two workers can't
        # interleave and regress the running max
        with self._lock:
            if peak > self.metrics.get("serve.measured_peak_bytes", 0.0):
                self.metrics.gauge("serve.measured_peak_bytes", peak)

    def _record_plan_stats(self, stats) -> None:
        """Merge one budgeted run's spill/remat counters into the
        server registry so ``GET /metrics`` exports them
        (``repro_plan_spilled_bytes_total``, ``repro_plan_remat_total``,
        …) alongside the serving metrics."""
        if stats is None:
            return
        self.metrics.inc("plan.spills", stats.spills)
        self.metrics.inc("plan.spilled_bytes", stats.spilled_bytes)
        self.metrics.inc("plan.prefetched_bytes", stats.prefetched_bytes)
        self.metrics.inc("plan.remat", stats.remats)

    def _record_waterfall(self, tracer, request: _Request,
                          batch_start_us: float, latency: float) -> None:
        """The request's lifecycle as nested async slices on its own
        lane: total, queue wait, batching delay (popped but held open
        for co-riders), execute."""
        done_us = tracer.now_us()
        base = dict(trace_id=request.trace_id, category="serve")
        tracer.async_slice("request", request.id, request.admitted_us,
                           done_us, samples=request.samples,
                           latency_ms=latency * 1e3, outcome="ok", **base)
        dequeued = min(request.dequeued_us or done_us, done_us)
        tracer.async_slice("queue_wait", request.id, request.admitted_us,
                           dequeued, **base)
        exec_start = min(max(batch_start_us, dequeued), done_us)
        if exec_start > dequeued:
            tracer.async_slice("batching", request.id, dequeued, exec_start,
                               **base)
        tracer.async_slice("execute", request.id, exec_start, done_us, **base)
