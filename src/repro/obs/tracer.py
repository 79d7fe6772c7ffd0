"""Lightweight in-process tracer with nested spans and decision logging.

Two implementations share one duck-typed API:

- :class:`Tracer` — records everything into in-memory lists, ready for
  the :mod:`repro.obs.export` emitters (Chrome trace JSON / JSONL).
- :class:`NoopTracer` — the default.  ``enabled`` is ``False`` and
  every method is a no-op; hot paths guard on ``tracer.enabled`` so a
  disabled tracer costs one attribute read per node and allocates
  nothing (the no-op span is a shared singleton).

The *active* tracer is ambient state managed with
:func:`get_tracer` / :func:`set_tracer` / :func:`use_tracer`, so the
compiler passes and the executor pick it up without every call site
having to thread a parameter through.  :func:`set_tracer` installs a
*process-wide* default; :func:`use_tracer` pushes onto a
*thread-local* stack, so concurrent workers (the
:mod:`repro.serve` server threads) can each scope their own tracer
without clobbering each other.
"""

from __future__ import annotations

import logging
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from .events import (AsyncEvent, CounterSample, DecisionEvent, FlowEvent,
                     InstantEvent, SpanRecord)
from .metrics import MetricsRegistry

__all__ = ["Tracer", "NoopTracer", "TaggedTracer", "NOOP_TRACER",
           "get_tracer", "set_tracer", "use_tracer", "configure_logging",
           "new_trace_id"]


def new_trace_id() -> str:
    """A fresh 16-hex-char request trace id.

    Assigned once at admission (:meth:`repro.serve.InferenceServer.submit`)
    and stamped onto every span the request touches — queue wait, the
    micro-batch that served it, per-op executor spans — so one grep
    (or one Perfetto query) reconstructs the request's full waterfall.
    """
    return uuid.uuid4().hex[:16]


class _NoopSpan:
    """Reusable do-nothing context manager (one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """Disabled tracer: every operation is free and records nothing."""

    enabled: bool = False

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()

    def span(self, name: str, category: str = "", tid: int | None = None,
             **args) -> _NoopSpan:
        return _NOOP_SPAN

    def now_us(self) -> float:
        return 0.0

    def complete(self, name: str, start_us: float, duration_us: float,
                 category: str = "", tid: int | None = None, **args) -> None:
        return None

    def instant(self, name: str, category: str = "", **args) -> None:
        return None

    def counter(self, track: str, ts_us: float | None = None,
                **values) -> None:
        return None

    def decision(self, pass_name: str, subject: str, verdict: str,
                 reason: str = "", **quantities) -> None:
        return None

    def flow(self, name: str, flow_id: int, phase: str,
             ts_us: float | None = None, tid: int | None = None,
             **args) -> None:
        return None

    def async_slice(self, name: str, aid: int, start_us: float,
                    end_us: float, category: str = "", **args) -> None:
        return None

    def name_thread(self, tid: int, name: str) -> None:
        return None


#: process-wide default; ``get_tracer()`` returns this unless a real
#: tracer has been installed
NOOP_TRACER = NoopTracer()


class Tracer(NoopTracer):
    """Recording tracer: nested spans, instants, counters, decisions.

    Parameters
    ----------
    clock:
        Monotonic float-seconds clock, injectable for deterministic
        tests.  Defaults to :func:`time.perf_counter`.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        super().__init__()
        self._clock = clock
        self._epoch = clock()
        self._depth = 0
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantEvent] = []
        self.counters: list[CounterSample] = []
        self.decisions: list[DecisionEvent] = []
        self.flows: list[FlowEvent] = []
        self.async_events: list[AsyncEvent] = []
        #: Chrome-trace row labels, tid -> name (see :meth:`name_thread`)
        self.thread_names: dict[int, str] = {}

    # -- time ---------------------------------------------------------------

    def now_us(self) -> float:
        return (self._clock() - self._epoch) * 1e6

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str, category: str = "", tid: int | None = None,
             **args) -> Iterator[None]:
        """Timed nested region; the record is appended when it closes."""
        start = self.now_us()
        depth = self._depth
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            self.spans.append(SpanRecord(
                name=name, category=category, start_us=start,
                duration_us=self.now_us() - start, depth=depth,
                tid=tid or 0, args=args))

    def complete(self, name: str, start_us: float, duration_us: float,
                 category: str = "", tid: int | None = None, **args) -> None:
        """Record an already-timed region (executor per-node fast path)."""
        self.spans.append(SpanRecord(
            name=name, category=category, start_us=start_us,
            duration_us=duration_us, depth=self._depth, tid=tid or 0,
            args=args))

    # -- point events -------------------------------------------------------

    def instant(self, name: str, category: str = "", **args) -> None:
        self.instants.append(InstantEvent(
            name=name, category=category, ts_us=self.now_us(), args=args))

    def counter(self, track: str, ts_us: float | None = None,
                **values) -> None:
        """Sample a counter track.  ``ts_us`` places the sample at an
        explicit timestamp instead of "now" — used by the conformance
        auditor to align the ``arena`` occupancy track with the
        already-recorded executor node spans."""
        self.counters.append(CounterSample(
            track=track, ts_us=self.now_us() if ts_us is None else ts_us,
            values=values))

    def decision(self, pass_name: str, subject: str, verdict: str,
                 reason: str = "", **quantities) -> None:
        self.decisions.append(DecisionEvent(
            pass_name=pass_name, subject=subject, verdict=verdict,
            reason=reason, ts_us=self.now_us(), quantities=quantities))
        self.metrics.inc(f"{pass_name}.{verdict}")

    def flow(self, name: str, flow_id: int, phase: str,
             ts_us: float | None = None, tid: int | None = None,
             **args) -> None:
        """Record one endpoint of a cross-row arrow.

        ``phase`` is ``"start"`` (source) or ``"finish"`` (destination);
        both endpoints of one arrow share ``flow_id``.  Chrome binds
        each endpoint to the span enclosing ``ts_us`` on row ``tid``.
        """
        if phase not in ("start", "finish"):
            raise ValueError(f"flow phase must be start/finish, got {phase!r}")
        self.flows.append(FlowEvent(
            name=name, flow_id=flow_id, phase=phase,
            ts_us=self.now_us() if ts_us is None else ts_us,
            tid=tid or 0, args=args))

    def async_slice(self, name: str, aid: int, start_us: float,
                    end_us: float, category: str = "", **args) -> None:
        """Record one already-timed async slice (begin + end pair).

        Slices sharing ``aid`` stack into one rendered lane; the
        serving layer emits a request's whole waterfall (queue wait →
        batching delay → execute → reply) as nested slices under its
        request-id lane once the outcome is known.
        """
        self.async_events.append(AsyncEvent(
            name=name, aid=aid, phase="begin", ts_us=start_us,
            category=category, args=args))
        self.async_events.append(AsyncEvent(
            name=name, aid=aid, phase="end", ts_us=end_us,
            category=category, args={}))

    def name_thread(self, tid: int, name: str) -> None:
        """Label a Chrome-trace timeline row (a serve worker)."""
        self.thread_names[tid] = name

    # -- queries ------------------------------------------------------------

    def decisions_for(self, pass_name: str,
                      verdict: str | None = None,
                      reason: str | None = None) -> list[DecisionEvent]:
        """Filter the decision log (test/report convenience)."""
        return [d for d in self.decisions
                if d.pass_name == pass_name
                and (verdict is None or d.verdict == verdict)
                and (reason is None or d.reason == reason)]

    def counter_series(self, track: str, key: str) -> list[float]:
        """One series of a counter track, in record order."""
        return [s.values[key] for s in self.counters
                if s.track == track and key in s.values]


class TaggedTracer:
    """Proxy that stamps fixed attributes onto every record.

    Wraps any tracer and merges ``tags`` into the args of every span,
    completed region, instant, and decision recorded through it.  The
    serving layer uses this to make concurrent worker traces
    attributable after they merge into one shared tracer: each worker's
    session records through ``TaggedTracer(tracer, worker_id=i)``, so
    every executor node span in the combined trace carries the worker
    that ran it (and batch spans carry the ``request_id`` list).

    Counter samples are forwarded *untagged* — their values are numeric
    series, and injecting a constant ``worker_id`` series into the
    ``memory`` track would corrupt the timeline rendering.

    Explicit tags win over colliding call-site args so a worker cannot
    accidentally mislabel itself.  A ``tid`` pins every span recorded
    through the proxy onto one Chrome-trace row, which is how each
    serve worker gets its own labeled timeline lane.
    """

    def __init__(self, inner: NoopTracer, tid: int | None = None,
                 **tags: Any) -> None:
        self._inner = inner
        self.tid = tid
        self.tags = tags

    @property
    def enabled(self) -> bool:
        return self._inner.enabled

    @property
    def metrics(self) -> MetricsRegistry:
        return self._inner.metrics

    def tagged(self, **tags: Any) -> "TaggedTracer":
        """A further-specialized proxy (same inner tracer, merged tags)."""
        return TaggedTracer(self._inner, tid=self.tid,
                            **{**self.tags, **tags})

    def now_us(self) -> float:
        return self._inner.now_us()

    def span(self, name: str, category: str = "", tid: int | None = None,
             **args):
        return self._inner.span(name, category,
                                tid=self.tid if tid is None else tid,
                                **{**args, **self.tags})

    def complete(self, name: str, start_us: float, duration_us: float,
                 category: str = "", tid: int | None = None, **args) -> None:
        self._inner.complete(name, start_us, duration_us, category,
                             tid=self.tid if tid is None else tid,
                             **{**args, **self.tags})

    def instant(self, name: str, category: str = "", **args) -> None:
        self._inner.instant(name, category, **{**args, **self.tags})

    def counter(self, track: str, ts_us: float | None = None,
                **values) -> None:
        self._inner.counter(track, ts_us=ts_us, **values)

    def decision(self, pass_name: str, subject: str, verdict: str,
                 reason: str = "", **quantities) -> None:
        self._inner.decision(pass_name, subject, verdict, reason,
                             **{**quantities, **self.tags})

    def flow(self, name: str, flow_id: int, phase: str,
             ts_us: float | None = None, tid: int | None = None,
             **args) -> None:
        self._inner.flow(name, flow_id, phase, ts_us=ts_us,
                         tid=self.tid if tid is None else tid,
                         **{**args, **self.tags})

    def async_slice(self, name: str, aid: int, start_us: float,
                    end_us: float, category: str = "", **args) -> None:
        self._inner.async_slice(name, aid, start_us, end_us, category,
                                **{**args, **self.tags})

    def name_thread(self, tid: int, name: str) -> None:
        self._inner.name_thread(tid, name)


# ---------------------------------------------------------------------------
# ambient tracer
# ---------------------------------------------------------------------------

#: process-wide default, replaced by :func:`set_tracer`
_DEFAULT_TRACER: NoopTracer = NOOP_TRACER


class _AmbientStack(threading.local):
    """Per-thread overlay of :func:`use_tracer` installations."""

    def __init__(self) -> None:
        self.stack: list[NoopTracer] = []


_AMBIENT = _AmbientStack()


def get_tracer() -> NoopTracer:
    """The currently active tracer (the no-op singleton by default).

    Resolution order: the calling thread's innermost :func:`use_tracer`
    scope, else the process-wide default set by :func:`set_tracer`.
    """
    stack = _AMBIENT.stack
    return stack[-1] if stack else _DEFAULT_TRACER


def set_tracer(tracer: NoopTracer | None) -> None:
    """Replace the process-wide default tracer; ``None`` restores the
    no-op default.  Threads inside a :func:`use_tracer` scope keep
    their scoped tracer."""
    global _DEFAULT_TRACER
    _DEFAULT_TRACER = tracer if tracer is not None else NOOP_TRACER


@contextmanager
def use_tracer(tracer: NoopTracer) -> Iterator[NoopTracer]:
    """Install ``tracer`` as the ambient tracer for the ``with`` body
    (visible only to the installing thread)."""
    _AMBIENT.stack.append(tracer)
    try:
        yield tracer
    finally:
        _AMBIENT.stack.pop()


# ---------------------------------------------------------------------------
# stdlib logging
# ---------------------------------------------------------------------------

def configure_logging(level: str = "info", *,
                      stream: Any | None = None) -> logging.Logger:
    """Wire the ``repro`` logger hierarchy to stderr at ``level``.

    Idempotent: reinvoking only adjusts the level.  Every module in the
    package logs through ``logging.getLogger(__name__)``, so this one
    call controls all of them.
    """
    logger = logging.getLogger("repro")
    logger.setLevel(getattr(logging, level.upper()))
    if not logger.handlers:
        handler = logging.StreamHandler(stream)
        handler.setFormatter(logging.Formatter(
            "%(levelname).1s %(name)s: %(message)s"))
        logger.addHandler(handler)
    return logger
