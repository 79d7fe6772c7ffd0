"""Lightweight in-process tracer with nested spans and decision logging.

Two implementations share one duck-typed API:

- :class:`Tracer` — appends every record to one list, ``events``, as
  the Chrome trace event it is exported as (see
  :mod:`repro.obs.export`); every reader filters that list.
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

import copy
import logging
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from .metrics import MetricsRegistry

__all__ = ["Tracer", "NoopTracer", "NOOP_TRACER", "TRACE_PID",
           "get_tracer", "set_tracer", "use_tracer", "configure_logging",
           "new_trace_id"]

#: pid of every recorded event (one process per tracer)
TRACE_PID = 1


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

    def tagged(self, tid: int | None = None, **tags: Any) -> "NoopTracer":
        return self

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

    def counter(self, track: str, **values) -> None:
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
    """Recording tracer: spans, instants, counters, decisions, flows and
    async slices, each appended to ``events`` as its Chrome trace event.

    Timestamps are microseconds since the tracer's epoch.  Spans
    (``ph: "X"``) render on the row their ``tid`` selects; instants,
    decisions and counter samples on row 0.  A decision is an instant
    of category ``decision`` named ``pass:subject`` whose args are its
    quantities plus ``pass_name``, ``subject``, ``verdict`` and
    ``reason``.

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
        #: every record, as the Chrome trace event it is exported as
        self.events: list[dict] = []
        #: Chrome-trace row labels, tid -> name (see :meth:`name_thread`)
        self.thread_names: dict[int, str] = {}
        #: stamped onto every record's args but counter samples
        self.tags: dict[str, Any] = {}
        #: the row of spans and flow endpoints recorded without a tid
        self.tid = 0

    def tagged(self, tid: int | None = None, **tags: Any) -> "Tracer":
        """A view that records into the same ``events``, ``metrics`` and
        ``thread_names`` and stamps ``tags`` onto every record.

        The serving layer makes concurrent worker traces attributable
        this way: each worker records through
        ``tracer.tagged(tid=i + 1, worker_id=i)``, so its spans land on
        its own labeled row and carry the worker that ran them.  Tags
        win over colliding call-site args, so a worker cannot mislabel
        itself; a view's own :meth:`tagged` merges further tags in.
        Counter samples stay untagged: their values are numeric series,
        and a constant ``worker_id`` series in the ``memory`` track would
        corrupt the timeline.
        """
        view = copy.copy(self)
        view.tags = {**self.tags, **tags}
        if tid is not None:
            view.tid = tid
        return view

    # -- time ---------------------------------------------------------------

    def now_us(self) -> float:
        return (self._clock() - self._epoch) * 1e6

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str, category: str = "", tid: int | None = None,
             **args) -> Iterator[None]:
        """Timed nested region; the event is appended when it closes."""
        start = self.now_us()
        try:
            yield
        finally:
            self.complete(name, start, self.now_us() - start, category, tid,
                          **args)

    def complete(self, name: str, start_us: float, duration_us: float,
                 category: str = "", tid: int | None = None, **args) -> None:
        """Record an already-timed region (executor per-node fast path)."""
        if self.tags:
            args.update(self.tags)
        self.events.append({
            "name": name, "cat": category or "span", "ph": "X",
            "ts": start_us, "dur": duration_us, "pid": TRACE_PID,
            "tid": self.tid if tid is None else tid, "args": args})

    # -- point events -------------------------------------------------------

    def instant(self, name: str, category: str = "", **args) -> None:
        if self.tags:
            args.update(self.tags)
        self.events.append({
            "name": name, "cat": category or "instant", "ph": "i",
            "ts": self.now_us(), "pid": TRACE_PID, "tid": 0, "s": "t",
            "args": args})

    def counter(self, track: str, **values) -> None:
        self.events.append({
            "name": track, "cat": "counter", "ph": "C",
            "ts": self.now_us(), "pid": TRACE_PID, "tid": 0,
            "args": values})

    def decision(self, pass_name: str, subject: str, verdict: str,
                 reason: str = "", **quantities) -> None:
        self.events.append({
            "name": f"{pass_name}:{subject}", "cat": "decision", "ph": "i",
            "ts": self.now_us(), "pid": TRACE_PID, "tid": 0, "s": "t",
            "args": {**quantities, **self.tags, "pass_name": pass_name,
                     "subject": subject, "verdict": verdict,
                     "reason": reason}})
        self.metrics.inc(f"{pass_name}.{verdict}")

    def flow(self, name: str, flow_id: int, phase: str,
             ts_us: float | None = None, tid: int | None = None,
             **args) -> None:
        """Record one endpoint of a cross-row arrow.

        ``phase`` is ``"start"`` (source, ``ph: "s"``) or ``"finish"``
        (destination, ``ph: "f"``); both endpoints of one arrow share
        ``flow_id``.  Chrome binds each endpoint to the span enclosing
        ``ts_us`` on row ``tid`` (``bp: "e"``: the finish binds to its
        enclosing span, not the next one).
        """
        if phase not in ("start", "finish"):
            raise ValueError(f"flow phase must be start/finish, got {phase!r}")
        if self.tags:
            args.update(self.tags)
        event = {"name": name, "cat": "flow",
                 "ph": "s" if phase == "start" else "f", "id": flow_id,
                 "ts": self.now_us() if ts_us is None else ts_us,
                 "pid": TRACE_PID, "tid": self.tid if tid is None else tid,
                 "args": args}
        if phase == "finish":
            event["bp"] = "e"
        self.events.append(event)

    def async_slice(self, name: str, aid: int, start_us: float,
                    end_us: float, category: str = "", **args) -> None:
        """Record one already-timed async slice (``ph: "b"`` + ``"e"``).

        Slices sharing ``aid`` stack into one rendered lane, independent
        of any thread row; the serving layer emits a request's whole
        waterfall (queue wait → batching delay → execute → reply) as
        nested slices under its request-id lane once the outcome is
        known.
        """
        if self.tags:
            args.update(self.tags)
        base = {"name": name, "cat": category or "async", "id": aid,
                "pid": TRACE_PID, "tid": 0}
        self.events.append({**base, "ph": "b", "ts": start_us, "args": args})
        self.events.append({**base, "ph": "e", "ts": end_us, "args": {}})

    def name_thread(self, tid: int, name: str) -> None:
        """Label a Chrome-trace timeline row (a serve worker)."""
        self.thread_names[tid] = name

    # -- queries ------------------------------------------------------------

    def decisions_for(self, pass_name: str | None = None,
                      verdict: str | None = None,
                      reason: str | None = None) -> list[dict]:
        """The decision events, filtered by pass, verdict and reason."""
        return [e for e in self.events
                if e["cat"] == "decision" and e["ph"] == "i"
                and (pass_name is None or e["args"]["pass_name"] == pass_name)
                and (verdict is None or e["args"]["verdict"] == verdict)
                and (reason is None or e["args"]["reason"] == reason)]

    def counter_series(self, track: str, key: str) -> list[float]:
        """One series of a counter track, in record order."""
        return [e["args"][key] for e in self.events
                if e["ph"] == "C" and e["name"] == track and key in e["args"]]


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
