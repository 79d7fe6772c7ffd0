"""Typed telemetry records collected by the :class:`~repro.obs.Tracer`.

Five record kinds cover the whole taxonomy:

- :class:`SpanRecord` — a timed region (pipeline stage, one node's
  kernel, an inference).  Spans nest; ``depth`` is the nesting level at
  which the span ran.  ``tid`` selects the timeline row the span
  renders on (each serve worker gets its own).
- :class:`InstantEvent` — a point-in-time marker (allocator alloc/free,
  arena plan summary).
- :class:`CounterSample` — one sample of a counter track (the
  live-bytes memory timeline).
- :class:`DecisionEvent` — a structured accept/reject record emitted by
  a compiler pass, carrying the subject value/node name, the verdict,
  a machine-readable reason, and the byte/FLOP quantities that drove
  the decision.
- :class:`FlowEvent` — one endpoint of a directed arrow between spans
  on different timeline rows.  The serving layer emits a flow per
  coalesced request from its admission to the micro-batch span that
  served it, so the Chrome trace renders the batch's fan-in visually.
- :class:`AsyncEvent` — one boundary of an *async* slice
  (Chrome ``ph: "b"`` / ``"e"``).  Async slices sharing one ``aid``
  render as their own stacked lane independent of any thread row —
  the natural shape for a request's lifecycle waterfall
  (queue wait → batching delay → execute → reply), which overlaps
  other requests' waterfalls and so cannot live on a thread track.

All timestamps are microseconds since the owning tracer's epoch, which
is the unit Chrome trace-event JSON uses natively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["SpanRecord", "InstantEvent", "CounterSample", "DecisionEvent",
           "FlowEvent", "AsyncEvent"]


@dataclass(frozen=True)
class SpanRecord:
    """A completed timed region."""

    name: str
    category: str
    start_us: float
    duration_us: float
    depth: int
    tid: int = 0
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


@dataclass(frozen=True)
class InstantEvent:
    """A point-in-time marker."""

    name: str
    category: str
    ts_us: float
    args: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CounterSample:
    """One sample of a named counter track (e.g. ``memory``)."""

    track: str
    ts_us: float
    values: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class DecisionEvent:
    """One accept/reject decision taken by a compiler pass.

    ``pass_name`` identifies the pass (``skip_opt``,
    ``transform.merge_concat``, ``fusion``, ``scheduling``,
    ``pipeline``), ``subject`` the value or node the decision is about,
    ``verdict`` what happened (``accept`` / ``reject`` / ``apply`` /
    ``skip`` / ``keep`` / ``fallback``), ``reason`` a short
    machine-readable cause, and ``quantities`` the numbers that drove
    it (bytes, FLOPs, peaks).
    """

    pass_name: str
    subject: str
    verdict: str
    reason: str
    ts_us: float
    quantities: dict[str, float] = field(default_factory=dict)

    @property
    def rejected(self) -> bool:
        return self.verdict in ("reject", "skip")


@dataclass(frozen=True)
class AsyncEvent:
    """One boundary of an async (non-thread-bound) slice.

    ``phase`` is ``"begin"`` or ``"end"``; boundaries sharing an
    ``aid`` form one lane, and begin/end pairs nest within it like a
    stack.  The serving layer keys ``aid`` by request id so every
    request renders as its own waterfall lane.
    """

    name: str
    aid: int
    phase: str  #: ``begin`` or ``end``
    ts_us: float
    category: str = ""
    args: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class FlowEvent:
    """One endpoint of a cross-row arrow (Chrome flow event).

    ``phase`` is ``"start"`` at the source span or ``"finish"`` at the
    destination; endpoints sharing one ``flow_id`` are connected.  The
    event must lie *inside* a span on its ``tid`` row for Chrome to
    bind the arrow to that span.
    """

    name: str
    flow_id: int
    phase: str  #: ``start`` or ``finish``
    ts_us: float
    tid: int = 0
    args: dict[str, Any] = field(default_factory=dict)
