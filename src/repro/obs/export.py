"""Trace exporters: Chrome trace-event JSON and a JSONL event stream.

A :class:`~repro.obs.Tracer` already holds its records as `Trace Event
Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
events, the format Perfetto (https://ui.perfetto.dev) and
``chrome://tracing`` read:

- spans are complete events (``ph: "X"``) with microsecond ``ts`` /
  ``dur``, rendered on the row their ``tid`` selects,
- decisions and instants are instant events (``ph: "i"``); a
  decision's ``args`` carry its verdict, reason and quantities,
- counter samples are counter events (``ph: "C"``) — the ``memory``
  track renders the live/scratch-bytes timeline alongside the node
  spans,
- flows are ``ph: "s"`` / ``ph: "f"`` pairs — the arrows that render
  the micro-batcher's fan-in (one per coalesced request),
- async slices are ``ph: "b"`` / ``ph: "e"`` pairs keyed by ``id`` —
  each served request renders as its own waterfall lane
  (queue wait → batching delay → execute → reply).

``chrome_trace_events`` adds the metadata events (``ph: "M"``) that
name the process and the rows: the main row, plus one labeled row per
tid the tracer named with :meth:`~repro.obs.Tracer.name_thread` or
that any span landed on (serve workers) — so the trace shows
``worker-0`` / ``worker-1`` lanes instead of raw tids.

``write_jsonl`` writes the same events, one per line in ``ts`` order,
the grep-friendly form.
"""

from __future__ import annotations

import json
from pathlib import Path

from .tracer import TRACE_PID, Tracer

__all__ = ["chrome_trace_events", "to_chrome_trace", "write_chrome_trace",
           "write_jsonl", "write_trace"]

#: tid of the main timeline: admission, instants and the counter tracks
MAIN_TID = 0


def chrome_trace_events(tracer: Tracer, *,
                        process_name: str = "repro") -> list[dict]:
    """The metadata events, then the tracer's events as recorded (its
    own dicts: copy one before changing it)."""
    thread_names = dict(tracer.thread_names)
    thread_names.setdefault(MAIN_TID, "timeline")
    # every row a span landed on gets at least a generic label, so no
    # lane in the rendered trace is a bare numeric tid
    for event in tracer.events:
        if event["ph"] == "X":
            thread_names.setdefault(event["tid"], f"tid-{event['tid']}")
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": TRACE_PID, "tid": MAIN_TID,
         "args": {"name": process_name}},
    ]
    for tid in sorted(thread_names):
        events.append({"name": "thread_name", "ph": "M", "pid": TRACE_PID,
                       "tid": tid, "args": {"name": thread_names[tid]}})
        # keep lanes in tid order (admission first, then workers)
        events.append({"name": "thread_sort_index", "ph": "M",
                       "pid": TRACE_PID, "tid": tid,
                       "args": {"sort_index": tid}})
    return events + tracer.events


def to_chrome_trace(tracer: Tracer, *, process_name: str = "repro") -> dict:
    """The full Chrome trace JSON object."""
    return {
        "traceEvents": chrome_trace_events(tracer, process_name=process_name),
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "metrics": tracer.metrics.snapshot(),
        },
    }


def write_chrome_trace(tracer: Tracer, path: str | Path, *,
                       process_name: str = "repro") -> Path:
    """Write the tracer's records as Chrome trace JSON at ``path``."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(
        tracer, process_name=process_name), indent=1))
    return path


def write_jsonl(tracer: Tracer, path: str | Path) -> Path:
    """Write the tracer's events at ``path``, one JSON object per line,
    in ``ts`` order."""
    path = Path(path)
    with path.open("w") as fh:
        for event in sorted(tracer.events, key=lambda e: e["ts"]):
            fh.write(json.dumps(event) + "\n")
    return path


def write_trace(tracer: Tracer, path: str | Path) -> Path:
    """Write ``path`` in the format its suffix implies: ``.jsonl`` gets
    the JSONL stream, anything else Chrome trace JSON."""
    path = Path(path)
    if path.suffix == ".jsonl":
        return write_jsonl(tracer, path)
    return write_chrome_trace(tracer, path)
