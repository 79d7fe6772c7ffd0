"""Trace exporters: Chrome trace-event JSON and a JSONL event stream.

``write_chrome_trace`` emits the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``:

- spans become complete events (``ph: "X"``) with microsecond ``ts`` /
  ``dur``, rendered on the row their ``tid`` selects,
- decision and instant events become instant events (``ph: "i"``) whose
  ``args`` carry the verdict/reason/quantities,
- counter samples become counter events (``ph: "C"``) — the ``memory``
  track renders the live/scratch-bytes timeline alongside the node
  spans, and the ``arena`` track (emitted by the conformance auditor,
  :mod:`repro.obs.audit`) renders the planned arena occupancy next to
  it for a measured-vs-planned visual diff,
- flow events become ``ph: "s"`` / ``ph: "f"`` pairs — the arrows that
  render the micro-batcher's fan-in (one per coalesced request),
- async slices become ``ph: "b"`` / ``ph: "e"`` pairs keyed by ``id``
  — each served request renders as its own waterfall lane
  (queue wait → batching delay → execute → reply),
- process/thread names are set with metadata events (``ph: "M"``):
  the main row, plus one labeled row per tid the tracer named with
  :meth:`~repro.obs.Tracer.name_thread` or that any span landed on
  (serve workers) — so the trace shows ``worker-0`` / ``worker-1``
  lanes instead of raw tids.

``write_jsonl`` dumps the same records as one self-describing JSON
object per line (``{"type": "span", ...}``), the grep-friendly form.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from .tracer import Tracer

__all__ = ["chrome_trace_events", "to_chrome_trace", "write_chrome_trace",
           "jsonl_records", "write_jsonl", "write_trace"]

#: pid used for every emitted event (single-process tracer)
TRACE_PID = 1
#: tid of the span/decision timeline vs the counter tracks
MAIN_TID = 0


def chrome_trace_events(tracer: Tracer, *,
                        process_name: str = "repro") -> list[dict]:
    """The tracer's records as a flat Chrome ``traceEvents`` list."""
    thread_names = dict(getattr(tracer, "thread_names", {}))
    thread_names.setdefault(MAIN_TID, "timeline")
    # every row a span landed on gets at least a generic label, so no
    # lane in the rendered trace is a bare numeric tid
    for span in tracer.spans:
        thread_names.setdefault(span.tid, f"tid-{span.tid}")
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
    for span in tracer.spans:
        events.append({
            "name": span.name, "cat": span.category or "span", "ph": "X",
            "ts": span.start_us, "dur": span.duration_us,
            "pid": TRACE_PID, "tid": span.tid,
            "args": dict(span.args, depth=span.depth),
        })
    for inst in tracer.instants:
        events.append({
            "name": inst.name, "cat": inst.category or "instant", "ph": "i",
            "ts": inst.ts_us, "pid": TRACE_PID, "tid": MAIN_TID, "s": "t",
            "args": dict(inst.args),
        })
    for dec in tracer.decisions:
        events.append({
            "name": f"{dec.pass_name}:{dec.subject}", "cat": "decision",
            "ph": "i", "ts": dec.ts_us, "pid": TRACE_PID, "tid": MAIN_TID,
            "s": "t",
            "args": dict(dec.quantities, pass_name=dec.pass_name,
                         subject=dec.subject, verdict=dec.verdict,
                         reason=dec.reason),
        })
    for sample in tracer.counters:
        events.append({
            "name": sample.track, "cat": "counter", "ph": "C",
            "ts": sample.ts_us, "pid": TRACE_PID, "tid": MAIN_TID,
            "args": dict(sample.values),
        })
    for fl in getattr(tracer, "flows", ()):
        event = {
            "name": fl.name, "cat": "flow",
            "ph": "s" if fl.phase == "start" else "f",
            "id": fl.flow_id, "ts": fl.ts_us,
            "pid": TRACE_PID, "tid": fl.tid, "args": dict(fl.args),
        }
        if fl.phase == "finish":
            event["bp"] = "e"  # bind to the enclosing span, not the next
        events.append(event)
    for ae in getattr(tracer, "async_events", ()):
        events.append({
            "name": ae.name, "cat": ae.category or "async",
            "ph": "b" if ae.phase == "begin" else "e",
            "id": ae.aid, "ts": ae.ts_us,
            "pid": TRACE_PID, "tid": MAIN_TID, "args": dict(ae.args),
        })
    return events


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


def jsonl_records(tracer: Tracer) -> Iterator[dict]:
    """Every record as a self-describing dict, in chronological order."""
    records: list[tuple[float, dict]] = []
    for span in tracer.spans:
        records.append((span.start_us, {
            "type": "span", "name": span.name, "category": span.category,
            "start_us": span.start_us, "duration_us": span.duration_us,
            "depth": span.depth, "tid": span.tid, "args": dict(span.args)}))
    for inst in tracer.instants:
        records.append((inst.ts_us, {
            "type": "instant", "name": inst.name, "category": inst.category,
            "ts_us": inst.ts_us, "args": dict(inst.args)}))
    for dec in tracer.decisions:
        records.append((dec.ts_us, {
            "type": "decision", "pass": dec.pass_name, "subject": dec.subject,
            "verdict": dec.verdict, "reason": dec.reason, "ts_us": dec.ts_us,
            "quantities": dict(dec.quantities)}))
    for sample in tracer.counters:
        records.append((sample.ts_us, {
            "type": "counter", "track": sample.track, "ts_us": sample.ts_us,
            "values": dict(sample.values)}))
    for fl in getattr(tracer, "flows", ()):
        records.append((fl.ts_us, {
            "type": "flow", "name": fl.name, "flow_id": fl.flow_id,
            "phase": fl.phase, "ts_us": fl.ts_us, "tid": fl.tid,
            "args": dict(fl.args)}))
    for ae in getattr(tracer, "async_events", ()):
        records.append((ae.ts_us, {
            "type": "async", "name": ae.name, "aid": ae.aid,
            "phase": ae.phase, "ts_us": ae.ts_us,
            "category": ae.category, "args": dict(ae.args)}))
    for _, record in sorted(records, key=lambda r: r[0]):
        yield record


def write_jsonl(tracer: Tracer, path: str | Path) -> Path:
    path = Path(path)
    with path.open("w") as fh:
        for record in jsonl_records(tracer):
            fh.write(json.dumps(record) + "\n")
    return path


def write_trace(tracer: Tracer, path: str | Path) -> Path:
    """Write ``path`` in the format its suffix implies: ``.jsonl`` gets
    the JSONL stream, anything else Chrome trace JSON."""
    path = Path(path)
    if path.suffix == ".jsonl":
        return write_jsonl(tracer, path)
    return write_chrome_trace(tracer, path)
