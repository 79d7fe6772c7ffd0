"""Trace conformance: one fixed-clock scenario's Chrome trace, pinned.

The scenario writes every event phase the exporter emits (``M``, ``X``,
``i``, ``C``, ``s``, ``f``, ``b``, ``e``): a TeMCO compile with its
decision log, a plain run, a budgeted run that spills or
rematerialises, and a serve-shaped tagged view recording a batch span,
flow endpoints, an instant, a decision, an untagged counter and an
async waterfall.  The tracer's clock is a counter, so every timestamp
is a deterministic function of the order the clock is read in.

``tests/golden/trace_events.json`` holds the exported ``traceEvents``
canonicalised (keys sorted) and sorted; the test compares multisets, so
the order records are appended in may change, their content may not.
Span args carry no ``depth`` (nesting is rebuilt from containment), so
a ``depth`` key is dropped before comparing.  Regenerate after a
*deliberate* format change with::

    PYTHONPATH=src python tests/test_trace_golden.py > tests/golden/trace_events.json
"""

import itertools
import json
from pathlib import Path

from repro import obs
from repro.core import estimate_peak_internal, optimize
from repro.data import random_inputs
from repro.decompose import DecompositionConfig, decompose_graph
from repro.models import build_model
from repro.obs import Tracer, to_chrome_trace, use_tracer
from repro.plan import plan_memory
from repro.runtime import InferenceSession

GOLDEN = Path(__file__).parent / "golden" / "trace_events.json"


def _tagged(tracer, **tags):
    """``tracer.tagged(**tags)``; a tracer without that method is
    wrapped in the equivalent proxy class instead."""
    if hasattr(tracer, "tagged"):
        return tracer.tagged(**tags)
    return obs.TaggedTracer(tracer, **tags)


def scenario() -> tuple[list[dict], int]:
    """The scenario's exported events and its plan's spill + remat count."""
    # decomposed outside the tracer: factor fit errors depend on the BLAS
    graph = decompose_graph(build_model("wavenet2d", batch=1, hw=16),
                            DecompositionConfig(method="tucker", ratio=0.25,
                                                seed=0))
    tracer = Tracer(clock=itertools.count().__next__)
    with use_tracer(tracer):
        optimized, _ = optimize(graph)
        inputs = random_inputs(optimized, 0)
        InferenceSession(optimized, tracer=tracer).run(inputs)
        plan = plan_memory(optimized,
                           int(0.95 * estimate_peak_internal(optimized)))
        stats = InferenceSession(optimized, tracer=tracer,
                                 memory_plan=plan).run(inputs).memory
    moved = stats.plan_stats.spills + stats.plan_stats.remats

    tracer.name_thread(1, "worker-0")
    worker = _tagged(tracer, tid=1, worker_id=0)
    admitted = tracer.now_us()
    tracer.flow("serve.request", 7, "start", ts_us=admitted,
                trace_id="t7")
    with worker.span("serve.batch", category="serve", request_ids=[7],
                     worker_id=99):
        worker.flow("serve.request", 7, "finish", trace_id="t7")
        run = _tagged(worker, trace_ids=["t7"])
        run.complete("node", worker.now_us(), 1.0, category="relu",
                     op="relu", index=0)
        run.counter("memory", live_bytes=64, scratch_bytes=0)
        worker.instant("serve.request_done", category="serve",
                       request_id=7)
        worker.decision("serve", "batch", "coalesce", "max_wait",
                        requests=1)
    worker.async_slice("request", 7, admitted, worker.now_us(),
                       category="serve", outcome="ok")
    return to_chrome_trace(tracer)["traceEvents"], moved


def canonical(events: list[dict]) -> list[dict]:
    """``events`` without span ``depth``, keys sorted, in sorted order."""
    out = []
    for event in events:
        event = dict(event)
        if "args" in event:
            event["args"] = {k: v for k, v in event["args"].items()
                             if not (event["ph"] == "X" and k == "depth")}
        out.append(json.loads(json.dumps(event, sort_keys=True)))
    return sorted(out, key=lambda e: json.dumps(e, sort_keys=True))


def test_trace_matches_golden():
    events, moved = scenario()
    assert moved >= 1, "the budget must force a spill or a remat"
    assert {e["ph"] for e in events} == set("MXiCsfbe")
    assert canonical(events) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    print(json.dumps(canonical(scenario()[0]), indent=0, sort_keys=True))
