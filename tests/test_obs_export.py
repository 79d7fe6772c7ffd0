"""Exporters and instrumentation: Chrome-trace schema, counter-track
fidelity vs the executor's MemoryProfile, JSONL stream (the same events,
one per line), and decision-log completeness against SkipOptStats."""

import json

import pytest

from repro.core.skip_opt import SkipOptConfig, optimize_skip_connections
from repro.decompose import DecompositionConfig, decompose_graph
from repro.obs import (Tracer, to_chrome_trace, use_tracer, write_chrome_trace,
                       write_jsonl, write_trace)
from repro.obs.export import TRACE_PID
from repro.runtime import InferenceSession

from _graph_fixtures import make_skip_graph, random_input
from _zoo_compiles import cheap, zoo_model

#: offline compile/run traces use the first four; serving traces add
#: flow arrows ("s"/"f") and per-request async lanes ("b"/"e")
VALID_PHASES = {"X", "i", "C", "M", "s", "f", "b", "e"}


def _traced_run():
    """Compile + run the skip fixture under a fresh tracer."""
    tracer = Tracer()
    with use_tracer(tracer):
        graph = make_skip_graph()
        decomposed = decompose_graph(
            graph, DecompositionConfig(method="tucker", ratio=0.25, seed=0))
        optimize_skip_connections(decomposed)
        result = InferenceSession(decomposed).run(random_input(decomposed))
    return tracer, result


@pytest.fixture(scope="module")
def traced():
    return _traced_run()


class TestChromeTraceSchema:
    def test_required_fields_and_phases(self, traced):
        tracer, _ = traced
        doc = to_chrome_trace(tracer)
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        for ev in doc["traceEvents"]:
            assert ev["ph"] in VALID_PHASES
            assert isinstance(ev["name"], str) and ev["name"]
            assert ev["pid"] == TRACE_PID
            assert "tid" in ev
            if ev["ph"] != "M":
                assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
            if ev["ph"] == "i":
                assert ev["s"] == "t"

    def test_metadata_names_the_process(self, traced):
        tracer, _ = traced
        meta = [e for e in to_chrome_trace(tracer)["traceEvents"]
                if e["ph"] == "M"]
        assert {"process_name", "thread_name"} <= {e["name"] for e in meta}

    def test_spans_cover_compiler_and_runtime(self, traced):
        tracer, _ = traced
        names = {e["name"] for e in tracer.events if e["ph"] == "X"}
        assert "skip_opt" in names
        assert "inference" in names

    def test_file_roundtrip_is_valid_json(self, traced, tmp_path):
        tracer, _ = traced
        path = write_chrome_trace(tracer, tmp_path / "out.json")
        doc = json.loads(path.read_text())
        assert doc["otherData"]["producer"] == "repro.obs"
        assert doc["otherData"]["metrics"]["executor.runs"] == 1


class TestRowMetadata:
    def test_named_and_used_rows_get_labels_and_sort_order(self):
        tracer = Tracer()
        tracer.name_thread(1, "worker-0")
        tracer.complete("batch", 0, 10, tid=1)
        tracer.complete("stray", 0, 10, tid=7)  # unnamed row with a span
        events = to_chrome_trace(tracer)["traceEvents"]
        names = {e["tid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names[0] == "timeline"
        assert names[1] == "worker-0"
        assert names[7] == "tid-7"  # fallback label, never a bare tid
        sort = {e["tid"]: e["args"]["sort_index"] for e in events
                if e["ph"] == "M" and e["name"] == "thread_sort_index"}
        assert sort == {0: 0, 1: 1, 7: 7}

    def test_spans_render_on_their_tid(self):
        tracer = Tracer()
        tracer.complete("batch", 0, 10, tid=3)
        (x_event,) = [e for e in to_chrome_trace(tracer)["traceEvents"]
                      if e["ph"] == "X"]
        assert x_event["tid"] == 3


class TestFlowAndAsyncExport:
    def test_flow_endpoints(self):
        tracer = Tracer()
        tracer.flow("serve.request", 42, "start", ts_us=1.0, tid=0)
        tracer.flow("serve.request", 42, "finish", ts_us=5.0, tid=1)
        flows = [e for e in to_chrome_trace(tracer)["traceEvents"]
                 if e["ph"] in ("s", "f")]
        start, finish = sorted(flows, key=lambda e: e["ts"])
        assert start["ph"] == "s" and start["id"] == 42 and start["tid"] == 0
        assert finish["ph"] == "f" and finish["tid"] == 1
        assert finish["bp"] == "e"  # bind to the enclosing slice
        assert "bp" not in start

    def test_bad_flow_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            Tracer().flow("x", 1, "middle")

    def test_async_slice_emits_balanced_pair(self):
        tracer = Tracer()
        tracer.async_slice("request", 7, 10.0, 30.0, category="serve",
                           outcome="ok")
        pair = [e for e in to_chrome_trace(tracer)["traceEvents"]
                if e["ph"] in ("b", "e")]
        begin, end = sorted(pair, key=lambda e: e["ts"])
        assert begin["ph"] == "b" and begin["ts"] == 10.0
        assert end["ph"] == "e" and end["ts"] == 30.0
        assert begin["id"] == end["id"] == 7
        assert begin["args"]["outcome"] == "ok"

    def test_jsonl_carries_flow_async_and_tid(self, tmp_path):
        tracer = Tracer()
        tracer.complete("batch", 0, 10, tid=2)
        tracer.flow("serve.request", 1, "start", ts_us=0.0)
        tracer.async_slice("request", 1, 0.0, 10.0)
        path = write_jsonl(tracer, tmp_path / "out.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert sorted(r["ph"] for r in records) == ["X", "b", "e", "s"]
        (span,) = [r for r in records if r["ph"] == "X"]
        assert span["tid"] == 2
        assert all(r["id"] == 1 for r in records if r["ph"] in "sbe")


class TestMemoryCounterTrack:
    def test_counter_track_matches_memory_profile(self, traced):
        tracer, result = traced
        events = to_chrome_trace(tracer)["traceEvents"]
        samples = [e["args"]["live_bytes"] for e in events
                   if e["ph"] == "C" and e["name"] == "memory"]
        profile = result.memory
        assert samples == profile.events
        assert max(samples) == profile.peak_internal_bytes

    def test_counter_samples_are_monotonic_in_time(self, traced):
        tracer, _ = traced
        ts = [e["ts"] for e in tracer.events
              if e["ph"] == "C" and e["name"] == "memory"]
        assert ts == sorted(ts)


class TestJsonl:
    def test_stream_parses_and_is_chronological(self, traced, tmp_path):
        tracer, _ = traced
        path = write_jsonl(tracer, tmp_path / "out.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records
        assert {r["ph"] for r in records} == {"X", "i", "C"}
        assert {r["cat"] for r in records} >= {"decision", "counter"}
        stamps = [r["ts"] for r in records]
        assert stamps == sorted(stamps)
        # the Chrome trace's events, less its metadata rows
        chrome = [e for e in to_chrome_trace(tracer)["traceEvents"]
                  if e["ph"] != "M"]
        key = lambda e: json.dumps(e, sort_keys=True)  # noqa: E731
        assert sorted(records, key=key) == sorted(
            json.loads(json.dumps(chrome)), key=key)

    def test_write_trace_routes_on_suffix(self, traced, tmp_path):
        tracer, _ = traced
        chrome = write_trace(tracer, tmp_path / "a.json")
        jsonl = write_trace(tracer, tmp_path / "a.jsonl")
        assert "traceEvents" in json.loads(chrome.read_text())
        first = json.loads(jsonl.read_text().splitlines()[0])
        assert "ph" in first and "traceEvents" not in first


def _decomposed_skip_graph():
    return decompose_graph(
        make_skip_graph(),
        DecompositionConfig(method="tucker", ratio=0.25, seed=0))


def _stats_match_decisions(tracer, stats):
    """Every SkipOptStats counter must have matching decision events."""
    by_reason = {
        "compute_overhead": stats.rejected_compute,
        "memory_overhead": stats.rejected_memory,
        "no_chain": stats.rejected_no_chain,
    }
    for reason, count in by_reason.items():
        events = tracer.decisions_for("skip_opt", verdict="reject",
                                      reason=reason)
        assert len(events) == count, reason
    accepts = tracer.decisions_for("skip_opt", verdict="accept")
    assert len(accepts) == stats.optimized
    # one decision per candidate, no more, no less
    assert len(tracer.decisions_for("skip_opt")) == stats.candidates


class TestDecisionLogCompleteness:
    def test_accepts_are_logged_with_quantities(self):
        tracer = Tracer()
        with use_tracer(tracer):
            stats = optimize_skip_connections(_decomposed_skip_graph())
        assert stats.optimized > 0
        _stats_match_decisions(tracer, stats)
        accept = tracer.decisions_for("skip_opt", verdict="accept")[0]
        for key in ("skip_bytes", "chain_peak_bytes", "copies", "copy_flops"):
            assert accept["args"][key] > 0

    def test_compute_rejections_are_logged(self):
        tracer = Tracer()
        with use_tracer(tracer):
            stats = optimize_skip_connections(
                _decomposed_skip_graph(), SkipOptConfig(compute_slack=0.0))
        assert stats.rejected_compute > 0
        _stats_match_decisions(tracer, stats)
        reject = tracer.decisions_for("skip_opt", reason="compute_overhead")[0]
        assert reject["args"]["copy_flops"] > \
            reject["args"]["threshold_flops"]

    def test_memory_rejections_are_logged(self):
        # the bottleneck ResNet's stem pool fails the memory guard at
        # its real setting (a zoo compile's memory_overhead rejection)
        decomposed = decompose_graph(zoo_model("resnet_bottleneck"),
                                     cheap("tucker"))
        tracer = Tracer()
        with use_tracer(tracer):
            stats = optimize_skip_connections(decomposed)
        assert stats.rejected_memory > 0
        _stats_match_decisions(tracer, stats)
        reject = tracer.decisions_for("skip_opt", reason="memory_overhead")[0]
        assert reject["args"]["chain_peak_bytes"] > 0
        assert reject["args"]["freed_bytes"] > 0

    def test_no_chain_rejections_are_logged(self):
        # undecomposed graph: the skip's producers are plain convs, not
        # lconv leaves, so no restore chain exists
        tracer = Tracer()
        with use_tracer(tracer):
            stats = optimize_skip_connections(make_skip_graph())
        assert stats.rejected_no_chain > 0
        _stats_match_decisions(tracer, stats)

    def test_decisions_count_into_metrics(self):
        tracer = Tracer()
        with use_tracer(tracer):
            stats = optimize_skip_connections(_decomposed_skip_graph())
        assert tracer.metrics.get("skip_opt.accept") == stats.optimized
