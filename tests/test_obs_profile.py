"""Hot-path profiler: span aggregation and flamegraph export, and their
accuracy against the wall-clock spans they attribute."""

import itertools

import numpy as np
import pytest

from repro.models import build_model
from repro.obs import (ProfileReport, Tracer, collapsed_stacks, profile_spans,
                       profile_tracer, write_collapsed_stacks)
from repro.runtime import InferenceSession


def _node_span(tracer, name, op, start, dur, **extra):
    tracer.complete(name, start, dur, category=op, op=op, **extra)


class TestProfileSpans:
    def test_aggregates_by_op_and_node(self):
        t = Tracer()
        _node_span(t, "c1", "conv2d", 0, 100, bytes=10, flops=400)
        _node_span(t, "c2", "conv2d", 100, 300, bytes=30, flops=600)
        _node_span(t, "r1", "relu", 400, 100, bytes=60, flops=0)
        report = profile_spans(t.events, model="m", runs=1)
        assert report.total_us == 500
        conv, relu = report.by_op
        assert conv.key == "conv2d" and conv.count == 2
        assert conv.total_us == 400 and conv.mean_us == 200
        assert conv.share == pytest.approx(0.8)
        assert conv.total_bytes == 40 and conv.flops == 1000
        assert conv.intensity == pytest.approx(25.0)
        assert relu.intensity == 0.0
        assert [s.key for s in report.by_node] == ["c2", "c1", "r1"]

    def test_container_spans_ignored(self):
        t = Tracer()
        with t.span("serve.batch", category="serve"):
            pass
        _node_span(t, "c1", "conv2d", 0, 50)
        report = profile_spans(t.events)
        assert report.total_us == 50
        assert [s.key for s in report.by_op] == ["conv2d"]

    def test_scratch_is_max_not_sum(self):
        t = Tracer()
        _node_span(t, "f1", "fused_block", 0, 10, scratch=100)
        _node_span(t, "f2", "fused_block", 10, 10, scratch=300)
        (fused,) = profile_spans(t.events).by_op
        assert fused.scratch_bytes == 300

    def test_gflops_per_s(self):
        t = Tracer()
        _node_span(t, "c1", "conv2d", 0, 1_000_000, flops=2_000_000_000)
        (conv,) = profile_spans(t.events).by_op
        assert conv.gflops_per_s == pytest.approx(2.0)

    def test_empty_trace(self):
        report = profile_spans([])
        assert isinstance(report, ProfileReport)
        assert report.total_us == 0.0
        assert report.by_op == [] and report.by_node == []

    def test_to_dict_round_trips_json(self):
        import json
        t = Tracer()
        _node_span(t, "c1", "conv2d", 0, 50, bytes=8, flops=16)
        doc = json.loads(profile_spans(t.events, model="m").to_json())
        assert doc["model"] == "m"
        assert doc["by_op"][0]["intensity"] == pytest.approx(2.0)


class TestProfileTracer:
    def test_real_session_carries_bytes_and_flops(self):
        graph = build_model("unet_small", batch=1, hw=16)
        tracer = Tracer()
        x = np.random.default_rng(0).normal(
            size=graph.inputs[0].shape).astype(np.float32)
        session = InferenceSession(graph, tracer=tracer)
        session.run(x)
        session.run(x)
        report = profile_tracer(tracer, model=graph.name)
        assert report.runs == 2
        assert report.model == graph.name
        conv = next(s for s in report.by_op if s.key == "conv2d")
        assert conv.total_bytes > 0 and conv.flops > 0
        assert conv.intensity > 0
        # shares over all attributed ops sum to 1
        assert sum(s.share for s in report.by_op) == pytest.approx(1.0)
        # per-node table has one row per distinct layer, each run counted
        assert all(s.count == 2 for s in report.by_node)


def _two_runs_on_two_rows():
    """A fixed-clock tracer holding two runs of one session, the second
    recorded through a view on row 1."""
    graph = build_model("unet_small", batch=1, hw=16)
    tracer = Tracer(clock=itertools.count().__next__)
    x = np.random.default_rng(0).normal(
        size=graph.inputs[0].shape).astype(np.float32)
    session = InferenceSession(graph, tracer=tracer)
    session.run(x)
    session.run(x, tracer=tracer.tagged(tid=1))
    return tracer


class TestProfileAccuracy:
    """Does the per-op sum match wall-clock time?"""

    def test_node_spans_lie_inside_their_inference_span(self):
        tracer = _two_runs_on_two_rows()
        spans = [e for e in tracer.events if e["ph"] == "X"]
        runs = [s for s in spans if s["name"] == "inference"]
        assert len(runs) == 2
        nodes = [s for s in spans if "op" in s["args"]]
        assert nodes
        for node in nodes:
            (run,) = [r for r in runs if r["tid"] == node["tid"]]
            assert run["ts"] <= node["ts"]
            assert node["ts"] + node["dur"] <= run["ts"] + run["dur"]
        report = profile_tracer(tracer)
        assert report.runs == 2
        assert 0 < report.total_us <= sum(r["dur"] for r in runs)

    def test_flamegraph_widths_sum_to_top_level_time_per_row(self):
        tracer = _two_runs_on_two_rows()
        for tid in (0, 1):
            row = Tracer()
            row.events = [e for e in tracer.events
                          if e["ph"] == "X" and e["tid"] == tid]
            top_us, end = 0.0, None
            for span in sorted(row.events, key=lambda s: (s["ts"], -s["dur"])):
                if end is None or span["ts"] >= end:
                    top_us += span["dur"]
                    end = span["ts"] + span["dur"]
            widths = [int(ln.rsplit(" ", 1)[1]) for ln in collapsed_stacks(row)]
            assert top_us > 0
            assert sum(widths) == top_us


class TestCollapsedStacks:
    def test_nesting_and_self_time(self):
        t = Tracer()
        # parent [0, 100] with child [10, 40] -> parent self 70, child 30
        t.complete("child", 10, 30)
        t.complete("parent", 0, 100)
        lines = dict(line.rsplit(" ", 1) for line in collapsed_stacks(t))
        assert lines == {"repro;parent": "70", "repro;parent;child": "30"}

    def test_siblings_fold_together(self):
        t = Tracer()
        t.complete("op", 0, 10)
        t.complete("op", 20, 10)
        lines = collapsed_stacks(t)
        assert lines == ["repro;op 20"]

    def test_separate_tids_never_nest(self):
        t = Tracer()
        t.complete("a", 0, 100, tid=1)
        t.complete("b", 10, 20, tid=2)  # inside a's interval, other row
        lines = set(collapsed_stacks(t))
        assert lines == {"repro;a 100", "repro;b 20"}

    def test_write(self, tmp_path):
        t = Tracer()
        t.complete("op", 0, 10)
        path = write_collapsed_stacks(t, tmp_path / "fg.txt")
        assert path.read_text() == "repro;op 10\n"

    def test_real_session_stacks_nest_under_inference(self):
        graph = build_model("unet_small", batch=1, hw=16)
        tracer = Tracer()
        x = np.random.default_rng(0).normal(
            size=graph.inputs[0].shape).astype(np.float32)
        InferenceSession(graph, tracer=tracer).run(x)
        lines = collapsed_stacks(tracer)
        node_lines = [ln for ln in lines
                      if ln.startswith("repro;inference;")]
        assert node_lines, "node spans must nest under the inference span"
        # self time is non-negative everywhere
        assert all(int(ln.rsplit(" ", 1)[1]) >= 0 for ln in lines)
