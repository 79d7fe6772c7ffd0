"""Tracer core: spans, decisions, counters, metrics, ambient state,
and the zero-cost guarantee of the no-op default."""

import sys
import threading

import pytest

from repro.obs import (NOOP_TRACER, MetricsRegistry, NoopTracer, Tracer,
                       get_tracer, set_tracer, use_tracer)
from repro.runtime import execute

from _graph_fixtures import make_chain_graph, random_input


class ManualClock:
    """Deterministic clock the test advances explicitly."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __call__(self) -> float:
        return self.seconds

    def advance(self, seconds: float) -> None:
        self.seconds += seconds


class TestSpans:
    def test_nesting_and_containment(self):
        clock = ManualClock()
        t = Tracer(clock=clock)
        with t.span("outer"):
            clock.advance(1.0)
            with t.span("inner"):
                clock.advance(0.5)
            clock.advance(1.0)
        # inner closes first
        inner, outer = t.events
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["ph"] == outer["ph"] == "X"
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_timing_from_injected_clock(self):
        clock = ManualClock()
        t = Tracer(clock=clock)
        clock.advance(2.0)
        with t.span("work"):
            clock.advance(3.0)
        (span,) = t.events
        assert span["ts"] == pytest.approx(2.0e6)
        assert span["dur"] == pytest.approx(3.0e6)

    def test_span_recorded_when_body_raises(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("failing"):
                raise RuntimeError("boom")
        with t.span("after"):
            pass
        assert [s["name"] for s in t.events] == ["failing", "after"]

    def test_span_carries_args(self):
        t = Tracer()
        with t.span("skip_opt", category="compiler", graph="g"):
            pass
        assert t.events[0]["args"] == {"graph": "g"}
        assert t.events[0]["cat"] == "compiler"


class TestEventsAndMetrics:
    def test_decision_log_and_filter(self):
        t = Tracer()
        t.decision("skip_opt", "v1", "accept", "ok", skip_bytes=64)
        t.decision("skip_opt", "v2", "reject", "compute_overhead",
                   copy_flops=100)
        t.decision("fusion", "f1", "fuse", "lconv_act_fconv")
        rejects = t.decisions_for("skip_opt", verdict="reject")
        assert [d["args"]["subject"] for d in rejects] == ["v2"]
        assert rejects[0]["args"] == {
            "copy_flops": 100, "pass_name": "skip_opt", "subject": "v2",
            "verdict": "reject", "reason": "compute_overhead"}
        assert rejects[0]["name"] == "skip_opt:v2"
        assert len(t.decisions_for()) == 3
        # decisions also feed the metrics registry
        assert t.metrics.get("skip_opt.accept") == 1
        assert t.metrics.get("skip_opt.reject") == 1

    def test_counter_series(self):
        t = Tracer()
        t.counter("memory", live_bytes=10, scratch_bytes=0)
        t.counter("memory", live_bytes=30, scratch_bytes=4)
        t.counter("other", live_bytes=99)
        assert t.counter_series("memory", "live_bytes") == [10, 30]
        assert t.counter_series("memory", "scratch_bytes") == [0, 4]

    def test_metrics_registry(self):
        m = MetricsRegistry()
        m.inc("runs")
        m.inc("runs")
        m.inc("bytes", 100)
        m.gauge("peak", 42)
        m.gauge("peak", 50)
        snap = m.snapshot()
        assert snap["runs"] == 2 and snap["bytes"] == 100 and snap["peak"] == 50
        assert list(snap) == sorted(snap)


class TestAmbientTracer:
    def test_default_is_the_noop_singleton(self):
        assert get_tracer() is NOOP_TRACER
        assert not get_tracer().enabled

    def test_use_tracer_installs_and_restores(self):
        t = Tracer()
        with use_tracer(t) as installed:
            assert installed is t
            assert get_tracer() is t
        assert get_tracer() is NOOP_TRACER

    def test_use_tracer_restores_on_exception(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with use_tracer(t):
                raise ValueError
        assert get_tracer() is NOOP_TRACER

    def test_set_tracer_none_restores_noop(self):
        t = Tracer()
        set_tracer(t)
        try:
            assert get_tracer() is t
        finally:
            set_tracer(None)
        assert get_tracer() is NOOP_TRACER


class TestTaggedTracer:
    """``tracer.tagged(...)``: a view stamping fixed args on records."""

    def test_tags_stamped_on_every_record_kind(self):
        inner = Tracer()
        t = inner.tagged(worker_id=3)
        with t.span("serve.batch", category="serve", request_ids=[1, 2]):
            pass
        t.complete("node", 0.0, 1.0, index=0)
        t.instant("serve.request_done", request_id=1)
        t.decision("fusion", "f", "fuse")
        t.flow("serve.request", 1, "finish")
        t.async_slice("request", 1, 0.0, 1.0)
        spans = [e for e in inner.events if e["ph"] == "X"]
        assert len(spans) == 2
        assert all(s["args"]["worker_id"] == 3 for s in spans)
        assert spans[0]["args"]["request_ids"] == [1, 2]
        instant, decision = [e for e in inner.events if e["ph"] == "i"]
        assert instant["args"] == {"request_id": 1, "worker_id": 3}
        assert decision["args"]["worker_id"] == 3
        for ph in ("f", "b"):
            (event,) = [e for e in inner.events if e["ph"] == ph]
            assert event["args"]["worker_id"] == 3

    def test_counters_forward_untagged(self):
        inner = Tracer()
        inner.tagged(worker_id=3).counter("memory", live_bytes=10)
        assert inner.events[0]["args"] == {"live_bytes": 10}

    def test_explicit_tags_win_over_callsite_args(self):
        inner = Tracer()
        t = inner.tagged(worker_id=3)
        t.instant("i", worker_id=99)
        assert inner.events[0]["args"]["worker_id"] == 3

    def test_tagged_returns_merged_proxy_on_same_inner(self):
        inner = Tracer()
        t = inner.tagged(worker_id=1).tagged(request_id=7)
        t.instant("i")
        assert inner.events[0]["args"] == {"worker_id": 1, "request_id": 7}
        assert inner.tags == {}

    def test_tid_pins_spans_and_flows_not_instants(self):
        inner = Tracer()
        t = inner.tagged(tid=2).tagged(request_id=7)
        t.complete("node", 0.0, 1.0)
        t.complete("elsewhere", 0.0, 1.0, tid=5)
        t.flow("serve.request", 1, "start")
        t.instant("i")
        assert [e["tid"] for e in inner.events] == [2, 5, 2, 0]

    def test_concurrent_views_lose_no_records(self):
        # more threads than cores, switching as often as possible: every
        # view appends to the one shared list
        inner = Tracer()
        views = [inner.tagged(tid=i + 1, worker_id=i) for i in range(6)]

        def record(view):
            for i in range(300):
                with view.span("batch", index=i):
                    view.complete("node", view.now_us(), 1.0, op="relu")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=record, args=(v,))
                       for v in views]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(inner.events) == 6 * 300 * 2
        assert all(e["tid"] == e["args"]["worker_id"] + 1
                   for e in inner.events)

    def test_enabled_and_metrics_forward(self):
        inner = Tracer()
        inner.name_thread(1, "worker-0")
        t = inner.tagged(worker_id=0)
        t.name_thread(2, "worker-1")
        assert t.enabled is True
        assert t.metrics is inner.metrics
        assert inner.thread_names == {1: "worker-0", 2: "worker-1"}
        assert NOOP_TRACER.tagged(worker_id=0) is NOOP_TRACER


class _ExplodingDisabledTracer(NoopTracer):
    """enabled=False tracer whose record methods all raise: proves the
    executor's hot path never touches a disabled tracer."""

    def _boom(self, *a, **k):
        raise AssertionError("disabled tracer was invoked on the hot path")

    span = _boom
    complete = _boom
    instant = _boom
    counter = _boom
    decision = _boom
    now_us = _boom


class TestNoopOverhead:
    def test_noop_span_is_a_shared_singleton(self):
        n = NoopTracer()
        assert n.span("a") is n.span("b", category="c", x=1)

    def test_noop_methods_record_nothing_and_return_none(self):
        n = NoopTracer()
        with n.span("a"):
            pass
        assert n.instant("i") is None
        assert n.counter("memory", live_bytes=1) is None
        assert n.decision("p", "s", "accept") is None

    def test_executor_hot_path_skips_disabled_tracer(self):
        graph = make_chain_graph()
        probe = _ExplodingDisabledTracer()
        result = execute(graph, random_input(graph), tracer=probe)
        assert result.memory.peak_internal_bytes > 0

    def test_execution_identical_with_and_without_tracing(self):
        graph = make_chain_graph()
        inputs = random_input(graph)
        plain = execute(graph, inputs)
        traced_tracer = Tracer()
        traced = execute(graph, inputs, tracer=traced_tracer)
        assert plain.memory.peak_internal_bytes == traced.memory.peak_internal_bytes
        assert plain.memory.events == traced.memory.events
        for k, v in plain.outputs.items():
            assert (v == traced.outputs[k]).all()
        # the traced run recorded one span and one counter sample per node
        events = traced_tracer.events
        assert sum(e["ph"] == "X" for e in events) == len(graph.nodes)
        assert len(traced_tracer.counter_series("memory", "live_bytes")) \
            == len(graph.nodes)
