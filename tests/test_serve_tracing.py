"""Request-lifecycle tracing and SLO wiring through the server."""

import numpy as np
import pytest

from repro.obs import (SLOMonitor, SLObjective, Tracer, chrome_trace_events,
                       new_trace_id)
from repro.serve import (DeadlineExceeded, InferenceServer, Overloaded,
                         ServerConfig)

from _graph_fixtures import make_chain_graph


def _payload(graph, samples=1, seed=0):
    rng = np.random.default_rng(seed)
    return {graph.inputs[0].name:
            rng.normal(size=(samples,) + graph.inputs[0].shape[1:])
            .astype(np.float32)}


class TestTraceIds:
    def test_new_trace_id_format(self):
        tid = new_trace_id()
        assert len(tid) == 16
        int(tid, 16)  # hex
        assert tid != new_trace_id()

    def test_future_carries_trace_id(self):
        g = make_chain_graph(batch=2)
        with InferenceServer(g, ServerConfig()) as server:
            future = server.submit(_payload(g))
            future.result(10.0)
        assert len(future.trace_id) == 16


class TestServeTracing:
    def test_lifecycle_spans_share_the_trace_id(self):
        g = make_chain_graph(batch=2)
        tracer = Tracer()
        with InferenceServer(g, ServerConfig(), tracer=tracer) as server:
            future = server.submit(_payload(g))
            future.result(10.0)
        tid = future.trace_id

        spans = [e for e in tracer.events if e["ph"] == "X"]
        admits = [s for s in spans if s["name"] == "serve.admit"
                  and s["args"].get("trace_id") == tid]
        assert len(admits) == 1
        assert admits[0]["tid"] == 0  # admission on the main row

        batches = [s for s in spans if s["name"] == "serve.batch"
                   and tid in s["args"].get("trace_ids", [])]
        assert len(batches) == 1
        assert batches[0]["tid"] == 1  # worker 0's row
        assert batches[0]["args"]["worker_id"] == 0
        # one sample on the one-sample bucket: nothing padded
        assert batches[0]["args"]["padding"] == 0
        assert batches[0]["args"]["bucket"] == [1]

        # per-op executor spans carry the batch's trace ids on the
        # worker's row
        ops = [s for s in spans if "op" in s["args"]
               and tid in s["args"].get("trace_ids", [])]
        assert len(ops) == len(g.nodes)
        assert all(s["tid"] == 1 for s in ops)

    def test_fanin_flow_arrows(self):
        g = make_chain_graph(batch=2)
        tracer = Tracer()
        with InferenceServer(g, ServerConfig(), tracer=tracer) as server:
            futures = [server.submit(_payload(g, seed=i)) for i in range(3)]
            for f in futures:
                f.result(10.0)
        # every request contributes exactly one start + one finish
        # endpoint, keyed by its request id
        for f in futures:
            phases = sorted(e["ph"] for e in tracer.events
                            if e["cat"] == "flow" and e["id"] == f.request_id)
            assert phases == ["f", "s"]

    def test_waterfall_slices(self):
        g = make_chain_graph(batch=2)
        tracer = Tracer()
        with InferenceServer(g, ServerConfig(), tracer=tracer) as server:
            future = server.submit(_payload(g))
            future.result(10.0)
        lane = [e for e in tracer.events
                if e["ph"] in ("b", "e") and e["id"] == future.request_id]
        assert {"request", "queue_wait", "execute"} <= \
            {e["name"] for e in lane}
        begins = {e["name"]: e for e in lane if e["ph"] == "b"}
        assert begins["request"]["args"]["outcome"] == "ok"
        assert begins["request"]["args"]["trace_id"] == future.trace_id
        # begin/end pairs are balanced
        phases = [e["ph"] for e in lane]
        assert phases.count("b") == phases.count("e")

    def test_worker_rows_are_named(self):
        g = make_chain_graph(batch=2)
        tracer = Tracer()
        with InferenceServer(g, ServerConfig(num_workers=2),
                             tracer=tracer) as server:
            server.submit(_payload(g)).result(10.0)
        assert tracer.thread_names[1] == "worker-0"
        assert tracer.thread_names[2] == "worker-1"
        events = chrome_trace_events(tracer)
        labels = {e["tid"]: e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["name"] == "thread_name"}
        assert labels[1] == "worker-0" and labels[2] == "worker-1"

    def test_untraced_serving_records_nothing(self):
        g = make_chain_graph(batch=2)
        with InferenceServer(g, ServerConfig()) as server:
            future = server.submit(_payload(g))
            future.result(10.0)
        # NoopTracer path: no crash, and the future still resolves with
        # a trace id assigned at admission
        assert future.trace_id


class TestDropAccounting:
    def test_queue_full_reason_counter(self):
        g = make_chain_graph(batch=2)
        config = ServerConfig(max_queue=1)
        server = InferenceServer(g, config)  # never started: queue fills
        server.submit(_payload(g))
        with pytest.raises(Overloaded):
            server.submit(_payload(g))
        stats = server.stats()
        assert stats["serve.dropped.reason.queue_full"] == 1
        server.close()
        # the queued request is rejected on close, with its own reason
        stats = server.stats()
        assert stats["serve.dropped.reason.server_closed"] == 1

    def test_deadline_reason_counter_and_slo(self):
        g = make_chain_graph(batch=2)
        slo = SLOMonitor(SLObjective("avail", target=0.5))
        server = InferenceServer(g, ServerConfig(), slo=slo)  # not started
        future = server.submit(_payload(g), deadline_s=0.0)
        import time
        time.sleep(0.01)
        server.start()
        with pytest.raises(DeadlineExceeded):
            future.result(10.0)
        server.close()
        stats = server.stats()
        assert stats["serve.dropped.reason.deadline_expired"] == 1
        (status,) = slo.evaluate()
        assert status.bad >= 1


class TestServeSLO:
    def test_completions_feed_the_monitor(self):
        g = make_chain_graph(batch=2)
        slo = SLOMonitor([SLObjective("avail", target=0.9),
                          SLObjective("lat", target=0.9,
                                      latency_threshold_ms=60_000.0)])
        with InferenceServer(g, ServerConfig(), slo=slo) as server:
            for i in range(4):
                server.submit(_payload(g, seed=i)).result(10.0)
            stats = server.stats()
        avail, lat = slo.evaluate()
        assert avail.events == 4 and avail.good == 4
        assert lat.good == 4  # nothing takes a minute
        # stats() re-exported the burn-rate gauges
        assert stats["slo.avail.burn_rate"] == 0.0
        assert stats["slo.avail.healthy"] == 1.0
        assert stats["slo.lat.events"] == 4.0
