"""InferenceServer: batching equivalence, backpressure, deadlines.

What the server shares with the fleet router (admission checks,
``infer``, drain, lifecycle) is covered in ``test_servable.py``.
"""

import statistics
import time

import numpy as np
import pytest

from repro.core import estimate_peak_internal
from repro.models import build_model
from repro.plan import plan_memory
from repro.runtime import InferenceSession
from repro.serve import (DeadlineExceeded, InferenceServer, Overloaded,
                         ServeError, ServerClosed, ServerConfig)

from _graph_fixtures import make_chain_graph


def _sample(seed: int, channels: int = 16, hw: int = 12, k: int = 1):
    rng = np.random.default_rng(seed)
    return {"x": rng.normal(size=(k, channels, hw, hw)).astype(np.float32)}


class TestServedNumerics:
    def test_coalesced_outputs_bitwise_equal_session_run(self):
        """B single-sample requests == session.run on the assembled batch."""
        g = make_chain_graph(batch=4)
        out_name = g.outputs[0].name
        samples = [_sample(i) for i in range(4)]
        # generous max_wait so all four coalesce into one shard, in
        # submission order (single submitter => deterministic FIFO)
        config = ServerConfig(num_workers=1, max_wait_s=0.5)
        with InferenceServer(g, config) as server:
            futures = [server.submit(s) for s in samples]
            served = [f.result(10.0) for f in futures]
        reference = InferenceSession(g).run(
            {"x": np.concatenate([s["x"] for s in samples])}).outputs[out_name]
        for i, outputs in enumerate(served):
            assert np.array_equal(outputs[out_name], reference[i:i + 1])

    def test_padded_outputs_bitwise_equal_session_run(self):
        """Zero-padding the tail shard must not change served numerics."""
        g = make_chain_graph(batch=4)
        out_name = g.outputs[0].name
        samples = [_sample(i + 100) for i in range(3)]
        config = ServerConfig(num_workers=1, max_wait_s=0.5)
        with InferenceServer(g, config) as server:
            futures = [server.submit(s) for s in samples]
            served = [f.result(10.0) for f in futures]
        padded = np.concatenate([s["x"] for s in samples]
                                + [np.zeros((1, 16, 12, 12), np.float32)])
        reference = InferenceSession(g).run({"x": padded}).outputs[out_name]
        for i, outputs in enumerate(served):
            assert np.array_equal(outputs[out_name], reference[i:i + 1])

    def test_full_batch_request_matches_session_run(self):
        g = make_chain_graph(batch=4)
        inputs = _sample(7, k=4)
        with InferenceServer(g, ServerConfig(max_wait_s=0.0)) as server:
            served = server.infer(inputs, timeout=10.0)
        reference = InferenceSession(g).run(inputs).outputs
        for name, arr in reference.items():
            assert np.array_equal(served[name], arr)

    def test_oversized_request_split_and_reassembled(self):
        g = make_chain_graph(batch=4)
        inputs = _sample(9, k=10)
        with InferenceServer(g, ServerConfig(max_wait_s=0.0)) as server:
            served = server.infer(inputs, timeout=10.0)
        out_name = g.outputs[0].name
        assert served[out_name].shape[0] == 10
        session = InferenceSession(g)
        padded = np.concatenate([inputs["x"],
                                 np.zeros((2, 16, 12, 12), np.float32)])
        reference = np.concatenate(
            [session.run({"x": padded[lo:lo + 4]}).outputs[out_name]
             for lo in (0, 4, 8)])
        assert np.array_equal(served[out_name], reference[:10])

class TestBackpressure:
    def test_full_queue_rejects_typed_and_does_not_enqueue(self):
        g = make_chain_graph(batch=4)
        server = InferenceServer(g, ServerConfig(max_queue=2))
        # not started: nothing drains, so admission is deterministic
        server.submit(_sample(0))
        server.submit(_sample(1))
        with pytest.raises(Overloaded, match="queue full"):
            server.submit(_sample(2))
        stats = server.stats()
        assert stats["serve.rejected"] == 1
        assert stats["serve.queue_depth"] == 2
        server.close()

    def test_close_rejects_queued_requests(self):
        g = make_chain_graph(batch=4)
        server = InferenceServer(g, ServerConfig(max_queue=4))
        futures = [server.submit(_sample(i)) for i in range(2)]
        server.close()
        for future in futures:
            with pytest.raises(ServerClosed):
                future.result(1.0)
        with pytest.raises(ServerClosed):
            server.submit(_sample(9))

class TestDeadlines:
    def test_expired_request_is_shed_and_counted(self):
        g = make_chain_graph(batch=4)
        server = InferenceServer(g, ServerConfig(max_wait_s=0.0))
        future = server.submit(_sample(0), deadline_s=0.0)
        time.sleep(0.01)  # guarantee expiry before the workers start
        server.start()
        with pytest.raises(DeadlineExceeded, match="expired"):
            future.result(5.0)
        assert server.stats()["serve.shed"] == 1
        server.close()

    def test_unexpired_deadline_serves_normally(self):
        g = make_chain_graph(batch=4)
        with InferenceServer(g, ServerConfig(max_wait_s=0.0)) as server:
            outputs = server.infer(_sample(0), deadline_s=30.0, timeout=10.0)
        assert g.outputs[0].name in outputs

    def test_default_deadline_from_config(self):
        g = make_chain_graph(batch=4)
        server = InferenceServer(
            g, ServerConfig(max_wait_s=0.0, default_deadline_s=0.0))
        future = server.submit(_sample(0))
        time.sleep(0.01)
        server.start()
        with pytest.raises(DeadlineExceeded):
            future.result(5.0)
        server.close()


class TestBatchingThroughput:
    def test_batching_beats_one_request_at_a_time(self):
        """The acceptance A/B: equal workers, batching on vs off."""
        g = make_chain_graph(batch=8)
        requests = 32

        def drive(batching: bool) -> tuple[float, float]:
            config = ServerConfig(num_workers=1, max_queue=requests,
                                  max_wait_s=0.05, batching=batching)
            with InferenceServer(g, config) as server:
                start = time.perf_counter()
                futures = [server.submit(_sample(i)) for i in range(requests)]
                for future in futures:
                    future.result(60.0)
                elapsed = time.perf_counter() - start
                batches = server.stats()["serve.batches"]
            return elapsed, batches

        # nine alternating drives a side, compared by their medians: one
        # drive takes 10-20 ms, short enough for a single scheduler stall
        # to flip it
        batched, serial = [], []
        for _ in range(9):
            batched.append(drive(batching=True))
            serial.append(drive(batching=False))
        # one graph run per request without batching; ~requests/8 with
        assert all(runs == requests for _, runs in serial)
        assert all(runs < requests for _, runs in batched)
        batched_s = statistics.median(elapsed for elapsed, _ in batched)
        serial_s = statistics.median(elapsed for elapsed, _ in serial)
        assert batched_s < serial_s, (
            f"batched {batched_s:.3f}s not faster than serial {serial_s:.3f}s")


class TestSharedSessions:
    """Every worker runs the one session of each offered bucket."""

    @pytest.fixture(scope="class")
    def budgeted(self):
        graph = build_model("wavenet2d", batch=4, hw=16)
        return graph, plan_memory(
            graph, int(0.60 * estimate_peak_internal(graph)))

    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_one_session_per_bucket_serves_every_worker(
            self, budgeted, num_workers, monkeypatch):
        graph, plan = budgeted
        built = []
        init = InferenceSession.__init__

        def counting(session, *args, **kwargs):
            built.append(session)
            init(session, *args, **kwargs)

        monkeypatch.setattr(InferenceSession, "__init__", counting)
        rng = np.random.default_rng(5)
        shape = graph.inputs[0].shape[1:]
        payloads = [rng.standard_normal((k,) + shape).astype(np.float32)
                    for k in (1, 2, 3, 4) * 6]
        # one request per shard, so each lands at rows [0, k) of the
        # bucket that holds it
        config = ServerConfig(num_workers=num_workers, batching=False,
                              max_queue=len(payloads))
        with InferenceServer(graph, config, memory_plan=plan) as server:
            futures = [server.submit(x) for x in payloads]
            served = [future.result(30.0) for future in futures]
            buckets = server.buckets
        assert len(built) == len(buckets.offered) == 3
        monkeypatch.undo()
        direct = {size: InferenceSession(bucket.graph,
                                         memory_plan=bucket.memory_plan)
                  for size, bucket in buckets.offered.items()}
        out = graph.outputs[0].name
        for x, outputs in zip(payloads, served):
            k = len(x)
            size = buckets.holding(k)
            padded = np.concatenate(
                [x, np.zeros((size - k,) + shape, np.float32)])
            reference = direct[size].run(padded).outputs[out][:k]
            assert np.array_equal(outputs[out], reference), (k, size)


class TestWorkerResilience:
    def test_worker_failure_rejects_batch_not_server(self):
        g = make_chain_graph(batch=4)
        server = InferenceServer(g, ServerConfig(max_wait_s=0.0))
        boom = {"armed": True}

        def failing(real_run):
            def run(inputs, **kwargs):
                if boom["armed"]:
                    boom["armed"] = False
                    raise RuntimeError("injected kernel failure")
                return real_run(inputs, **kwargs)
            return run

        # whichever bucket's session the worker picks fails first
        for session in server._sessions.values():
            session.run = failing(session.run)
        server.start()
        with pytest.raises(ServeError, match="inference failed"):
            server.infer(_sample(0), timeout=10.0)
        # the worker survives and serves the next request
        outputs = server.infer(_sample(1), timeout=10.0)
        assert g.outputs[0].name in outputs
        assert server.stats()["serve.failed"] == 1
        server.close()


class TestStatsAndConfig:
    def test_stats_carry_latency_quantiles_and_batch_distribution(self):
        g = make_chain_graph(batch=4)
        with InferenceServer(g, ServerConfig(max_wait_s=0.01)) as server:
            futures = [server.submit(_sample(i)) for i in range(8)]
            for future in futures:
                future.result(10.0)
            stats = server.stats()
        assert stats["serve.completed"] == 8
        for key in ("serve.latency_ms.p50", "serve.latency_ms.p95",
                    "serve.latency_ms.p99", "serve.batch_samples.max"):
            assert key in stats
        assert stats["serve.latency_ms.p50"] > 0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="num_workers"):
            ServerConfig(num_workers=0)
        with pytest.raises(ValueError, match="max_queue"):
            ServerConfig(max_queue=0)
        with pytest.raises(ValueError, match="max_wait_s"):
            ServerConfig(max_wait_s=-1.0)


class TestWorkerAttribution:
    def test_spans_and_instants_carry_worker_and_request_ids(self):
        from repro.obs import Tracer

        g = make_chain_graph(batch=4)
        tracer = Tracer()
        config = ServerConfig(num_workers=2, max_wait_s=0.0)
        with InferenceServer(g, config, tracer=tracer) as server:
            futures = [server.submit(_sample(i)) for i in range(6)]
            for future in futures:
                future.result(10.0)
        spans = [e for e in tracer.events if e["ph"] == "X"]
        batches = [s for s in spans if s["name"] == "serve.batch"]
        assert batches
        served_ids = [i for s in batches for i in s["args"]["request_ids"]]
        assert sorted(served_ids) == list(range(6))
        assert all(s["args"]["worker_id"] in (0, 1) for s in batches)
        # every executor node span inherits its worker's tag
        node_spans = [s for s in spans if "index" in s["args"]]
        assert node_spans
        assert all(s["args"]["worker_id"] in (0, 1) for s in node_spans)
        done = [i for i in tracer.events if i["name"] == "serve.request_done"]
        assert sorted(i["args"]["request_id"] for i in done) == list(range(6))
        assert all("worker_id" in i["args"] for i in done)

    def test_untraced_server_records_nothing(self):
        from repro.obs import NOOP_TRACER

        g = make_chain_graph(batch=4)
        with InferenceServer(g, ServerConfig(max_wait_s=0.0),
                             tracer=NOOP_TRACER) as server:
            server.submit(_sample(0)).result(10.0)
        # sessions got the no-op tracer: nothing to assert beyond "works"
        assert server.stats()["serve.completed"] == 1
