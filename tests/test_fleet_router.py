"""The fleet router: balancing, failover, hedging, typed errors.

What the router shares with a single server (admission checks,
``infer``, drain, lifecycle) is covered in ``test_servable.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.fleet import FaultPolicy, PoolConfig, ReplicaPool, Router
from repro.serve import (DeadlineExceeded, InferenceServer, LoadgenConfig,
                         Overloaded, ServeError, ServerConfig, run_loadgen)

from _graph_fixtures import make_chain_graph
from test_servable import NO_HEDGE_S, serving_threads, wait_until

pytestmark = pytest.mark.usefixtures("fleet_timing")


def _fleet(replicas=2, *, graph=None, fault=None, **pool_kwargs):
    graph = graph or make_chain_graph(batch=4)
    pool_kwargs.setdefault("server", ServerConfig(max_wait_s=0.0))
    pool = ReplicaPool(graph, PoolConfig(replicas=replicas, **pool_kwargs))
    return Router(pool, fault=fault)


def _payload(graph, seed=0, samples=1):
    rng = np.random.default_rng(seed)
    v = graph.inputs[0]
    return {v.name: rng.normal(size=(samples,) + v.shape[1:])
            .astype(v.dtype.np)}


class TestRouting:
    def test_infer_matches_single_server_bitwise(self):
        g = make_chain_graph(batch=4)
        payloads = [_payload(g, seed=i) for i in range(6)]
        with InferenceServer(g, ServerConfig(max_wait_s=0.0)) as single:
            expected = [single.infer(p, timeout=10.0) for p in payloads]
        with _fleet(replicas=3, graph=g) as fleet:
            for payload, reference in zip(payloads, expected):
                outputs = fleet.infer(payload, timeout=10.0)
                assert set(outputs) == set(reference)
                for name in outputs:
                    assert np.array_equal(outputs[name], reference[name])

    def test_requests_spread_across_replicas(self, fleet_timing):
        # slow every replica so outstanding counts stay visible, and
        # submit each request once the previous one has picked, so each
        # picks against settled counts
        fleet_timing(HEDGE_DELAY_S=NO_HEDGE_S)
        with _fleet(replicas=3) as fleet:
            for replica in fleet.pool.replicas:
                fleet.pool.apply_fault(replica, FaultPolicy(
                    replica=replica.id, kind="slow", after=1, slow_s=0.3))
            futures = []
            for i in range(6):
                futures.append(fleet.submit(_payload(fleet.graph, seed=i)))
                assert wait_until(lambda: sum(
                    r.routed for r in fleet.pool.replicas) > i)
            for future in futures:
                future.result(10.0)
            routed = [r.routed for r in fleet.pool.replicas]
            assert sum(routed) >= 6
            assert all(n > 0 for n in routed)

    def test_served_by_and_attempts_recorded(self):
        with _fleet(replicas=2) as fleet:
            future = fleet.submit(_payload(fleet.graph))
            future.result(10.0)
            assert future.served_by in (0, 1)
            assert future.attempts >= 1
            assert future.trace_id


class TestFailover:
    def test_kill_mid_run_zero_client_errors_and_identical_outputs(self):
        g = make_chain_graph(batch=4)
        payloads = [_payload(g, seed=i) for i in range(10)]
        with InferenceServer(g, ServerConfig(max_wait_s=0.0)) as single:
            expected = [single.infer(p, timeout=10.0) for p in payloads]
        fault = FaultPolicy(replica=0, kind="kill", after=2)
        with _fleet(replicas=2, graph=g, fault=fault) as fleet:
            for payload, reference in zip(payloads, expected):
                outputs = fleet.infer(payload, timeout=10.0)  # never raises
                for name in outputs:
                    assert np.array_equal(outputs[name], reference[name])
            stats = fleet.stats()
            assert stats["fleet.faults.reason.kill"] == 1
            assert stats["fleet.completed"] == 10
            assert stats.get("fleet.retries.reason.replica_closed", 0) >= 1
            # the corpse is ejected with backoff, then re-admitted
            replica = fleet.pool.replicas[0]
            deadline = time.monotonic() + 5.0
            while not replica.ready and time.monotonic() < deadline:
                time.sleep(0.01)
            assert replica.ready and replica.generation == 1
            assert fleet.metrics.get("fleet.readmissions") >= 1

    def test_stalled_replica_rescued_by_hedge(self, fleet_timing):
        fault = FaultPolicy(replica=0, kind="stall", after=1)
        fleet_timing(HEDGE_DELAY_S=0.02, ATTEMPT_TIMEOUT_S=2.0)
        with _fleet(replicas=2, fault=fault) as fleet:
            outputs = fleet.infer(_payload(fleet.graph), timeout=10.0)
            assert outputs
            assert fleet.metrics.get("fleet.hedges") >= 1
            assert fleet.metrics.get("fleet.hedge_wins") >= 1

    def test_slow_replica_hedged_around(self, fleet_timing):
        fault = FaultPolicy(replica=0, kind="slow", after=1, slow_s=0.2)
        fleet_timing(HEDGE_DELAY_S=0.02, ATTEMPT_TIMEOUT_S=5.0)
        with _fleet(replicas=2, fault=fault) as fleet:
            start = time.monotonic()
            for i in range(4):
                fleet.infer(_payload(fleet.graph, seed=i), timeout=10.0)
            # 4 requests against a 200 ms-slow replica would take 800 ms
            # if pinned there; hedging keeps the run well under that
            assert time.monotonic() - start < 0.8
            assert fleet.metrics.get("fleet.faults.reason.slow") == 1

    def test_no_ready_replica_surfaces_overloaded(self, fleet_timing):
        fleet_timing(MAX_ATTEMPTS=2, RETRY_BACKOFF_S=0.005,
                     HEDGE_DELAY_S=NO_HEDGE_S, READMIT_BACKOFF_S=30.0)
        with _fleet(replicas=1) as fleet:
            fleet.pool.eject(fleet.pool.replicas[0], "test")
            future = fleet.submit(_payload(fleet.graph))
            with pytest.raises(Overloaded):
                future.result(10.0)
            assert fleet.metrics.get("fleet.failed") == 1
            assert fleet.metrics.get(
                "fleet.retries.reason.no_ready_replica") >= 1

    def test_deadline_expires_as_typed_error(self, fleet_timing):
        fleet_timing(MAX_ATTEMPTS=8, RETRY_BACKOFF_S=0.05,
                     HEDGE_DELAY_S=NO_HEDGE_S, READMIT_BACKOFF_S=30.0)
        with _fleet(replicas=1) as fleet:
            fleet.pool.eject(fleet.pool.replicas[0], "test")
            future = fleet.submit(_payload(fleet.graph), deadline_s=0.02)
            with pytest.raises(DeadlineExceeded):
                future.result(10.0)

    def test_loadgen_over_fleet_counts_overload_as_rejected(self,
                                                            fleet_timing):
        fleet_timing(MAX_ATTEMPTS=2, RETRY_BACKOFF_S=0.005,
                     HEDGE_DELAY_S=NO_HEDGE_S, READMIT_BACKOFF_S=30.0)
        with _fleet(replicas=1) as fleet:
            fleet.pool.eject(fleet.pool.replicas[0], "test")
            report = run_loadgen(fleet, LoadgenConfig(requests=4,
                                                      concurrency=2))
            assert report.errors == 0
            assert report.rejected == 4


class TestNoHelperThreads:
    """Lost attempts settle from completion callbacks: nothing polls,
    nothing reaps, and close() leaves no serving thread behind."""

    def _settled(self, fleet):
        return wait_until(lambda: all(r.outstanding == 0
                                      for r in fleet.pool.replicas))

    def test_hedge_loser_settles_from_its_callback(self, fleet_timing):
        before = set(threading.enumerate())
        # replica 0 answers 100 ms late, so the hedge (due at 10 ms) is
        # always launched and the first attempt always loses
        fault = FaultPolicy(replica=0, kind="slow", after=1, slow_s=0.1)
        fleet_timing(HEDGE_DELAY_S=0.01)
        with _fleet(replicas=2, fault=fault) as fleet:
            future = fleet.submit(_payload(fleet.graph))
            assert future.result(10.0) and future.attempts == 2
            assert fleet.metrics.get("fleet.hedges") == 1
            assert self._settled(fleet)
        assert wait_until(lambda: not serving_threads(before)), \
            serving_threads(before)

    def test_black_holed_attempt_settles_when_the_fleet_closes(
            self, fleet_timing):
        before = set(threading.enumerate())
        fault = FaultPolicy(replica=0, kind="stall", after=1)
        fleet_timing(HEDGE_DELAY_S=0.02, ATTEMPT_TIMEOUT_S=30.0)
        with _fleet(replicas=2, fault=fault) as fleet:
            assert fleet.infer(_payload(fleet.graph), timeout=10.0)
            stalled = fleet.pool.replicas[0]
            assert stalled.outstanding == 1  # swallowed, never answered
        assert stalled.outstanding == 0
        assert wait_until(lambda: not serving_threads(before)), \
            serving_threads(before)

    def test_close_wakes_a_request_stuck_on_a_stalled_replica(
            self, fleet_timing):
        before = set(threading.enumerate())
        fault = FaultPolicy(replica=0, kind="stall", after=1)
        fleet_timing(HEDGE_DELAY_S=NO_HEDGE_S, ATTEMPT_TIMEOUT_S=30.0)
        fleet = _fleet(replicas=1, fault=fault).start()
        future = fleet.submit(_payload(fleet.graph))
        assert wait_until(lambda: fleet.pool.replicas[0].outstanding == 1)
        start = time.monotonic()
        fleet.close()
        with pytest.raises(ServeError):
            future.result(5.0)
        assert time.monotonic() - start < 1.0  # not the attempt timeout
        assert wait_until(lambda: not serving_threads(before)), \
            serving_threads(before)

    def test_slow_fault_relays_without_a_blocked_thread(self, fleet_timing):
        before = set(threading.enumerate())
        fault = FaultPolicy(replica=0, kind="slow", after=1, slow_s=0.1)
        fleet_timing(HEDGE_DELAY_S=NO_HEDGE_S)
        with _fleet(replicas=1, fault=fault) as fleet:
            future = fleet.submit(_payload(fleet.graph))
            outputs = future.result(10.0)
            assert outputs and future.latency_s >= 0.1
            assert self._settled(fleet)
        assert wait_until(lambda: not serving_threads(before)), \
            serving_threads(before)


class TestServableSurface:
    def test_health_doc_lists_replicas(self):
        with _fleet(replicas=3) as fleet:
            doc = fleet.health_doc()
            assert doc["status"] == "ok" and doc["ready"] == 3
            assert [r["id"] for r in doc["replicas"]] == [0, 1, 2]

    def test_stats_and_metrics_text_cover_fleet_families(self):
        with _fleet(replicas=2) as fleet:
            fleet.infer(_payload(fleet.graph), timeout=10.0)
            stats = fleet.stats()
            assert stats["fleet.requests"] >= 1
            assert stats["fleet.ready_replicas"] == 2.0
            text = fleet.metrics_text()
            assert 'repro_fleet_replica_up{replica="0"}' in text
            assert 'repro_build_info{version=' in text
            assert "repro_fleet_requests_total" in text

    def test_tracing_tags_spans_with_replica(self):
        from repro.obs import Tracer, use_tracer

        g = make_chain_graph(batch=4)
        tracer = Tracer()
        with use_tracer(tracer):
            with _fleet(replicas=2, graph=g) as fleet:
                fleet.infer(_payload(g), timeout=10.0)
        spans = [e for e in tracer.events if e["ph"] == "X"]
        assert "fleet.admit" in {s["name"] for s in spans}
        assert any(s["name"] == "serve.batch"
                   and s["args"].get("replica") is not None
                   for s in spans)
        instants = {e["name"] for e in tracer.events if e["ph"] == "i"}
        assert "fleet.attempt" in instants
        assert "fleet.request_done" in instants
