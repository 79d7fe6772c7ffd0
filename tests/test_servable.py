"""The Servable contract, run over both implementations.

Everything ``InferenceServer`` and ``Router`` inherit from
``repro.serve.Servable`` — admission checks, ``infer``, the in-flight
count ``drain`` sleeps on, lifecycle idempotence — is asserted once
here against each backend, so the two cannot drift apart.
"""

import threading
import time

import numpy as np
import pytest

from repro.fleet import PoolConfig, ReplicaPool, Router
from repro.ir import GraphBuilder
from repro.serve import (InferenceServer, ServeFuture, ServerClosed,
                         ServerConfig, ServerDraining)

from _graph_fixtures import make_chain_graph, random_input

SERVING_THREADS = ("repro-serve-", "repro-fleet-")
#: a ``HEDGE_DELAY_S`` past every attempt in these tests: retries alone
NO_HEDGE_S = 3600.0


def serving_threads(before=()) -> list[str]:
    """Names of live serving threads that were not there ``before``."""
    return sorted(t.name for t in threading.enumerate()
                  if t not in before and t.is_alive()
                  and t.name.startswith(SERVING_THREADS))


def wait_until(predicate, timeout=1.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.002)
    return True


def hold_runs(backend) -> threading.Event:
    """Park every batch of the started ``backend`` inside its
    ``session.run`` until the returned gate is set: an explicit stall
    (the batcher itself never sits on work)."""
    gate = threading.Event()

    def gated(real_run):
        def run(inputs, **kwargs):
            assert gate.wait(10.0)
            return real_run(inputs, **kwargs)
        return run

    servers = ([backend] if isinstance(backend, InferenceServer)
               else [replica.server for replica in backend.pool.replicas])
    for server in servers:
        for session in server._sessions.values():
            session.run = gated(session.run)
    return gate


def _two_input_graph():
    b = GraphBuilder("pair", seed=0)
    x = b.input("x", (4, 8, 6, 6))
    y = b.input("y", (4, 8, 6, 6))
    return b.finish(b.relu(b.add(x, y)))


def _sample(graph, seed=0):
    return {name: arr[:1] for name, arr in random_input(graph, seed).items()}


@pytest.fixture(params=["server", "fleet"])
def make_servable(request, fleet_timing):
    """Factory for an unstarted backend of the parametrised kind;
    whatever it built is closed on teardown."""
    made = []

    def make(graph=None, server=ServerConfig(max_wait_s=0.0)):
        graph = graph or make_chain_graph(batch=4)
        if request.param == "server":
            backend = InferenceServer(graph, server)
        else:
            backend = Router(ReplicaPool(graph, PoolConfig(
                replicas=2, server=server)))
        made.append(backend)
        return backend

    yield make
    for backend in made:
        backend.close()


@pytest.fixture
def servable(make_servable):
    return make_servable().start()


class TestAdmission:
    def test_bare_array_needs_a_single_input_graph(self, make_servable):
        backend = make_servable(_two_input_graph()).start()
        with pytest.raises(ValueError, match="pass a dict"):
            backend.submit(np.zeros((1, 8, 6, 6), np.float32))
        with pytest.raises(ValueError, match="missing inputs"):
            backend.submit({"x": np.zeros((1, 8, 6, 6), np.float32)})
        # a refused request was never admitted: nothing for drain to wait on
        assert backend._in_flight == 0
        assert backend.stats()[f"{backend.family}.in_flight"] == 0
        start = time.monotonic()
        assert backend.drain(timeout=10.0)
        assert time.monotonic() - start < 2.0

    def test_bare_array_convenience(self, servable):
        sample = _sample(servable.graph)
        served = servable.infer(sample["x"], timeout=10.0)
        assert served[servable.graph.outputs[0].name].shape[0] == 1

    def test_infer_is_submit_then_result(self, servable):
        sample = _sample(servable.graph, seed=3)
        via_infer = servable.infer(sample, timeout=10.0)
        via_submit = servable.submit(sample).result(10.0)
        assert set(via_infer) == set(via_submit)
        for name in via_infer:
            assert np.array_equal(via_infer[name], via_submit[name])

    def test_submit_after_close_raises(self, servable):
        servable.close()
        assert servable.closed and not servable.healthy()
        with pytest.raises(ServerClosed):
            servable.submit(_sample(servable.graph))
        assert servable.health_doc()["status"] == "unavailable"

    def test_submit_while_draining_is_typed_rejection(self, servable):
        assert servable.healthy()
        assert servable.health_doc()["status"] == "ok"
        # freeze the draining state: drain() holds it only as long as
        # work is in flight, which is too brief to assert against
        servable._draining = True
        try:
            assert servable.draining and not servable.healthy()
            assert servable.health_doc()["status"] == "draining"
            with pytest.raises(ServerDraining):
                servable.submit(_sample(servable.graph))
        finally:
            servable._draining = False
        assert servable._in_flight == 0
        assert servable.drain(timeout=10.0)


class TestLifecycle:
    def test_start_and_close_are_idempotent(self, make_servable):
        before = set(threading.enumerate())
        backend = make_servable()
        assert backend.start() is backend
        threads = serving_threads(before)
        assert backend.start() is backend
        assert serving_threads(before) == threads  # nothing started twice
        backend.infer(_sample(backend.graph), timeout=10.0)
        backend.close()
        backend.close()
        assert not backend.healthy()
        with pytest.raises(ServerClosed):
            backend.start()

    def test_close_leaves_no_serving_thread(self, make_servable):
        before = set(threading.enumerate())
        with make_servable() as backend:
            futures = [backend.submit(_sample(backend.graph, seed=i))
                       for i in range(6)]
            for future in futures:
                future.result(10.0)
        assert wait_until(lambda: not serving_threads(before)), \
            serving_threads(before)


class TestDrain:
    def test_drain_finishes_in_flight_then_rejects(self, make_servable):
        # stalled runs keep the requests in flight long enough for the
        # drain to start with work outstanding
        backend = make_servable().start()
        gate = hold_runs(backend)
        futures = [backend.submit(_sample(backend.graph, seed=i))
                   for i in range(3)]
        threading.Timer(0.1, gate.set).start()
        assert backend.drain(timeout=10.0)
        for future in futures:
            assert future.done() and future.result(0)
        assert backend.closed and not backend.healthy()
        with pytest.raises(ServerClosed):
            backend.submit(_sample(backend.graph))

    def test_drain_is_woken_by_the_last_completion(self, make_servable,
                                                   fleet_timing):
        # no hedging: a lapped hedge would still be running on its
        # replica after the last *request* settled, and drain waits it out
        fleet_timing(HEDGE_DELAY_S=NO_HEDGE_S)
        backend = make_servable().start()
        gate = hold_runs(backend)
        settled_at = []
        for i in range(3):
            backend.submit(_sample(backend.graph, seed=i)).add_done_callback(
                lambda _future: settled_at.append(time.monotonic()))
        assert backend._in_flight == 3
        threading.Timer(0.1, gate.set).start()
        assert backend.drain(timeout=10.0)
        returned_at = time.monotonic()
        assert len(settled_at) == 3
        assert returned_at - max(settled_at) < 0.05

    def test_drain_on_idle_backend_is_immediate_and_idempotent(
            self, servable):
        start = time.monotonic()
        assert servable.drain(timeout=10.0)
        assert time.monotonic() - start < 1.0
        assert servable.drain(timeout=10.0)  # already closed: still True

    def test_drain_times_out_with_work_still_pending(self, make_servable):
        backend = make_servable().start()
        gate = hold_runs(backend)
        future = backend.submit(_sample(backend.graph))
        threading.Timer(0.3, gate.set).start()
        assert not backend.drain(timeout=0.02)
        assert backend.closed
        # close() lets the batch a worker already holds finish
        assert wait_until(future.done, 5.0)


class TestFutureCallbacks:
    def test_callback_runs_once_on_settle_and_at_once_when_done(self):
        future = ServeFuture(request_id=7, samples=1)
        seen = []
        future.add_done_callback(seen.append)
        assert seen == []
        future._resolve({"y": np.zeros(1)}, 0.25)
        future._reject(RuntimeError("late"))  # first outcome wins
        assert seen == [future] and future.latency_s == 0.25
        future.add_done_callback(seen.append)  # already done: runs here
        assert seen == [future, future]
        assert "y" in future.result(0)

    def test_result_times_out_while_pending(self):
        with pytest.raises(TimeoutError):
            ServeFuture(request_id=1, samples=1).result(0.01)
