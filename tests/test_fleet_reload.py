"""Rolling reload: zero-downtime spec swaps under live traffic."""

import threading
import time

import numpy as np

import pytest

from repro.fleet import PoolConfig, ReplicaPool, ReplicaSpec, Router
from repro.serve import ServerConfig

from _graph_fixtures import make_chain_graph

pytestmark = pytest.mark.usefixtures("fleet_timing")


def _fleet(replicas=3, **pool_kwargs):
    graph = make_chain_graph(batch=4)
    pool_kwargs.setdefault("server", ServerConfig(max_wait_s=0.0))
    pool = ReplicaPool(graph, PoolConfig(replicas=replicas, **pool_kwargs))
    return Router(pool)


def _payload(graph, seed=0):
    rng = np.random.default_rng(seed)
    v = graph.inputs[0]
    return {v.name: rng.normal(size=(1,) + v.shape[1:]).astype(v.dtype.np)}


class _ReadyMonitor:
    """Samples pool.ready_count() on a tight loop, keeps the minimum."""

    def __init__(self, pool):
        self.pool = pool
        self.min_ready = pool.config.replicas
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            self.min_ready = min(self.min_ready, self.pool.ready_count())
            time.sleep(0.001)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5.0)


class TestRollingReload:
    def test_restart_keeps_n_minus_one_ready(self):
        with _fleet(replicas=3) as fleet:
            with _ReadyMonitor(fleet.pool) as monitor:
                assert fleet.rolling_reload(timeout=10.0)
            assert monitor.min_ready >= 2
            assert [r.generation for r in fleet.pool.replicas] == [1, 1, 1]
            assert fleet.metrics.get("fleet.reloads") == 3

    def test_reload_under_traffic_zero_client_errors(self):
        with _fleet(replicas=3) as fleet:
            errors = []
            served = [0]
            stop = threading.Event()

            def _client():
                i = 0
                while not stop.is_set():
                    try:
                        fleet.infer(_payload(fleet.graph, seed=i),
                                    timeout=10.0)
                        served[0] += 1
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                    i += 1

            client = threading.Thread(target=_client, daemon=True)
            with _ReadyMonitor(fleet.pool) as monitor:
                client.start()
                assert fleet.rolling_reload(timeout=10.0)
                stop.set()
                client.join(timeout=10.0)
            assert errors == []
            assert served[0] > 0
            assert monitor.min_ready >= 2
            assert fleet.healthy()

    def test_reload_swaps_spec_fleet_wide(self):
        with _fleet(replicas=2) as fleet:
            old = fleet.pool.replicas[0].spec
            new_spec = ReplicaSpec(
                graph=old.graph,
                server_config=ServerConfig(num_workers=2, max_wait_s=0.0),
                memory_plan=old.memory_plan)
            assert fleet.rolling_reload(new_spec, timeout=10.0)
            for replica in fleet.pool.replicas:
                assert replica.spec is new_spec
                assert replica.server.config.num_workers == 2
                assert replica.ready

    def test_reload_is_idempotent_across_rounds(self):
        with _fleet(replicas=2) as fleet:
            assert fleet.rolling_reload(timeout=10.0)
            assert fleet.rolling_reload(timeout=10.0)
            assert [r.generation for r in fleet.pool.replicas] == [2, 2]
            assert fleet.pool.ready_count() == 2
