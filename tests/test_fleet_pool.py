"""ReplicaPool: budget splitting, health, ejection, re-admission."""

import time

import pytest

from repro.core import estimate_peak_internal
from repro.fleet import (PoolConfig, ReplicaPool, ReplicaState,
                         split_host_budget)
from repro.plan import InfeasibleBudget
from repro.serve import ServerConfig

from _graph_fixtures import make_chain_graph


def _pool(graph=None, **kwargs):
    graph = graph or make_chain_graph(batch=4)
    kwargs.setdefault("server", ServerConfig(max_wait_s=0.0))
    return ReplicaPool(graph, PoolConfig(**kwargs))


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestHostBudget:
    def test_split_is_even_and_planned(self):
        # a percentage is relative to replicas x one unplanned peak,
        # so "100%" packs exactly `replicas` unplanned copies
        g = make_chain_graph(batch=4)
        peak = estimate_peak_internal(g)
        plan, host = split_host_budget(g, "100%", replicas=3)
        assert host == 3 * peak
        assert plan.budget_bytes == host // 3 == peak

    def test_absolute_bytes_accepted(self):
        g = make_chain_graph(batch=4)
        peak = estimate_peak_internal(g)
        plan, host = split_host_budget(g, 2 * peak, replicas=2)
        assert host == 2 * peak and plan.budget_bytes == peak

    def test_infeasible_share_raises(self):
        g = make_chain_graph(batch=4)
        with pytest.raises(InfeasibleBudget):
            split_host_budget(g, 64, replicas=2)

    def test_pool_publishes_budget_gauges(self):
        pool = _pool(replicas=2, host_budget="100%")
        assert pool.metrics.get("fleet.host_budget_bytes") > 0
        assert pool.metrics.get("fleet.replica_budget_bytes") == \
            pool.memory_plan.budget_bytes
        # one shared read-only plan across replicas
        assert all(r.spec.memory_plan is pool.memory_plan
                   for r in pool.replicas)

    def test_unbudgeted_pool_has_no_plan(self):
        pool = _pool(replicas=2)
        assert pool.memory_plan is None
        assert all(r.spec.memory_plan is None for r in pool.replicas)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [{"replicas": 0}])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PoolConfig(**kwargs)


class TestLifecycle:
    def test_start_brings_all_replicas_ready(self):
        with _pool(replicas=3) as pool:
            assert pool.ready_count() == 3
            assert [r.state for r in pool.replicas] == \
                [ReplicaState.READY] * 3
            assert pool.metrics.get("fleet.replica_up.replica.1") == 1.0

    def test_close_stops_everything(self):
        pool = _pool(replicas=2).start()
        pool.close()
        assert pool.ready_count() == 0
        assert all(r.server is None for r in pool.replicas)
        assert pool.metrics.get("fleet.replica_up.replica.0") == 0.0

    def test_pick_prefers_least_outstanding(self):
        with _pool(replicas=3) as pool:
            pool.replicas[0].outstanding = 2
            pool.replicas[1].outstanding = 0
            pool.replicas[2].outstanding = 1
            assert pool.pick().id == 1
            assert pool.pick(exclude={1}).id == 2

    def test_pick_skips_unready_and_can_return_none(self):
        with _pool(replicas=2) as pool:
            pool.eject(pool.replicas[0], "test")
            assert pool.pick().id == 1
            assert pool.pick(exclude={1}) is None


class TestEjection:
    def test_failure_streak_ejects(self, fleet_timing):
        fleet_timing(EJECT_AFTER_FAILURES=3, READMIT_BACKOFF_S=30.0)
        with _pool(replicas=2) as pool:
            replica = pool.replicas[0]
            for _ in range(2):
                pool.record_failure(replica, "worker_error")
            assert replica.state == ReplicaState.READY
            pool.record_failure(replica, "worker_error")
            assert replica.state == ReplicaState.EJECTED
            assert pool.metrics.get(
                "fleet.ejections.reason.worker_error") == 1
            assert pool.metrics.get("fleet.replica_up.replica.0") == 0.0

    def test_success_resets_the_streak(self, fleet_timing):
        fleet_timing(EJECT_AFTER_FAILURES=2)
        with _pool(replicas=2) as pool:
            replica = pool.replicas[0]
            pool.record_failure(replica, "worker_error")
            pool.record_success(replica)
            pool.record_failure(replica, "worker_error")
            assert replica.state == ReplicaState.READY

    def test_backoff_doubles_per_ejection_and_caps(self, fleet_timing):
        fleet_timing(READMIT_BACKOFF_S=0.25, READMIT_BACKOFF_MAX_S=0.6)
        with _pool(replicas=1) as pool:
            replica = pool.replicas[0]
            for expected in (0.25, 0.5, 0.6, 0.6):
                replica.state = ReplicaState.READY
                before = time.monotonic()
                pool.eject(replica, "test")
                assert replica.readmit_at - before == \
                    pytest.approx(expected, abs=0.05)

    def test_crashed_replica_is_ejected_then_readmitted(self, fleet_timing):
        with _pool(replicas=2) as pool:
            replica = pool.replicas[0]
            replica.server.close()  # crash
            _wait(lambda: replica.ejections >= 1)
            assert pool.metrics.get("fleet.ejections.reason.unhealthy") >= 1
            _wait(lambda: replica.ready)
            assert replica.generation == 1
            assert pool.metrics.get("fleet.readmissions") >= 1
            assert pool.ready_count() == 2


class TestDrainAndReload:
    def test_drain_replica_finishes_in_flight(self):
        import numpy as np
        with _pool(replicas=2) as pool:
            replica = pool.replicas[0]
            x = np.zeros((1, 16, 12, 12), np.float32)
            future = replica.server.submit({"x": x})
            assert pool.drain_replica(replica, timeout=10.0)
            assert future.done() and future.result(0)
            assert replica.state == ReplicaState.STOPPED
            assert pool.ready_count() == 1

    def test_reload_replica_swaps_spec_and_bumps_generation(self):
        with _pool(replicas=2) as pool:
            replica = pool.replicas[0]
            new_spec = type(replica.spec)(
                graph=replica.spec.graph,
                server_config=ServerConfig(num_workers=2, max_wait_s=0.0))
            assert pool.reload_replica(replica, new_spec)
            assert replica.generation == 1
            assert replica.ready
            assert replica.server.config.num_workers == 2
            assert pool.metrics.get("fleet.reloads") == 1
