"""Batch buckets: `Graph.with_batch`, the start-up probe, bucketed
serving, budgets per bucket, and the work-conserving hold rule."""

import functools
import time

import numpy as np
import pytest

from repro import DecompositionConfig, decompose_graph, kernels, optimize
from repro.core import estimate_peak_internal
from repro.ir import graph_fingerprint, ops
from repro.models import MODEL_ZOO, build_model
from repro.obs.fleetview import memory_drift
from repro.plan import plan_memory
from repro.runtime import InferenceSession
from repro.serve import InferenceServer, ServerConfig
from repro.serve.batcher import Buckets, derive_buckets, probe_buckets

from _graph_fixtures import make_chain_graph, make_skip_graph
from test_servable import hold_runs, wait_until

BATCH = 4


@functools.lru_cache(maxsize=None)
def _temco(name: str, hw: int = 32):
    """The TeMCO-optimised zoo model (shared: tests only read it)."""
    graph = build_model(name, batch=BATCH, hw=hw, seed=0)
    decomposed = decompose_graph(graph, DecompositionConfig(
        method="tucker", ratio=0.1, seed=0))
    return optimize(decomposed)[0]


def _all_values(graph, inputs: dict) -> dict[str, np.ndarray]:
    """Every value of one run of ``graph``, by name."""
    env = dict(inputs)
    for node in graph.nodes:
        env[node.output.name] = kernels.run_node(
            node, [env[v.name] for v in node.inputs])
    return env


def _first_divergence(graph, n: int, inputs: dict) -> str | None:
    """The first node at which a whole run of ``graph.with_batch(n)``
    on ``inputs[:n]`` differs from the static run on ``inputs``."""
    static = _all_values(graph, inputs)
    bucket = _all_values(graph.with_batch(n),
                         {name: x[:n] for name, x in inputs.items()})
    for node in graph.nodes:
        name = node.output.name
        if not np.array_equal(bucket[name], static[name][:n]):
            return node.name
    return None


def _direct(graph, payload: np.ndarray) -> np.ndarray:
    """What `InferenceSession.run` answers for ``payload``: shards of
    the static batch, the tail zero-padded (perfbench's reference)."""
    session = InferenceSession(graph)
    parts = []
    for lo in range(0, len(payload), BATCH):
        shard = np.zeros((BATCH,) + payload.shape[1:], payload.dtype)
        chunk = payload[lo:lo + BATCH]
        shard[:len(chunk)] = chunk
        parts.append(session.run(shard).output()[:len(chunk)])
    return np.concatenate(parts)


class TestWithBatch:
    def test_shares_every_weight_array_and_validates(self):
        g = make_skip_graph(batch=BATCH)
        for n in (1, 2, 3, 8):
            h = g.with_batch(n)
            h.validate()
            assert [v.shape[0] for v in h.values()] == [n] * len(h.values())
            assert [v.shape[1:] for v in h.values()] == \
                [v.shape[1:] for v in g.values()]
            for ours, theirs in zip(g.nodes, h.nodes):
                assert ours.name == theirs.name and ours.attrs == theirs.attrs
                assert ours.params.keys() == theirs.params.keys()
                for key, array in ours.params.items():
                    assert theirs.params[key] is array
        # the source graph is untouched
        assert g.inputs[0].shape[0] == BATCH

    def test_keeps_the_gather_factors(self):
        """unet_small's decoder kernels read a skip and an upsampled
        branch in place; every bucket keeps each input's factor."""
        g = _temco("unet_small", hw=16)
        sites = [i for i, n in enumerate(g.nodes) if "input_scales" in n.attrs]
        assert len(sites) == 3
        for n in (1, 2):
            bucket = g.with_batch(n)
            for i in sites:
                node = bucket.nodes[i]
                assert node.attrs["input_scales"] == [1, 2]
                assert ops.fused_input_shape(node)[0] == n
                assert (ops.fused_input_shape(node)[1:]
                        == ops.fused_input_shape(g.nodes[i])[1:])

    def test_round_trips_to_an_equal_fingerprint(self):
        g = _temco("unet_small", hw=16)
        small = g.with_batch(1)
        assert graph_fingerprint(small) != graph_fingerprint(g)
        assert graph_fingerprint(small.with_batch(BATCH)) == \
            graph_fingerprint(g)

    @pytest.mark.parametrize("n", [0, -1])
    def test_batch_below_one_is_a_value_error(self, n):
        with pytest.raises(ValueError, match="batch must be >= 1"):
            make_chain_graph(batch=BATCH).with_batch(n)


class TestProbe:
    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_verdict_is_what_a_direct_comparison_finds(self, name):
        """The probe ran on its own seeded inputs at start-up; here the
        same question is asked of whole bucket runs on fresh ones, with
        random neighbours and with the batcher's zero padding.  What
        BLAS does with a shape is its business: the probe only has to
        report it."""
        graph = build_model(name, batch=BATCH, hw=32, seed=0)
        buckets = derive_buckets(graph)
        rng = np.random.default_rng(1234)
        fresh = {v.name: rng.standard_normal(v.shape).astype(v.dtype.np)
                 for v in graph.inputs}
        for n in (1, 2):
            padded = {k: np.concatenate([x[:n], np.zeros_like(x[n:])])
                      for k, x in fresh.items()}
            diverged = [_first_divergence(graph, n, inputs)
                        for inputs in (fresh, padded)]
            if n in buckets.offered:
                assert diverged == [None, None], (name, n)
            else:
                assert all(diverged), (name, n, buckets.refused[n])

    @pytest.mark.parametrize("name", ["unet_small", "wavenet2d"])
    def test_the_served_models_get_every_bucket(self, name):
        # the benchmark's fleet_http / serve_open claim rests on this
        buckets = derive_buckets(_temco(name))
        assert buckets.sizes == [1, 2, 4] and not buckets.refused

    def test_refusal_names_the_first_diverging_node(self, monkeypatch):
        """A kernel that rounds differently at one sample, by one ulp,
        loses bucket 1 — and only it."""
        g = make_chain_graph(batch=BATCH)
        real = kernels.BINDERS["maxpool2d"]

        def off_by_an_ulp(node):
            kernel = real(node)

            def run(inputs):
                out = kernel(inputs)
                return np.nextafter(out, np.inf) if len(out) == 1 else out
            return run

        monkeypatch.setitem(kernels.BINDERS, "maxpool2d", off_by_an_ulp)
        buckets = derive_buckets(g)
        pool = next(n.name for n in g.nodes if n.op == "maxpool2d")
        assert buckets.sizes == [2, 4]
        assert buckets.refused[1].node == pool
        assert pool in buckets.refused[1].reason
        assert buckets.health_fields() == {
            "buckets": [2, 4], "buckets_refused": {"1": pool}}
        # requests are still answered, bitwise, from the next bucket up
        x = np.random.default_rng(5).standard_normal(
            (1,) + g.inputs[0].shape[1:]).astype(np.float32)
        want = _direct(g, x)  # a static-batch run: never one sample
        with InferenceServer(g, ServerConfig(), buckets=buckets) as server:
            got = server.infer(x, timeout=10.0)[g.outputs[0].name]
            stats = server.stats()
        assert np.array_equal(got, want)
        assert stats["serve.bucket_runs.size.2"] == 1
        assert stats["serve.padded_samples"] == 1

    def test_a_clean_graph_diverges_at_no_size(self):
        g = make_skip_graph(batch=BATCH)
        assert probe_buckets(g, {n: g.with_batch(n) for n in (1, 2, 3)}) == {}

    def test_static_batch_of_one_has_one_bucket(self):
        buckets = derive_buckets(make_chain_graph(batch=1))
        assert buckets.sizes == [1] and not buckets.refused

    def test_odd_static_batch_gets_the_powers_of_two_below_it(self):
        assert derive_buckets(make_chain_graph(batch=6)).sizes == [1, 2, 4, 6]


class TestBucketedServing:
    @pytest.fixture(scope="class")
    def graph(self):
        return _temco("unet_small", hw=16)

    @pytest.mark.parametrize("size,padded,runs", [
        (1, 0, {1: 1}), (2, 0, {2: 1}), (3, 1, {4: 1}), (4, 0, {4: 1}),
        (5, 0, {4: 1, 1: 1}), (6, 0, {4: 1, 2: 1})])
    def test_served_is_bitwise_the_direct_run(self, graph, size, padded,
                                              runs):
        x = np.random.default_rng(size).standard_normal(
            (size,) + graph.inputs[0].shape[1:]).astype(np.float32)
        with InferenceServer(graph, ServerConfig()) as server:
            got = server.infer(x, timeout=10.0)[graph.outputs[0].name]
            stats = server.stats()
            health = server.health_doc()
        assert np.array_equal(got, _direct(graph, x))
        assert stats["serve.padded_samples"] == padded
        assert {n: stats.get(f"serve.bucket_runs.size.{n}", 0)
                for n in runs} == runs
        assert sum(v for k, v in stats.items()
                   if k.startswith("serve.bucket_runs.size.")) \
            == stats["serve.batches"]
        assert health["buckets"] == [1, 2, 4]
        assert health["buckets_refused"] == {}

    def test_bucket_runs_are_one_labelled_prometheus_family(self, graph):
        with InferenceServer(graph, ServerConfig()) as server:
            server.infer(np.zeros((1,) + graph.inputs[0].shape[1:],
                                  np.float32), timeout=10.0)
            text = server.metrics_text()
        assert 'repro_serve_bucket_runs_total{size="1"} 1' in text


class TestBucketsUnderABudget:
    @pytest.fixture(scope="class")
    def planned(self):
        graph = build_model("wavenet2d", batch=BATCH, hw=16, seed=0)
        # tight enough that bucket 2 needs actions of its own
        plan = plan_memory(graph, int(0.45 * estimate_peak_internal(graph)))
        return graph, plan, derive_buckets(graph, plan)

    def test_each_bucket_plans_within_the_one_budget(self, planned):
        graph, plan, buckets = planned
        assert buckets.sizes == [1, 2, 4]
        assert buckets.offered[BATCH].memory_plan is plan
        assert buckets.offered[2].memory_plan.spills
        rng = np.random.default_rng(9)
        for n, bucket in buckets.offered.items():
            x = rng.standard_normal(
                (n,) + graph.inputs[0].shape[1:]).astype(np.float32)
            free = InferenceSession(bucket.graph).run(x)
            tight = InferenceSession(
                bucket.graph, memory_plan=bucket.memory_plan).run(x)
            assert np.array_equal(tight.output(), free.output())
            assert tight.memory.peak_internal_bytes \
                <= bucket.memory_plan.planned_peak_bytes \
                <= plan.budget_bytes

    def test_small_buckets_cannot_trip_the_drift_detector(self, planned):
        graph, plan, buckets = planned
        # bucket 2 plans a higher peak than the static batch does
        assert buckets.offered[2].memory_plan.planned_peak_bytes \
            > plan.planned_peak_bytes
        rng = np.random.default_rng(3)
        with InferenceServer(graph, ServerConfig(), memory_plan=plan,
                             buckets=buckets) as server:
            for n in (4, 2, 1):
                server.infer(rng.standard_normal(
                    (n,) + graph.inputs[0].shape[1:]).astype(np.float32),
                    timeout=10.0)
            stats = server.stats()
        # the planned-peak rule alone: this plan fills its budget, which
        # the watermark rule flags whatever the bucket
        snapshot = {key: stats[key] for key in ("serve.measured_peak_bytes",
                                                "plan.planned_peak_bytes")}
        assert stats["serve.measured_peak_bytes"] \
            <= stats["plan.planned_peak_bytes"] <= plan.budget_bytes
        assert memory_drift([(0.0, snapshot)], 0.0) == []

    def test_a_bucket_the_budget_cannot_hold_is_refused(self, planned,
                                                        monkeypatch):
        from repro.plan import InfeasibleBudget
        from repro.serve import batcher

        graph, plan, _ = planned

        def no_room_at_two(bucket_graph, budget, **kwargs):
            if bucket_graph.inputs[0].shape[0] == 2:
                raise InfeasibleBudget(bucket_graph.name, budget, budget + 1)
            return plan_memory(bucket_graph, budget, **kwargs)

        monkeypatch.setattr(batcher, "plan_memory", no_room_at_two)
        buckets = derive_buckets(graph, plan)
        assert buckets.sizes == [1, 4]
        assert buckets.refused[2].node is None
        assert "infeasible" in str(buckets.refused[2])


class TestPoolSharesBuckets:
    def test_one_derivation_per_spec(self, monkeypatch):
        from repro.fleet import PoolConfig, ReplicaPool, Router
        from repro.fleet import pool as pool_module

        calls = []
        real = pool_module.derive_buckets

        def counting(graph, memory_plan=None):
            calls.append(graph.name)
            return real(graph, memory_plan)

        monkeypatch.setattr(pool_module, "derive_buckets", counting)
        g = make_chain_graph(batch=BATCH)
        with Router(ReplicaPool(g, PoolConfig(replicas=3))) as fleet:
            servers = [r.server for r in fleet.pool.replicas]
            assert len(calls) == 1
            assert all(s.buckets is fleet.pool.buckets for s in servers)
            assert isinstance(fleet.pool.buckets, Buckets)
            assert fleet.health_doc()["buckets"] == [1, 2, 4]


    def test_the_probe_never_runs_under_the_pool_lock(self, monkeypatch):
        """``pick()`` needs that lock: routing to the ready replicas
        must not stall for a reloading one's forward runs."""
        from repro.fleet import PoolConfig, ReplicaPool, ReplicaSpec, Router
        from repro.fleet import pool as pool_module

        locked = []
        real = pool_module.derive_buckets
        g = make_chain_graph(batch=BATCH)
        pool = ReplicaPool(g, PoolConfig(replicas=2))

        def watching(graph, memory_plan=None):
            locked.append(pool._lock._is_owned())  # an RLock, this thread
            return real(graph, memory_plan)

        monkeypatch.setattr(pool_module, "derive_buckets", watching)
        with Router(pool) as fleet:
            assert fleet.rolling_reload(
                ReplicaSpec(graph=make_chain_graph(batch=BATCH)))
        assert locked == [False, False]  # start-up, the reload's spec


class TestWorkConservingHold:
    def test_a_lone_caller_never_waits_for_a_co_rider(self):
        g = make_chain_graph(batch=BATCH)
        x = np.zeros((1,) + g.inputs[0].shape[1:], np.float32)
        config = ServerConfig(num_workers=2, max_wait_s=0.5)
        with InferenceServer(g, config) as server:
            server.infer(x, timeout=10.0)  # warm
            start = time.monotonic()
            for _ in range(5):
                server.infer(x, timeout=10.0)
            elapsed = time.monotonic() - start
        assert elapsed < 0.25, f"5 requests took {elapsed:.3f} s"

    def test_callers_on_two_workers_still_coalesce(self):
        """While one worker runs a batch, the other holds the next
        request open — and the third rides with it."""
        g = make_chain_graph(batch=BATCH)
        x = np.zeros((1,) + g.inputs[0].shape[1:], np.float32)
        config = ServerConfig(num_workers=2, max_wait_s=0.2)
        with InferenceServer(g, config) as server:
            gate = hold_runs(server)
            first = server.submit(x)
            # alone in the system, it is taken and run at once (and
            # parks at the gate); the idle worker takes the second
            # request and, with the first still running, holds its
            # batch open
            assert wait_until(lambda: not server._queue)
            second = server.submit(x)
            assert wait_until(lambda: not server._queue)
            third = server.submit(x)
            assert wait_until(lambda: not server._queue)
            gate.set()
            for future in (first, second, third):
                future.result(10.0)
            stats = server.stats()
        assert stats["serve.batches"] == 2
        assert stats["serve.batch_requests.max"] == 2
        assert stats["serve.bucket_runs.size.1"] == 1
        assert stats["serve.bucket_runs.size.2"] == 1

    def test_the_hold_ends_when_the_other_batch_does(self):
        """Nobody is left to send a co-rider once the batch a worker
        holds against has ended: it must not wait out ``max_wait_s``
        with the only request in the system."""
        g = make_chain_graph(batch=BATCH)
        x = np.zeros((1,) + g.inputs[0].shape[1:], np.float32)
        config = ServerConfig(num_workers=2, max_wait_s=30.0)
        with InferenceServer(g, config) as server:
            gate = hold_runs(server)
            first = server.submit(x)
            assert wait_until(lambda: server._running == 1)
            second = server.submit(x)
            assert wait_until(lambda: not server._queue)
            assert server._running == 1  # held, not running
            gate.set()
            first.result(10.0)
            second.result(10.0)
            assert server.stats()["serve.batches"] == 2
