"""Failure injection for the spill store: a failed spill write must
degrade to keep-resident (the request stays correct), a transient fetch
failure must be retried, and lost data must surface as a typed error —
never as silently wrong outputs."""

import threading
import time

import numpy as np
import pytest

from repro.core import estimate_peak_internal
from repro.models import build_wavenet2d
from repro.plan import (PrefetchWorker, SpillStore, SpillStoreError,
                        plan_memory)
from repro.runtime.executor import execute


@pytest.fixture(scope="module")
def planned_wavenet():
    graph = build_wavenet2d(batch=1, hw=16, channels=8, layers=6)
    rng = np.random.default_rng(0)
    inputs = {v.name: rng.standard_normal(v.shape).astype(np.float32)
              for v in graph.inputs}
    reference = execute(graph, inputs)
    plan = plan_memory(graph, int(0.60 * estimate_peak_internal(graph)))
    assert plan.spills  # the injection below must have something to break
    return graph, inputs, reference, plan


class _WriteFailStore(SpillStore):
    """Every spill write fails; nothing ever reaches the store."""

    def put(self, name, array):
        raise SpillStoreError(f"injected write failure for {name!r}")


class _FlakyFetchStore(SpillStore):
    """The first fetch of each tensor fails (transient I/O); the
    enforcer's synchronous retry then succeeds."""

    def __init__(self):
        super().__init__()
        self.failed_once: set[str] = set()

    def fetch(self, name):
        if name not in self.failed_once:
            self.failed_once.add(name)
            raise SpillStoreError(f"injected transient fetch of {name!r}")
        return super().fetch(name)


class _DeadFetchStore(SpillStore):
    """Writes land but every read fails: the data is gone."""

    def fetch(self, name):
        raise SpillStoreError(f"injected permanent fetch loss of {name!r}")


class TestSpillWriteFailure:
    def test_falls_back_to_keep_resident_and_stays_correct(
            self, planned_wavenet):
        graph, inputs, reference, plan = planned_wavenet
        result = execute(graph, inputs, plan=plan,
                         spill_store=_WriteFailStore())
        for name, array in reference.outputs.items():
            assert np.array_equal(result.outputs[name], array), name
        stats = result.memory.plan_stats
        assert stats.spill_failures == len(plan.spills)
        assert stats.spills == 0 and stats.prefetches == 0
        # nothing left residence, so the run measures the unplanned peak
        assert result.memory.peak_internal_bytes == \
            reference.memory.peak_internal_bytes


class TestTransientFetchFailure:
    def test_synchronous_retry_recovers(self, planned_wavenet):
        graph, inputs, reference, plan = planned_wavenet
        store = _FlakyFetchStore()
        result = execute(graph, inputs, plan=plan, spill_store=store)
        for name, array in reference.outputs.items():
            assert np.array_equal(result.outputs[name], array), name
        stats = result.memory.plan_stats
        assert stats.fetch_retries == len(plan.spills)
        assert stats.prefetches == len(plan.spills)
        # retries do not change the enforced memory shape
        assert result.memory.peak_internal_bytes == plan.planned_peak_bytes


class TestPermanentFetchFailure:
    def test_lost_data_surfaces_as_typed_error(self, planned_wavenet):
        graph, inputs, _, plan = planned_wavenet
        with pytest.raises(SpillStoreError):
            execute(graph, inputs, plan=plan, spill_store=_DeadFetchStore())


class TestPrefetchThread:
    """Only a directory store has I/O worth a thread: an in-memory fetch
    is resolved where it is issued, errors captured all the same."""

    def test_in_memory_fetch_is_resolved_inline(self):
        store = SpillStore()
        array = np.arange(6, dtype=np.float32)
        store.put("t", array)
        worker = PrefetchWorker(store)
        try:
            worker.issue("t")
            assert worker._thread is None
            assert worker.wait("t") is array
        finally:
            worker.close()

    def test_in_memory_fetch_error_surfaces_from_wait(self):
        worker = PrefetchWorker(_DeadFetchStore())
        worker.store.put("t", np.zeros(2, np.float32))
        try:
            worker.issue("t")  # must not raise: the enforcer retries at bind
            assert worker._thread is None
            with pytest.raises(SpillStoreError, match="async prefetch"):
                worker.wait("t")
        finally:
            worker.close()

    def test_budgeted_run_on_the_default_store_starts_no_thread(
            self, planned_wavenet, monkeypatch):
        graph, inputs, reference, plan = planned_wavenet
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        result = execute(graph, inputs, plan=plan)
        assert "repro-prefetch" not in started
        assert result.memory.plan_stats.prefetches == len(plan.spills)
        assert result.memory.peak_internal_bytes == plan.planned_peak_bytes
        for name, array in reference.outputs.items():
            assert np.array_equal(result.outputs[name], array), name

    def test_directory_store_fetches_on_the_worker_thread(self, tmp_path):
        store = SpillStore(directory=tmp_path)
        array = np.arange(6, dtype=np.float32)
        store.put("t", array)
        worker = PrefetchWorker(store)
        try:
            worker.issue("t")
            assert worker._thread is not None
            assert worker._thread.name == "repro-prefetch"
            assert np.array_equal(worker.wait("t"), array)
        finally:
            worker.close()
        assert worker._thread is None


class TestAbandonedRun:
    def test_kernel_failure_stops_the_worker_and_clears_the_store(
            self, tmp_path, monkeypatch):
        """A run that raises mid-plan must not leave the prefetch thread
        waiting out its idle timeout, nor spilled tensors on disk."""
        from repro import kernels

        graph = build_wavenet2d(batch=1, hw=32)
        plan = plan_memory(graph, int(0.60 * estimate_peak_internal(graph)))
        assert plan.spills
        rng = np.random.default_rng(0)
        inputs = {v.name: rng.standard_normal(v.shape).astype(np.float32)
                  for v in graph.inputs}
        # the node a prefetch is issued at: the worker thread is up and
        # the tensor is still parked in the store
        doomed = graph.nodes[plan.spills[0].prefetch_issue]
        binder = kernels.BINDERS[doomed.op]

        def kernel_raises(in_arrays):
            raise ZeroDivisionError("injected kernel failure")

        def bind_doomed(node):
            return kernel_raises if node is doomed else binder(node)

        # the run's schedule binds every node before the first one runs
        monkeypatch.setitem(kernels.BINDERS, doomed.op, bind_doomed)
        store = SpillStore(directory=tmp_path)
        with pytest.raises(ZeroDivisionError, match="injected"):
            execute(graph, inputs, plan=plan, spill_store=store)
        time.sleep(0.2)
        assert not [t for t in threading.enumerate()
                    if t.name == "repro-prefetch" and t.is_alive()]
        assert len(store) == 0 and not any(tmp_path.iterdir())


class TestSpillStoreContract:
    def test_directory_store_round_trips_losslessly(self, tmp_path):
        store = SpillStore(directory=tmp_path)
        array = np.random.default_rng(1).standard_normal((3, 4)).astype(
            np.float32)
        assert store.put("conv/1.out", array) == array.nbytes
        assert store.held_bytes == array.nbytes
        fetched = store.fetch("conv/1.out")
        assert np.array_equal(fetched, array)
        store.discard("conv/1.out")
        assert len(store) == 0 and store.held_bytes == 0
        assert not any(tmp_path.iterdir())

    def test_unwritable_directory_raises_typed_error(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        store = SpillStore(directory=blocker)
        with pytest.raises(SpillStoreError, match="write"):
            store.put("t", np.zeros(4, np.float32))

    def test_fetch_of_never_spilled_tensor_raises(self):
        with pytest.raises(SpillStoreError, match="never spilled"):
            SpillStore().fetch("ghost")

    def test_wait_without_issue_raises(self):
        worker = PrefetchWorker(SpillStore())
        with pytest.raises(SpillStoreError, match="no prefetch issued"):
            worker.wait("ghost")
        worker.close()
