"""MetricsRegistry histograms, merge semantics + thread safety."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import FleetView, Histogram, MetricsRegistry, fleetview


class TestHistogram:
    def test_exact_stats_below_reservoir_bound(self):
        h = Histogram()
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(2.5)
        assert h.min == 1.0 and h.max == 4.0
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 4.0
        assert h.quantile(0.5) == pytest.approx(2.5)

    def test_quantile_interpolates(self):
        h = Histogram()
        for v in range(101):  # 0..100
            h.observe(float(v))
        assert h.quantile(0.95) == pytest.approx(95.0)
        assert h.quantile(0.99) == pytest.approx(99.0)

    def test_reservoir_bounds_memory(self):
        h = Histogram(max_samples=64)
        for v in range(10_000):
            h.observe(float(v))
        assert h.count == 10_000
        assert len(h._samples) == 64
        assert h.min == 0.0 and h.max == 9999.0
        # the reservoir is a uniform sample: the median estimate must
        # land well inside the range
        assert 1000 < h.quantile(0.5) < 9000

    def test_empty_histogram(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0
        # empty snapshot carries the full key set, all zero — scrapers
        # and the Prometheus renderer never see a shape change
        snap = h.snapshot()
        assert set(snap) == {"count", "sum", "mean", "min", "max",
                             "p50", "p95", "p99"}
        assert all(v == 0.0 for v in snap.values())

    def test_single_sample_histogram(self):
        h = Histogram()
        h.observe(7.0)
        snap = h.snapshot()
        assert snap["count"] == 1 and snap["sum"] == 7.0
        # every quantile of a single-sample series is that sample
        assert snap["p50"] == snap["p95"] == snap["p99"] == 7.0
        assert snap["min"] == snap["max"] == 7.0

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError, match="max_samples"):
            Histogram(max_samples=0)
        with pytest.raises(ValueError, match="quantile"):
            Histogram().quantile(1.5)

    def test_snapshot_shape(self):
        h = Histogram()
        h.observe(10.0)
        snap = h.snapshot()
        assert set(snap) == {"count", "sum", "mean", "min", "max",
                             "p50", "p95", "p99"}


class TestRegistryHistograms:
    def test_observe_creates_and_accumulates(self):
        m = MetricsRegistry()
        m.observe("latency_ms", 5.0)
        m.observe("latency_ms", 15.0)
        q = m.quantiles("latency_ms")
        assert q["count"] == 2 and q["p50"] == pytest.approx(10.0)

    def test_quantiles_of_unknown_histogram(self):
        q = MetricsRegistry().quantiles("nope")
        assert q["count"] == 0.0 and q["p99"] == 0.0
        assert set(q) == {"count", "sum", "mean", "min", "max",
                          "p50", "p95", "p99"}

    def test_export_groups_by_kind(self):
        m = MetricsRegistry()
        m.inc("runs")
        m.gauge("peak", 7)
        m.observe("lat", 3.0)
        counters, gauges, histograms = m.export()
        assert counters == {"runs": 1.0}
        assert gauges == {"peak": 7.0}
        assert histograms["lat"]["count"] == 1

    def test_snapshot_flattens_histograms_sorted(self):
        m = MetricsRegistry()
        m.inc("runs")
        m.gauge("peak", 7)
        m.observe("lat", 3.0)
        snap = m.snapshot()
        assert snap["runs"] == 1 and snap["peak"] == 7
        assert snap["lat.count"] == 1 and snap["lat.p99"] == 3.0
        assert list(snap) == sorted(snap)

    def test_clear_drops_histograms(self):
        m = MetricsRegistry()
        m.observe("lat", 1.0)
        m.clear()
        assert m.snapshot() == {}


class TestHistogramMerge:
    def test_exact_stats_add(self):
        a, b = Histogram(), Histogram()
        for v in (1.0, 2.0):
            a.observe(v)
        for v in (10.0, 20.0):
            b.observe(v)
        a.merge(b)
        assert a.count == 4
        assert a.total == pytest.approx(33.0)
        assert a.min == 1.0 and a.max == 20.0
        # the donor is only read, never mutated
        assert b.count == 2 and b.min == 10.0

    def test_merge_empty_is_noop(self):
        a = Histogram()
        a.observe(5.0)
        before = a.snapshot()
        a.merge(Histogram())
        assert a.snapshot() == before

    def test_merge_into_empty_copies(self):
        a, b = Histogram(), Histogram()
        for v in (1.0, 2.0, 3.0):
            b.observe(v)
        a.merge(b)
        assert a.snapshot() == b.snapshot()

    def test_self_merge_rejected(self):
        h = Histogram()
        with pytest.raises(ValueError, match="itself"):
            h.merge(h)

    def test_copy_is_independent(self):
        a = Histogram()
        a.observe(1.0)
        c = a.copy()
        c.observe(99.0)
        assert a.count == 1 and a.max == 1.0
        assert c.count == 2 and c.max == 99.0

    def test_overfull_merge_downsamples_proportionally(self):
        a, b = Histogram(max_samples=64), Histogram(max_samples=64)
        for v in range(1000):
            a.observe(float(v))        # low half
        for v in range(1000, 2000):
            b.observe(float(v))        # high half
        a.merge(b)
        assert a.count == 2000
        assert len(a._samples) <= 64
        assert a.min == 0.0 and a.max == 1999.0
        # equal counts → the reservoir keeps both halves represented
        assert any(v < 1000 for v in a._samples)
        assert any(v >= 1000 for v in a._samples)

    @settings(max_examples=30, deadline=None)
    @given(left=st.lists(st.floats(-1e6, 1e6), max_size=200),
           right=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_merge_conserves_count_sum_and_bounds(self, left, right):
        a, b = Histogram(max_samples=128), Histogram(max_samples=128)
        for v in left:
            a.observe(v)
        for v in right:
            b.observe(v)
        a.merge(b)
        combined = left + right
        assert a.count == len(combined)
        assert a.total == pytest.approx(sum(combined))
        assert a.min == min(combined) and a.max == max(combined)
        # any quantile of the merged reservoir stays inside the true
        # combined range
        for q in (0.0, 0.5, 0.95, 1.0):
            assert a.min <= a.quantile(q) <= a.max


class TestRegistryMerge:
    def _replica(self, completed: int, lat: float) -> MetricsRegistry:
        m = MetricsRegistry()
        m.inc("serve.completed", completed)
        m.gauge("serve.queue_depth", 2)
        m.observe("serve.latency_ms", lat)
        return m

    def test_unlabeled_merge_aggregates(self):
        out = MetricsRegistry()
        out.merge(self._replica(3, 5.0))
        out.merge(self._replica(4, 15.0))
        assert out.get("serve.completed") == 7
        assert out.quantiles("serve.latency_ms")["count"] == 2

    def test_labeled_merge_keeps_aggregate_and_per_replica(self):
        out = MetricsRegistry()
        out.merge(self._replica(3, 5.0), label="replica.0")
        out.merge(self._replica(4, 15.0), label="replica.1")
        snap = out.snapshot()
        # aggregate families
        assert snap["serve.completed"] == 7
        assert snap["serve.latency_ms.count"] == 2
        # labeled families (render as {replica="0"} on /metrics)
        assert snap["serve.completed.replica.0"] == 3
        assert snap["serve.completed.replica.1"] == 4
        assert snap["serve.latency_ms.replica.0.p50"] == 5.0
        assert snap["serve.latency_ms.replica.1.p50"] == 15.0
        # labeled gauges take the labeled name only
        assert snap["serve.queue_depth.replica.0"] == 2

    def test_merge_does_not_mutate_source(self):
        source = self._replica(3, 5.0)
        out = MetricsRegistry()
        out.merge(source, label="replica.0")
        out.observe("serve.latency_ms", 99.0)
        out.inc("serve.completed", 10)
        assert source.get("serve.completed") == 3
        assert source.quantiles("serve.latency_ms")["count"] == 1

    def test_self_merge_rejected(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError, match="itself"):
            m.merge(m)

    @settings(max_examples=20, deadline=None)
    @given(counts=st.lists(st.integers(0, 50), min_size=1, max_size=5))
    def test_count_conservation_across_replicas(self, counts):
        out = MetricsRegistry()
        for rid, n in enumerate(counts):
            replica = MetricsRegistry()
            for i in range(n):
                replica.observe("lat", float(i))
                replica.inc("done")
            out.merge(replica, label=f"replica.{rid}")
        snap = out.snapshot()
        total = sum(counts)
        assert snap.get("done", 0.0) == total
        assert snap.get("lat.count", 0.0) == total
        labeled = sum(snap.get(f"done.replica.{rid}", 0.0)
                      for rid in range(len(counts)))
        assert labeled == total


class TestThreadSafety:
    def test_concurrent_increments_do_not_tear(self):
        m = MetricsRegistry()
        per_thread, threads = 2_000, 8

        def hammer():
            for _ in range(per_thread):
                m.inc("hits")
                m.observe("lat", 1.0)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert m.get("hits") == per_thread * threads
        assert m.quantiles("lat")["count"] == per_thread * threads

    def test_concurrent_observe_with_concurrent_readers(self):
        """The serving workers observe() while the metrics endpoint
        snapshots — reservoir state must never tear or lose counts."""
        m = MetricsRegistry()
        per_thread, writers = 1_000, 6
        stop = threading.Event()
        snapshots: list[dict] = []

        def write(worker: int):
            for i in range(per_thread):
                m.observe("serve.latency_ms", float(worker * per_thread + i))

        def read():
            # paced: back-to-back snapshots (each sorts the reservoir
            # under the lock) starve the writers, and the test then
            # lasts as long as the starvation does rather than the
            # writers' fixed number of observations
            while True:
                snap = m.snapshot()
                # counts only grow, quantiles stay within observed range
                if snap:
                    assert 0 <= snap["serve.latency_ms.count"] \
                        <= per_thread * writers
                    assert (snap["serve.latency_ms.min"]
                            <= snap["serve.latency_ms.p50"]
                            <= snap["serve.latency_ms.max"])
                snapshots.append(snap)
                if stop.wait(0.001):
                    return

        threads = [threading.Thread(target=write, args=(w,))
                   for w in range(writers)]
        readers = [threading.Thread(target=read) for _ in range(2)]
        for t in readers + threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        final = m.quantiles("serve.latency_ms")
        assert final["count"] == per_thread * writers
        assert final["min"] == 0.0
        assert final["max"] == per_thread * writers - 1
        assert snapshots, "readers must have run concurrently"

    def test_scraper_snapshots_while_workers_observe(self, monkeypatch):
        """The fleet-view path: the sampler thread snapshotting the
        registry into the view's history while worker threads
        observe()/gauge()/inc() and a reader takes fleet documents —
        no tearing, no lost counts, and the history only ever sees
        monotone counter values."""
        from _stub_backend import StubBackend

        m = MetricsRegistry()
        view = FleetView(StubBackend(m.snapshot))
        monkeypatch.setattr(fleetview, "INTERVAL_S", 0.001)
        per_thread, writers = 1_000, 4

        def write(worker: int):
            for i in range(per_thread):
                m.inc("serve.completed")
                m.gauge("serve.queue_depth", i % 7)
                m.observe("serve.latency_ms", float(i))

        threads = [threading.Thread(target=write, args=(w,))
                   for w in range(writers)]
        with view:
            for t in threads:
                t.start()
            while any(t.is_alive() for t in threads):
                view.fleet_doc()  # a second sampler: the /fleetz handler
            for t in threads:
                t.join(timeout=30.0)
            assert view.sample()  # deterministic final sample
        assert view.scrape_errors == 0
        series = view.timeseries()["series"]
        completed = [v for _, v in series["serve.completed"]]
        assert completed[-1] == per_thread * writers
        # a counter snapshot can never go backwards
        assert all(a <= b for a, b in zip(completed, completed[1:]))
        for _, p50 in series["serve.latency_ms.p50"]:
            assert 0.0 <= p50 <= per_thread - 1

    def test_concurrent_labeled_merges(self):
        """FleetView.merged_registry runs per scrape while replicas
        keep writing — merging under load must stay consistent."""
        replicas = [MetricsRegistry() for _ in range(3)]
        stop = threading.Event()

        def write(m: MetricsRegistry):
            while not stop.is_set():
                m.inc("serve.completed")
                m.observe("serve.latency_ms", 1.0)

        writers = [threading.Thread(target=write, args=(m,))
                   for m in replicas]
        for w in writers:
            w.start()
        try:
            for _ in range(25):
                out = MetricsRegistry()
                for rid, m in enumerate(replicas):
                    out.merge(m, label=f"replica.{rid}")
                snap = out.snapshot()
                labeled = sum(snap.get(f"serve.completed.replica.{r}", 0.0)
                              for r in range(3))
                # the aggregate equals the labeled sum within one scrape
                assert snap.get("serve.completed", 0.0) == labeled
        finally:
            stop.set()
            for w in writers:
                w.join()
