"""SLO objectives, rolling-window burn rates, spec parsing."""

import pytest

from repro.obs import (MetricsRegistry, SLOMonitor, SLObjective, parse_slo,
                       parse_slos)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


class TestSLObjective:
    def test_availability_goodness(self):
        o = SLObjective("avail", target=0.99)
        assert o.is_good(True, None)
        assert o.is_good(True, 123.0)
        assert not o.is_good(False, 0.001)
        assert o.error_budget == pytest.approx(0.01)

    def test_latency_goodness_compares_in_ms(self):
        o = SLObjective("lat", target=0.95, latency_threshold_ms=50.0)
        assert o.is_good(True, 0.049)  # 49 ms
        assert not o.is_good(True, 0.051)  # 51 ms
        assert not o.is_good(True, None)  # completed without a latency
        assert not o.is_good(False, 0.001)

    def test_validation(self):
        with pytest.raises(ValueError, match="target"):
            SLObjective("x", target=1.0)
        with pytest.raises(ValueError, match="target"):
            SLObjective("x", target=0.0)
        with pytest.raises(ValueError, match="threshold"):
            SLObjective("x", target=0.9, latency_threshold_ms=0.0)
        with pytest.raises(ValueError, match="window"):
            SLObjective("x", target=0.9, window_s=0.0)


class TestSLOMonitor:
    def test_empty_window_is_healthy(self):
        monitor = SLOMonitor(SLObjective("a", target=0.99))
        (status,) = monitor.evaluate()
        assert status.events == 0
        assert status.good_ratio == 1.0
        assert status.burn_rate == 0.0
        assert status.healthy

    def test_burn_rate_math(self):
        # 2 bad out of 100 against a 1% budget -> burn rate 2.0
        clock = FakeClock()
        monitor = SLOMonitor(SLObjective("a", target=0.99), clock=clock)
        for i in range(100):
            monitor.record(0.001, ok=i >= 2)
        (status,) = monitor.evaluate()
        assert status.events == 100 and status.bad == 2
        assert status.burn_rate == pytest.approx(2.0)
        assert not status.healthy

    def test_rolling_window_forgets_old_events(self):
        clock = FakeClock()
        monitor = SLOMonitor(SLObjective("a", target=0.5, window_s=10.0),
                             clock=clock)
        monitor.record(ok=False)
        clock.t = 60.0  # the failure is 60 s old, outside the 10 s window
        monitor.record(ok=True)
        (status,) = monitor.evaluate()
        assert status.events == 1 and status.good == 1
        assert status.healthy

    def test_per_objective_windows(self):
        clock = FakeClock()
        monitor = SLOMonitor(
            [SLObjective("short", target=0.5, window_s=5.0),
             SLObjective("long", target=0.5, window_s=100.0)], clock=clock)
        monitor.record(ok=False)
        clock.t = 20.0
        monitor.record(ok=True)
        short, long_ = monitor.evaluate()
        assert short.events == 1 and short.healthy  # failure aged out
        assert long_.events == 2
        # 1 bad of 2 against a 50% budget: burning exactly on budget
        assert long_.burn_rate == pytest.approx(1.0)
        assert long_.healthy  # burn rate exactly 1.0 is on-budget

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SLOMonitor([SLObjective("a", target=0.9),
                        SLObjective("a", target=0.8)])

    def test_export_gauges(self):
        clock = FakeClock()
        monitor = SLOMonitor(SLObjective("avail", target=0.9), clock=clock)
        for ok in (True, True, True, False):
            monitor.record(ok=ok)
        registry = MetricsRegistry()
        statuses = monitor.export_gauges(registry)
        snap = registry.snapshot()
        assert snap["slo.avail.events"] == 4.0
        assert snap["slo.avail.good_ratio"] == pytest.approx(0.75)
        assert snap["slo.avail.burn_rate"] == pytest.approx(2.5)
        assert snap["slo.avail.healthy"] == 0.0
        assert snap["slo.avail.target"] == pytest.approx(0.9)
        assert len(statuses) == 1

    def test_thread_safety_smoke(self):
        import threading
        monitor = SLOMonitor(SLObjective("a", target=0.99))

        def hammer():
            for _ in range(500):
                monitor.record(0.001, ok=True)
                monitor.evaluate()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        (status,) = monitor.evaluate()
        assert status.events == 2000


class TestParseSLO:
    def test_availability(self):
        o = parse_slo("availability:0.99")
        assert o.name == "availability_99"
        assert o.target == 0.99
        assert o.latency_threshold_ms is None
        assert o.window_s == 60.0

    def test_availability_with_window(self):
        o = parse_slo("availability:0.995:30")
        assert o.name == "availability_99_5"
        assert o.window_s == 30.0

    def test_latency(self):
        o = parse_slo("latency:50:0.95")
        assert o.name == "latency_50ms_95"
        assert o.latency_threshold_ms == 50.0
        assert o.target == 0.95

    def test_latency_with_window(self):
        o = parse_slo("latency:50:0.95:120")
        assert o.window_s == 120.0

    @pytest.mark.parametrize("bad", [
        "availability", "latency:50", "availability:nope",
        "latency:50:0.95:120:7", "p99:50:0.95", ""])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_slo(bad)

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            parse_slo("availability:1.5")

    def test_parse_slos_dedupes(self):
        objectives = parse_slos(["availability:0.99", "availability:0.99",
                                 "latency:50:0.95"])
        assert [o.name for o in objectives] == ["availability_99",
                                                "latency_50ms_95"]
