"""The fleet view's anomaly detectors and findings bookkeeping, driven
through ``FleetView.sample()`` over a stub backend on a fake clock."""

from repro.obs import Tracer, fleetview

from _stub_backend import StubFleet


def _outlier_fleet(**kwargs) -> StubFleet:
    """Replica 0 at 150 ms against a 10 ms peer: one replica-outlier."""
    fleet = StubFleet(**kwargs)
    fleet.feed(0.0, {"fleet.attempt_ms.replica.0.p95": 150.0,
                     "fleet.attempt_ms.replica.1.p95": 10.0})
    return fleet


class TestReplicaSeries:
    def test_both_naming_shapes_resolve(self):
        # router-side flattened histogram shape
        router_side = StubFleet()
        router_side.feed(0.0, {"fleet.attempt_ms.replica.0.p95": 150.0,
                               "fleet.attempt_ms.replica.1.p95": 10.0})
        # replica-server stat carrying the view's suffix
        suffixed = StubFleet()
        suffixed.feed(0.0, {"serve.latency_ms.p95.replica.0": 10.0,
                            "serve.latency_ms.p95.replica.1": 150.0})
        assert [f.subject for f in router_side.view.findings()] \
            == ["replica.0"]
        assert [f.subject for f in suffixed.view.findings()] == ["replica.1"]

    def test_other_stats_not_matched(self):
        fleet = StubFleet()
        fleet.feed(0.0, {"fleet.attempt_ms.replica.0.p50": 150.0,
                         "fleet.attempt_ms.replica.1.p50": 10.0,
                         "serve.latency_ms.p50.replica.0": 150.0,
                         "serve.latency_ms.p50.replica.1": 10.0})
        assert fleet.view.findings() == []


class TestLatencyRegression:
    def _fill(self, baseline_ms, recent_ms) -> StubFleet:
        # 30 s of baseline then 5 s of recent, one sample per second
        fleet = StubFleet()
        for i in range(30):
            fleet.feed(float(i), {"serve.latency_ms.p95": baseline_ms})
        for i in range(30, 36):
            fleet.feed(float(i), {"serve.latency_ms.p95": recent_ms})
        return fleet

    def test_regression_fires(self):
        fleet = self._fill(baseline_ms=10.0, recent_ms=50.0)
        (f,) = fleet.view.findings()
        assert f.kind == "latency-regression"
        assert f.subject == "serve.latency_ms.p95"
        assert f.value > f.threshold

    def test_steady_latency_is_quiet(self):
        assert self._fill(baseline_ms=10.0, recent_ms=11.0).kinds() == []

    def test_min_ms_floor_suppresses_fast_model_noise(self):
        # 5x regression, but both sides under the 5 ms floor
        assert self._fill(baseline_ms=0.5, recent_ms=2.5).kinds() == []

    def test_needs_enough_history(self):
        fleet = StubFleet()
        fleet.feed(0.0, {"serve.latency_ms.p95": 100.0})
        fleet.feed(1.0, {"serve.latency_ms.p95": 100.0})
        assert fleet.kinds() == []


class TestMemoryDrift:
    def test_watermark_breach_is_critical(self):
        fleet = StubFleet()
        fleet.feed(0.0, {"serve.measured_peak_bytes": 95.0,
                         "plan.budget_bytes": 100.0})
        (f,) = fleet.view.findings()
        assert (f.kind, f.severity) == ("memory-drift", "critical")

    def test_plan_divergence_is_warning(self):
        fleet = StubFleet()
        fleet.feed(0.0, {"serve.measured_peak_bytes": 120.0,
                         "plan.planned_peak_bytes": 100.0})
        assert [f.severity for f in fleet.view.findings()] == ["warning"]

    def test_within_plan_is_quiet(self):
        fleet = StubFleet()
        fleet.feed(0.0, {"serve.measured_peak_bytes": 100.0,
                         "plan.planned_peak_bytes": 100.0,
                         "plan.budget_bytes": 200.0})
        assert fleet.kinds() == []

    def test_per_replica_suffix_tracked_separately(self):
        fleet = StubFleet()
        fleet.feed(0.0, {"serve.measured_peak_bytes.replica.0": 50.0,
                         "plan.budget_bytes.replica.0": 100.0,
                         "serve.measured_peak_bytes.replica.1": 99.0,
                         "plan.budget_bytes.replica.1": 100.0})
        assert [f.subject for f in fleet.view.findings()] == ["replica.1"]


class TestDropSpike:
    def test_burst_fires(self):
        fleet = StubFleet()
        fleet.feed(0.0, {"serve.dropped.reason.overload": 0.0})
        fleet.feed(2.0, {"serve.dropped.reason.overload": 5.0})
        (f,) = fleet.view.findings()
        assert f.kind == "drop-spike"
        assert f.value == 5.0

    def test_slow_trickle_is_quiet(self):
        fleet = StubFleet()
        fleet.feed(0.0, {"serve.dropped.reason.deadline": 0.0})
        fleet.feed(2.0, {"serve.dropped.reason.deadline": 2.0})
        assert fleet.kinds() == []

    def test_counter_reset_is_not_a_burst(self):
        # a replica restart: the counter falls, the growth clamps to 0
        fleet = StubFleet()
        fleet.feed(0.0, {"serve.dropped.reason.overload": 100.0})
        fleet.feed(1.0, {"serve.dropped.reason.overload": 3.0})
        assert fleet.kinds() == []


class TestReplicaOutlier:
    def test_slow_replica_flagged_against_peer_median(self):
        fleet = StubFleet()
        fleet.feed(0.0, {"fleet.attempt_ms.replica.0.p95": 150.0,
                         "fleet.attempt_ms.replica.1.p95": 10.0,
                         "fleet.attempt_ms.replica.2.p95": 12.0})
        (f,) = fleet.view.findings()
        assert (f.kind, f.subject) == ("replica-outlier", "replica.0")

    def test_two_replica_fleet_judges_against_the_healthy_peer(self):
        # with 2 replicas a self-including median would be dragged up
        # by the sick replica itself and never fire
        findings = _outlier_fleet().view.findings()
        assert [f.subject for f in findings] == ["replica.0"]

    def test_single_replica_never_fires(self):
        fleet = StubFleet()
        fleet.feed(0.0, {"fleet.attempt_ms.replica.0.p95": 500.0})
        assert fleet.kinds() == []

    def test_balanced_fleet_is_quiet(self):
        fleet = StubFleet()
        fleet.feed(0.0, {f"fleet.attempt_ms.replica.{rid}.p95": 10.0 + rid
                         for rid in range(3)})
        assert fleet.kinds() == []

    def test_flagged_once_across_bases(self):
        fleet = StubFleet()
        fleet.feed(0.0, {"fleet.attempt_ms.replica.0.p95": 150.0,
                         "fleet.attempt_ms.replica.1.p95": 10.0,
                         "serve.latency_ms.p95.replica.0": 150.0,
                         "serve.latency_ms.p95.replica.1": 10.0})
        assert [f.subject for f in fleet.view.findings()] == ["replica.0"]
        assert fleet.backend.metrics.get("anomaly.kind.replica-outlier") == 1


class TestMonitor:
    def test_counters_and_dedup(self):
        fleet = _outlier_fleet()
        fleet.feed(1.0, {"fleet.attempt_ms.replica.0.p95": 160.0})
        # same (kind, subject, severity) → counted once, kept once,
        # with the latest numbers
        registry = fleet.backend.metrics
        assert registry.get("anomaly.kind.replica-outlier") == 1
        (f,) = fleet.view.findings()
        assert (f.value, f.at) == (160.0, 1.0)
        assert fleet.view.scrapes == 2

    def test_detector_exceptions_counted_not_raised(self, monkeypatch):
        def broken(history, now):
            raise RuntimeError("detector bug")

        monkeypatch.setattr(fleetview, "DETECTORS",
                            (broken,) + fleetview.DETECTORS)
        fleet = _outlier_fleet()  # feed() asserts the sample succeeded
        assert fleet.backend.metrics.get("anomaly.detector_errors") == 1
        assert fleet.view.scrape_errors == 1
        # the detectors after the broken one still ran
        assert fleet.kinds() == ["replica-outlier"]

    def test_tracer_instant_on_fresh_finding(self):
        tracer = Tracer()
        fleet = _outlier_fleet(tracer=tracer)
        fleet.feed(1.0, {})  # repeat firing emits no second instant
        anomalies = [i for i in tracer.events if i["name"] == "anomaly"]
        assert len(anomalies) == 1
        assert anomalies[0]["ph"] == "i"
        assert anomalies[0]["args"]["kind"] == "replica-outlier"

    def test_finding_to_dict_is_json_shaped(self):
        doc = _outlier_fleet().view.findings()[0].to_dict()
        assert set(doc) == {"kind", "severity", "subject", "message",
                            "value", "threshold", "at"}
