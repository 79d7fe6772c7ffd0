"""FleetView: merged snapshots, fleet doc, stitched traces, /fleetz."""

import json
import re
import urllib.error
import urllib.request
from collections import Counter

import numpy as np
import pytest

from repro.fleet import FaultPolicy, PoolConfig, ReplicaPool, Router
from repro.obs import (FleetView, SLOMonitor, Tracer, fleetview, parse_slos,
                       prometheus_metric_name, prometheus_text,
                       render_dashboard, to_chrome_trace, use_tracer)
from repro.serve import (InferenceServer, LoadgenConfig, ServeError,
                         ServerConfig, run_loadgen, serve_http)

from _graph_fixtures import make_chain_graph
from test_fleet_router import _fleet, _payload

pytestmark = pytest.mark.usefixtures("fleet_timing")


def _drive(backend, n=6, seed0=0):
    for i in range(n):
        backend.infer(_payload(backend.graph, seed=seed0 + i), timeout=30.0)


class TestSnapshot:
    def test_replica_stats_suffixed(self):
        with _fleet(replicas=2) as fleet:
            _drive(fleet, 4)
            view = FleetView(fleet)
            snap = view.snapshot()
            assert snap["fleet.completed"] == 4
            # per-replica serve counters carry the .replica.<id> suffix;
            # a hedge can complete a request on both replicas, so the
            # replica total may exceed the fleet total
            per_replica = [snap.get(f"serve.completed.replica.{r}", 0.0)
                           for r in (0, 1)]
            assert sum(per_replica) >= 4

    def test_single_server_backend_is_pseudo_replica(self):
        g = make_chain_graph(batch=4)
        with InferenceServer(g, ServerConfig(max_wait_s=0.0)) as server:
            _drive(server, 1)  # counters exist only after the first inc
            view = FleetView(server)
            snap = view.snapshot()
            # a lone server: its own stats, no replica suffixes
            assert snap["serve.completed"] == 1
            assert not any(".replica." in k for k in snap)
            doc = view.fleet_doc()
            assert [r["id"] for r in doc["replicas"]] == [0]


class TestMergedRegistry:
    def test_replica_families_labeled(self):
        with _fleet(replicas=2) as fleet:
            _drive(fleet, 4)
            merged = FleetView(fleet).merged_registry()
            snap = merged.snapshot()
            assert snap["fleet.completed"] == 4
            total = snap["serve.completed"]  # aggregate across replicas
            labeled = sum(snap.get(f"serve.completed.replica.{r}", 0.0)
                          for r in (0, 1))
            assert total == labeled == 4

    def test_attaching_a_view_never_changes_outputs(self, monkeypatch):
        monkeypatch.setattr(fleetview, "INTERVAL_S", 0.02)
        g = make_chain_graph(batch=4)
        payloads = [_payload(g, seed=i) for i in range(5)]
        with InferenceServer(g, ServerConfig(max_wait_s=0.0)) as single:
            expected = [single.infer(p, timeout=30.0) for p in payloads]
        with _fleet(replicas=2, graph=g) as fleet:
            with FleetView(fleet):
                for payload, reference in zip(payloads, expected):
                    outputs = fleet.infer(payload, timeout=30.0)
                    for name in outputs:
                        assert np.array_equal(outputs[name], reference[name])


class TestFleetDoc:
    def test_doc_shape_and_per_replica_fields(self):
        with _fleet(replicas=2) as fleet:
            _drive(fleet, 6)
            view = FleetView(fleet)
            doc = view.fleet_doc()
            assert doc["model"] == fleet.graph.name
            assert doc["fleet"]["replicas"] == 2
            assert doc["fleet"]["completed"] == 6
            assert len(doc["replicas"]) == 2
            for replica in doc["replicas"]:
                assert {"id", "state", "qps", "latency_ms", "queue_depth",
                        "planned_peak_bytes", "measured_peak_bytes",
                        "attempt_p95_ms"} <= set(replica)
            assert doc["anomalies"] == []
            assert doc["ts"]["series"] > 0

    def test_doc_renders_as_dashboard(self):
        with _fleet(replicas=2) as fleet:
            _drive(fleet, 3)
            doc = FleetView(fleet).fleet_doc()
        frame = render_dashboard(doc, color=False)
        assert fleet.graph.name in frame
        assert "replica" in frame or " id " in frame
        colored = render_dashboard(doc, color=True)
        assert "\x1b[" in colored

    def test_measured_peak_reported(self):
        with _fleet(replicas=2) as fleet:
            _drive(fleet, 4)
            doc = FleetView(fleet).fleet_doc()
            served = [r for r in doc["replicas"] if r["completed"] > 0]
            assert served
            assert all(r["measured_peak_bytes"] > 0 for r in served)


def _prom_samples(text: str) -> dict[tuple[str, frozenset], float]:
    """A Prometheus exposition as ``{(metric, labels): value}``."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            metric, _, labels, value = re.fullmatch(
                r"(\w+)(\{(.*)\})? (\S+)", line).groups()
            pairs = re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', labels or "")
            samples[metric, frozenset(pairs)] = float(value)
    return samples


class TestFleetzAgreesWithMetrics:
    """ROADMAP aim 4: the operator document and the Prometheus
    exposition are two renderings of the same state."""

    @pytest.fixture()
    def quiesced(self):
        with _fleet(replicas=2, host_budget="400%") as fleet:
            _drive(fleet, 8)
            # two requests shed inside replica 1: per-replica drops
            shedding = fleet.pool.replicas[1].server
            for _ in range(2):
                with pytest.raises(ServeError):
                    shedding.submit(_payload(fleet.graph),
                                    deadline_s=1e-9).result(timeout=10.0)
            yield fleet

    def test_every_replica_field_equals_its_labelled_family(self, quiesced):
        view = FleetView(quiesced)
        doc = view.fleet_doc()
        prom = _prom_samples(prometheus_text(view.merged_registry()))

        def family(metric, absent=None, **labels):
            return prom.get((f"repro_{metric}", frozenset(labels.items())),
                            absent)

        assert doc["fleet"]["completed"] == 8 \
            == family("fleet_completed_total")
        assert sum(r["completed"] for r in doc["replicas"]) >= 8
        for replica in doc["replicas"]:
            rid = str(replica["id"])
            # a counter exists from its first increment: an idle
            # replica has no family yet
            assert replica["completed"] == family("serve_completed_total",
                                                  0.0, replica=rid)
            for key, quantile in (("p50", "0.5"), ("p95", "0.95"),
                                  ("p99", "0.99")):
                assert replica["latency_ms"][key] == family(
                    "serve_latency_ms", 0.0, replica=rid, quantile=quantile)
            assert replica["queue_depth"] == family("serve_queue_depth",
                                                    replica=rid)
            assert replica["measured_peak_bytes"] == family(
                "serve_measured_peak_bytes", 0.0, replica=rid)
            assert replica["planned_peak_bytes"] == family(
                "plan_planned_peak_bytes", replica=rid) > 0
            assert replica["budget_bytes"] == family("plan_budget_bytes",
                                                     replica=rid) > 0
            # the exposition keeps one label per family, so a replica's
            # drop reasons render as reason="<reason>.replica.<id>"
            dropped = sum(
                value for (metric, labels), value in prom.items()
                if metric == "repro_serve_dropped_total"
                and dict(labels)["reason"].endswith(f".replica.{rid}"))
            assert sum(replica["drops"].values()) == dropped
        assert [r["drops"] for r in doc["replicas"]] \
            == [{}, {"deadline_expired": 2}]

    def test_one_document_is_one_stats_call_per_server(self, quiesced):
        calls = Counter()

        def counting(name, stats):
            def wrapper():
                calls[name] += 1
                return stats()
            return wrapper

        quiesced.stats = counting("router", quiesced.stats)
        for replica in quiesced.pool.replicas:
            replica.server.stats = counting(replica.id, replica.server.stats)
        FleetView(quiesced).fleet_doc()
        assert calls == {"router": 1, 0: 1, 1: 1}


class TestStitchedTrace:
    @pytest.fixture
    def hedged(self, fleet_timing):
        """``(stitched, own)``: the view's trace and the backend's own
        export of a 2-replica run whose slow replica forces hedges."""
        tracer = Tracer()
        fault = FaultPolicy(replica=0, kind="slow", after=1, slow_s=0.25)
        fleet_timing(HEDGE_DELAY_S=0.02)
        with use_tracer(tracer):
            fleet = _fleet(replicas=2, fault=fault)
        with fleet:
            _drive(fleet, 6)
        tracer.decision("test_pass", "value", "accept")
        # the closed fleet records nothing more: both exports see the
        # same tracer state
        return FleetView(fleet).stitched_trace(), to_chrome_trace(tracer)

    def test_carries_every_event_kind_of_the_backend_trace(self, hedged):
        stitched, own = hedged

        def kinds(trace):
            return Counter((e["ph"], e["name"]) for e in trace["traceEvents"]
                           if e["ph"] != "M"
                           and e["name"] != "fleet.cross_replica")

        assert kinds(stitched) == kinds(own)
        present = {(e["ph"], e["name"]) for e in stitched["traceEvents"]}
        # request waterfall lanes, the fan-in / routing arrows, decisions
        assert {("b", "request"), ("b", "queue_wait"), ("b", "execute"),
                ("e", "request"), ("s", "serve.request"),
                ("f", "serve.request"), ("s", "fleet.request"),
                ("f", "fleet.request"), ("C", "memory"),
                ("i", "test_pass:value")} <= present
        assert stitched["otherData"] == own["otherData"]

    def test_spans_and_flow_endpoints_sit_on_their_replica_row(self, hedged):
        stitched, _ = hedged
        events = stitched["traceEvents"]
        rows = {e["tid"]: e["args"]["name"] for e in events
                if e["name"] == "thread_name"}
        assert rows[0] == "fleet"
        moved = [e for e in events if e["ph"] in ("X", "s", "f")
                 and e["name"] != "fleet.cross_replica"]
        assert {e["name"] for e in moved} >= {"serve.batch", "serve.request"}
        for event in moved:
            replica = event["args"].get("replica")
            assert rows[event["tid"]] == (
                "fleet" if replica is None else f"replica-{replica}")

    def test_replica_rows_and_cross_replica_flows(self, hedged):
        trace, _ = hedged
        assert trace is not None
        events = trace["traceEvents"]
        rows = {e["args"]["name"] for e in events
                if e.get("name") == "thread_name"}
        assert "fleet" in rows
        assert any(r.startswith("replica-") for r in rows)
        # the slow fault forces hedges: those requests touch two
        # replicas and get stitched with flow arrows
        flows = [e for e in events if e.get("ph") in ("s", "f")
                 and e.get("name") == "fleet.cross_replica"]
        assert flows, "hedged requests must produce cross-replica arrows"
        starts = sum(1 for e in flows if e["ph"] == "s")
        finishes = sum(1 for e in flows if e["ph"] == "f")
        assert starts == finishes > 0

    def test_untraced_backend_has_no_stitched_trace(self):
        with _fleet(replicas=2) as fleet:
            assert FleetView(fleet).stitched_trace() is None


class TestFleetzEndpoint:
    def _get(self, port, path):
        req = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
        try:
            with urllib.request.urlopen(req, timeout=10.0) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_fleetz_serves_the_doc(self):
        with _fleet(replicas=2) as fleet:
            _drive(fleet, 3)
            fleet.view = FleetView(fleet)
            with serve_http(fleet, port=0) as frontend:
                status, doc = self._get(frontend.address[1], "/fleetz")
        assert status == 200
        assert doc["fleet"]["completed"] == 3
        assert len(doc["replicas"]) == 2

    def test_fleetz_404_without_a_view(self):
        g = make_chain_graph(batch=4)
        with InferenceServer(g, ServerConfig(max_wait_s=0.0)) as server:
            with serve_http(server, port=0) as frontend:
                status, doc = self._get(frontend.address[1], "/fleetz")
        assert status == 404
        assert "fleet view" in doc["error"]


class TestEverySLOViewAgrees:
    """ROADMAP aim 4, for the SLO surface: ``GET /slo``, the ``slo.*``
    gauges on ``GET /metrics``, the ``slo`` section of ``GET /fleetz``
    and ``LoadgenReport.slo`` are four renderings of one monitor."""

    SPECS = ["availability:0.9", "availability:0.5:5",
             "latency:10000:0.5",  # every served request is inside 10 s
             "latency:0.000001:0.5:30"]  # ... and none inside a nanosecond
    FIELDS = ("burn_rate", "good_ratio", "events", "healthy")

    def _check(self, build):
        now = [0.0]
        monitor = SLOMonitor(parse_slos(self.SPECS), clock=lambda: now[0])
        # scripted outcomes on the injected clock: the first four have
        # aged out of the 5 s window (not the 30 / 60 s ones) by t = 20
        for latency_s, ok in [(None, False), (0.004, True), (30.0, True),
                              (None, False)]:
            monitor.record(latency_s, ok=ok)
        now[0] = 20.0
        monitor.record(0.002)
        monitor.record(ok=False)
        with build(monitor) as backend:
            backend.view = FleetView(backend)
            report = run_loadgen(backend, LoadgenConfig(requests=6,
                                                        concurrency=2))
            with serve_http(backend, port=0) as frontend:
                bodies = {}
                for path in ("/slo", "/fleetz", "/metrics"):
                    with urllib.request.urlopen(
                            f"http://127.0.0.1:{frontend.address[1]}{path}",
                            timeout=10.0) as resp:
                        bodies[path] = resp.read()
        assert report.errors == 0 and report.completed == 6
        assert len(report.slo) == len(self.SPECS)
        prom = _prom_samples(bodies["/metrics"].decode())
        views = {path: {s["name"]: s for s in json.loads(bodies[path])["slo"]}
                 for path in ("/slo", "/fleetz")}
        for want in report.slo:
            name = want["name"]
            for field in self.FIELDS:
                assert views["/slo"][name][field] == want[field]
                assert views["/fleetz"][name][field] == want[field]
                gauge = prometheus_metric_name(f"slo.{name}.{field}")
                assert prom[gauge, frozenset()] == float(want[field])
        by_name = {s["name"]: s for s in report.slo}
        # the script and the run both show: 6 scripted + 6 served events
        assert by_name["availability_90"]["events"] == 12
        assert by_name["availability_50"]["events"] == 8  # 4 aged out
        assert by_name["latency_10000ms_50"]["good_ratio"] == 8 / 12  # 30 s is late
        assert not by_name["latency_1e-06ms_50"]["healthy"]

    def test_on_one_server(self):
        self._check(lambda slo: InferenceServer(
            make_chain_graph(batch=4), ServerConfig(max_wait_s=0.0), slo=slo))

    def test_on_a_two_replica_fleet(self):
        self._check(lambda slo: Router(ReplicaPool(
            make_chain_graph(batch=4), PoolConfig(
                replicas=2, server=ServerConfig(max_wait_s=0.0))), slo=slo))
