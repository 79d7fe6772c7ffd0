"""The `repro top` / `repro diag` CLI and loadgen anomaly flags."""

import json
import tarfile

import pytest

from repro.cli import main
from repro.fleet import Router  # noqa: F401 — fleet import sanity
from repro.ir import save_graph
from repro.obs import FleetView
from repro.serve import serve_http

from _graph_fixtures import make_chain_graph
from test_fleet_router import _fleet, _payload

pytestmark = pytest.mark.usefixtures("fleet_timing")


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "chain.npz"
    save_graph(make_chain_graph(batch=4), path)
    return str(path)


class TestTopCommand:
    def test_once_json_reports_the_fleet(self, capsys):
        with _fleet(replicas=2) as fleet:
            for i in range(4):
                fleet.infer(_payload(fleet.graph, seed=i), timeout=30.0)
            fleet.view = FleetView(fleet)
            with serve_http(fleet, port=0) as frontend:
                url = f"http://127.0.0.1:{frontend.address[1]}/fleetz"
                assert main(["top", "--url", url, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fleet"]["completed"] == 4
        assert {r["id"] for r in doc["replicas"]} == {0, 1}
        for replica in doc["replicas"]:
            assert "qps" in replica and "attempt_p95_ms" in replica

    def test_once_renders_a_frame(self, capsys):
        with _fleet(replicas=2) as fleet:
            fleet.infer(_payload(fleet.graph), timeout=30.0)
            fleet.view = FleetView(fleet)
            with serve_http(fleet, port=0) as frontend:
                url = f"http://127.0.0.1:{frontend.address[1]}/fleetz"
                assert main(["top", "--url", url, "--once",
                             "--no-color"]) == 0
        out = capsys.readouterr().out
        assert fleet.graph.name in out
        assert "\x1b[" not in out  # --no-color means no ANSI

    def test_unreachable_endpoint_exits_nonzero(self, capsys):
        rc = main(["top", "--url", "http://127.0.0.1:9/fleetz",
                   "--once", "--timeout", "0.5"])
        assert rc == 1
        assert "cannot fetch" in capsys.readouterr().err


class TestDiagCommand:
    def test_single_server_bundle(self, graph_file, tmp_path, capsys):
        out = tmp_path / "diag.tar.gz"
        assert main(["diag", graph_file, "--requests", "4",
                     "-o", str(out)]) == 0
        with tarfile.open(out) as tar:
            members = set(tar.getnames())
            assert {"MANIFEST.json", "fleetz.json", "timeseries.json",
                    "metrics.prom", "slo.json", "anomalies.json",
                    "config.json", "trace.json"} <= members
            manifest = json.loads(
                tar.extractfile("MANIFEST.json").read())
            fleetz = json.loads(tar.extractfile("fleetz.json").read())
            prom = tar.extractfile("metrics.prom").read().decode()
        assert sorted(manifest["members"]) == sorted(members)
        assert fleetz["fleet"]["completed"] == 4
        assert "repro_build_info" in prom
        assert "wrote diag bundle" in capsys.readouterr().out

    def test_fleet_bundle_stitches_replica_rows(self, graph_file, tmp_path):
        out = tmp_path / "fleet-diag.tar.gz"
        assert main(["diag", graph_file, "--replicas", "2",
                     "--requests", "4", "-o", str(out)]) == 0
        with tarfile.open(out) as tar:
            trace = json.loads(tar.extractfile("trace.json").read())
            fleetz = json.loads(tar.extractfile("fleetz.json").read())
        rows = {e["args"]["name"] for e in trace["traceEvents"]
                if e.get("name") == "thread_name"}
        assert "fleet" in rows
        assert any(r.startswith("replica-") for r in rows)
        assert len(fleetz["replicas"]) == 2

    def test_fleet_rejects_per_replica_budget(self, graph_file, capsys):
        assert main(["diag", graph_file, "--replicas", "2",
                     "--budget", "90%"]) == 2
        assert "--host-budget" in capsys.readouterr().err


class TestLoadgenAnomalyFlags:
    def test_detect_anomalies_lands_in_json(self, graph_file, capsys):
        assert main(["loadgen", graph_file, "--fleet", "2",
                     "--requests", "6", "--concurrency", "2",
                     "--detect-anomalies", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "anomalies" in doc
        assert isinstance(doc["anomalies"], list)

    def test_fail_on_anomaly_passes_on_healthy_run(self, graph_file, capsys):
        assert main(["loadgen", graph_file, "--requests", "6",
                     "--concurrency", "2", "--fail-on-anomaly",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["errors"] == 0

    def test_without_flag_no_anomalies_key(self, graph_file, capsys):
        assert main(["loadgen", graph_file, "--requests", "4",
                     "--concurrency", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "anomalies" not in doc
