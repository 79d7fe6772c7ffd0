"""The repro fleet / --fleet CLI surface, plus graceful serve shutdown."""

import json
import signal
import threading

import pytest

from repro.cli import main

from test_obs_prometheus import parse_exposition


class TestLoadgenFleet:
    def test_fleet_loadgen_json(self, capsys):
        assert main(["loadgen", "unet_small", "--batch", "2", "--hw", "16",
                     "--fleet", "2", "--host-budget", "100%",
                     "--requests", "8", "--concurrency", "4",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["completed"] == 8 and doc["errors"] == 0
        assert doc["server"]["fleet.completed"] == 8
        assert doc["server"]["fleet.replicas"] == 2.0

    def test_fleet_loadgen_survives_kill_fault(self, capsys, tmp_path):
        metrics_out = tmp_path / "fleet.metrics"
        # least-outstanding routing breaks ties toward replica 0, so its
        # first routed request fires the fault whatever the concurrency
        assert main(["loadgen", "unet_small", "--batch", "2", "--hw", "16",
                     "--fleet", "3", "--fault", "0:kill:1",
                     "--requests", "12", "--concurrency", "4",
                     "--metrics-out", str(metrics_out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["completed"] == 12 and doc["errors"] == 0
        assert doc["server"]["fleet.faults.reason.kill"] == 1
        samples = parse_exposition(metrics_out.read_text())
        assert ("repro_fleet_faults_total", '{reason="kill"}') in samples
        assert any(name == "repro_build_info" for name, _ in samples)

    def test_fleet_rejects_per_replica_budget_flag(self, capsys):
        assert main(["loadgen", "unet_small", "--batch", "2", "--hw", "16",
                     "--fleet", "2", "--budget", "90%",
                     "--requests", "2"]) == 2
        err = capsys.readouterr().err
        assert "--host-budget" in err

    def test_infeasible_host_budget_fails_cleanly(self, capsys):
        assert main(["loadgen", "unet_small", "--batch", "2", "--hw", "16",
                     "--fleet", "2", "--host-budget", "1KB",
                     "--requests", "2"]) == 1
        assert "infeasible" in capsys.readouterr().err.lower()


class TestFleetCommand:
    def test_fleet_serves_for_duration(self, capsys):
        assert main(["fleet", "unet_small", "--batch", "2", "--hw", "16",
                     "--replicas", "2", "--host-budget", "100%",
                     "--port", "0", "--duration", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "replicas" in out and "metrics" in out

    def test_fleet_rejects_per_replica_budget_flag(self, capsys):
        assert main(["fleet", "unet_small", "--batch", "2", "--hw", "16",
                     "--budget", "90%", "--duration", "0.1",
                     "--port", "0"]) == 2
        assert "--host-budget" in capsys.readouterr().err


class TestServeGracefulShutdown:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_signal_drains_and_exits_zero(self, signum, capsys):
        # pytest runs in the main thread, so the handler installs; the
        # timer then delivers the signal mid-serve as an init system would
        timer = threading.Timer(
            0.3, lambda: signal.raise_signal(signum))
        timer.start()
        try:
            assert main(["serve", "unet_small", "--batch", "2", "--hw",
                         "16", "--port", "0"]) == 0
        finally:
            timer.cancel()
        assert "drain" in capsys.readouterr().err.lower()

    def test_duration_still_bounds_the_run(self, capsys):
        assert main(["serve", "unet_small", "--batch", "2", "--hw", "16",
                     "--port", "0", "--duration", "0.2"]) == 0
