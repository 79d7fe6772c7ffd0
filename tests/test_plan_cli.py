"""The planner's user-facing surfaces: `repro plan`, `--budget` on
run/memcheck, and the /metrics counter names."""

import json

from repro.cli import main
from repro.obs import MetricsRegistry, prometheus_metric_name, prometheus_text

#: small-but-plannable CLI workload shared by every test here
WAVENET = ["wavenet2d", "--batch", "1", "--hw", "16"]


class TestPlanCommand:
    def test_table_lists_actions_and_totals(self, capsys):
        assert main(["plan", *WAVENET, "--budget", "60%"]) == 0
        out = capsys.readouterr().out
        assert "spill" in out
        assert "baseline peak" in out and "planned peak" in out
        assert "floor" in out

    def test_json_document_is_machine_parseable(self, capsys):
        assert main(["plan", *WAVENET, "--budget", "60%", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is True
        assert doc["planned_peak_bytes"] <= doc["budget_bytes"]
        assert doc["floor_bytes"] <= doc["planned_peak_bytes"]
        kinds = {a["kind"] for a in doc["actions"]}
        assert "spill" in kinds and "keep" in kinds

    def test_no_budget_is_the_analysis_view(self, capsys):
        assert main(["plan", *WAVENET, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["budget_bytes"] is None
        assert doc["planned_peak_bytes"] == doc["baseline_peak_bytes"]

    def test_infeasible_budget_fails_fast_with_residual(self, capsys):
        assert main(["plan", *WAVENET, "--budget", "10%"]) == 1
        err = capsys.readouterr().err
        assert "infeasible" in err and "residual" in err
        assert "floor" in err  # the hint telling the user what could fit

    def test_infeasible_budget_json_reports_residual(self, capsys):
        assert main(["plan", *WAVENET, "--budget", "10%", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is False
        assert doc["residual_bytes"] > 0

    def test_bad_budget_spelling_is_a_usage_error(self, capsys):
        assert main(["plan", *WAVENET, "--budget", "banana"]) == 2
        assert "budget" in capsys.readouterr().err


class TestRunWithBudget:
    def test_budgeted_run_reports_within_budget(self, capsys):
        assert main(["run", *WAVENET, "--repeats", "1",
                     "--budget", "60%"]) == 0
        out = capsys.readouterr().out
        assert "budgeted peak" in out and "within budget" in out
        assert "spill" in out

    def test_infeasible_budget_aborts_the_run(self, capsys):
        assert main(["run", *WAVENET, "--repeats", "1",
                     "--budget", "10%"]) == 1
        assert "infeasible" in capsys.readouterr().err


class TestMemcheckBudget:
    def test_budget_conformance_passes_on_the_long_skip_models(self, capsys):
        assert main(["memcheck", "wavenet2d", "fractalnet",
                     "--batch", "1", "--hw", "16", "--budget", "60%"]) == 0
        out = capsys.readouterr().out
        assert "PASS wavenet2d" in out and "PASS fractalnet" in out
        assert "memcheck passed" in out

    def test_budget_conformance_json(self, capsys):
        assert main(["memcheck", "wavenet2d", "--batch", "1",
                     "--hw", "16", "--budget", "60%", "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 1
        assert docs[0]["model"] == "wavenet2d"
        assert docs[0]["measured_peak_bytes"] <= docs[0]["budget_bytes"]
        assert docs[0]["findings"] == []

    def test_infeasible_budget_is_a_failed_audit(self, capsys):
        assert main(["memcheck", "wavenet2d", "--batch", "1",
                     "--hw", "16", "--budget", "1KiB"]) == 1
        out = capsys.readouterr().out
        assert "infeasible_budget" in out


class TestPlanMetricNames:
    def test_counters_expose_the_documented_prometheus_names(self):
        registry = MetricsRegistry()
        registry.inc("plan.spilled_bytes", 4096)
        registry.inc("plan.remat", 2)
        text = prometheus_text(registry)
        assert "repro_plan_spilled_bytes_total 4096" in text
        assert "repro_plan_remat_total 2" in text

    def test_name_conversion_is_stable(self):
        assert prometheus_metric_name("plan.spilled_bytes") == \
            "repro_plan_spilled_bytes"
        assert prometheus_metric_name("plan.remat") == "repro_plan_remat"

