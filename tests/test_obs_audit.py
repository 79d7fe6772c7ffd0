"""Conformance auditor: clean passes, injected faults, arena track."""

import dataclasses

import pytest

from repro.bench import harness
from repro.core import estimate_peak_internal, simulate
from repro.models import build_model
from repro.obs import Tracer, use_tracer
from repro.obs import audit as audit_module
from repro.obs.audit import (AuditFinding, audit_budgeted, audit_graph,
                             audit_model, event_findings)
from repro.plan import SpillStoreError, plan_memory
from repro.plan.store import SpillStore


class TestAuditGraph:
    def test_zoo_model_passes_clean(self):
        from repro.models import build_model
        graph = build_model("alexnet", batch=2, hw=32)
        audit = audit_graph(graph, model="alexnet", variant="original")
        assert audit.passed, [f.message for f in audit.findings]
        assert audit.measured_peak_bytes == audit.predicted_peak_bytes
        assert audit.deviation_pct == 0.0
        assert audit.measured_peak_bytes <= audit.arena_lower_bound_bytes
        assert audit.arena_lower_bound_bytes <= audit.arena_bytes
        assert audit.ledger_events > 0

    def test_to_dict_round_trips_the_essentials(self):
        from repro.models import build_model
        graph = build_model("alexnet", batch=1, hw=32)
        doc = audit_graph(graph, model="alexnet").to_dict()
        assert doc["passed"] is True
        assert doc["measured_peak_bytes"] == doc["predicted_peak_bytes"]
        assert doc["findings"] == []

    def test_tolerance_validates_exactness_not_slack(self):
        # tolerance is a *bound*: a 0.0 default must still pass because
        # the executor implements the liveness model exactly
        from repro.models import build_model
        graph = build_model("unet_small", batch=2, hw=32)
        audit = audit_graph(graph, tolerance=0.0)
        assert audit.passed


class TestAuditModel:
    def test_original_and_optimized_both_audited(self):
        result = audit_model("alexnet", batch=2, hw=32)
        assert result.passed
        assert result.original.variant == "original"
        assert result.optimized.variant != "original"
        assert (result.optimized.measured_peak_bytes
                < result.original.measured_peak_bytes)
        assert result.reduction_pct > 0.0

    def test_no_reduction_cross_check_fires(self, monkeypatch):
        # the "best" variant is the original itself: equal peaks demote
        # to a warning, not an error
        monkeypatch.setattr(harness, "variant_names_for",
                            lambda model: ["original"])
        result = audit_model("alexnet", batch=2, hw=32)
        assert [(f.kind, f.severity) for f in result.findings] \
            == [("no_reduction", "warning")]
        assert result.passed

    def test_raised_peak_is_a_no_reduction_error(self, monkeypatch):
        # the variants swapped: the "optimized" graph is the original
        real = harness.build_variants

        def swapped(model, **kwargs):
            vs = real(model, **kwargs)
            best = harness.variant_names_for(model)[-1]
            vs.graphs["original"], vs.graphs[best] = \
                vs.graphs[best], vs.graphs["original"]
            return vs

        monkeypatch.setattr(harness, "build_variants", swapped)
        result = audit_model("alexnet", batch=2, hw=32)
        assert [(f.kind, f.severity) for f in result.findings] \
            == [("no_reduction", "error")]
        assert not result.passed


class TestLedgerFindings:
    def test_corrupted_ledger_becomes_error_finding(self):
        graph = build_model("alexnet", batch=1, hw=32)
        predicted = simulate(graph).events
        ledger = list(predicted)
        ledger[1] = ledger[1]._replace(live_bytes=999)  # lies about the total
        [finding] = event_findings(graph, predicted, ledger, subject="t")
        assert isinstance(finding, AuditFinding)
        assert (finding.kind, finding.severity, finding.subject) \
            == ("event_mismatch", "error", "t")
        assert (finding.measured, finding.expected) \
            == (999, predicted[1].live_bytes)
        assert event_findings(graph, predicted, list(predicted)) == []

    def test_tolerance_applies_to_live_bytes_only(self):
        graph = build_model("alexnet", batch=1, hw=32)
        predicted = simulate(graph).events
        ledger = list(predicted)
        ledger[1] = ledger[1]._replace(live_bytes=ledger[1].live_bytes + 1)
        assert event_findings(graph, predicted, ledger, tolerance=0.5) == []
        ledger[1] = ledger[1]._replace(value="other")
        assert event_findings(graph, predicted, ledger, tolerance=0.5)


class TestInjectedFaults:
    """Every finding kind, fired by the real audit on an injected fault
    (``arena_overlap`` is in ``test_runtime_arena.py``, the
    ``event_mismatch`` tampers in ``test_runtime_ledger.py``)."""

    @staticmethod
    def _kinds(audit):
        return [f.kind for f in audit.findings]

    def _with_arena(self, monkeypatch, graph, **changes):
        real = audit_module.plan_arena(graph)
        monkeypatch.setattr(audit_module, "plan_arena",
                            lambda g: dataclasses.replace(real, **changes))
        return audit_graph(graph)

    def test_arena_overflow(self, monkeypatch):
        graph = build_model("alexnet", batch=1, hw=32)
        peak = estimate_peak_internal(graph)
        audit = self._with_arena(monkeypatch, graph, arena_bytes=peak - 1)
        assert self._kinds(audit) == ["arena_overflow"]
        assert audit.findings[0].measured == peak

    def test_arena_lower_bound(self, monkeypatch):
        graph = build_model("alexnet", batch=1, hw=32)
        peak = estimate_peak_internal(graph)
        audit = self._with_arena(monkeypatch, graph,
                                 peak_lower_bound=peak - 1)
        assert self._kinds(audit) == ["arena_lower_bound"]

    @pytest.fixture
    def wavenet(self):
        graph = build_model("wavenet2d", batch=1, hw=16)
        return graph, int(0.6 * estimate_peak_internal(graph))

    def test_budget_exceeded(self, monkeypatch, wavenet):
        # the enforcer runs a plan that never aimed at the budget
        graph, budget = wavenet
        monkeypatch.setattr("repro.plan.plan_memory",
                            lambda g, b: plan_memory(g, None))
        audit = audit_budgeted(graph, budget)
        assert self._kinds(audit) == ["budget_exceeded"]

    def test_output_divergence(self, monkeypatch, wavenet):
        graph, budget = wavenet
        real = audit_module.execute

        def corrupted(graph, inputs, **kwargs):
            result = real(graph, inputs, **kwargs)
            if kwargs.get("plan") is not None:
                for array in result.outputs.values():
                    array.flat[0] += 1.0
            return result

        monkeypatch.setattr(audit_module, "execute", corrupted)
        audit = audit_budgeted(graph, budget)
        assert self._kinds(audit) == ["output_divergence"]

    def test_failed_spill_is_an_event_mismatch(self, monkeypatch, wavenet):
        # a spill write that fails keeps the tensor resident: the run
        # stays correct but leaves the planned event list at that spill
        graph, budget = wavenet

        def broken(self, name, array):
            raise SpillStoreError("disk full")

        monkeypatch.setattr(SpillStore, "put", broken)
        audit = audit_budgeted(graph, budget)
        assert "event_mismatch" in self._kinds(audit)
        [finding] = [f for f in audit.findings if f.kind == "event_mismatch"]
        assert "predicted spill" in finding.message

    def test_infeasible_budget(self, wavenet):
        graph, _ = wavenet
        audit = audit_budgeted(graph, 4096)
        assert self._kinds(audit) == ["infeasible_budget"]


class TestArenaTrack:
    def test_audit_emits_aligned_arena_counter_track(self):
        from repro.models import build_model
        graph = build_model("alexnet", batch=2, hw=32)
        tracer = Tracer()
        with use_tracer(tracer):
            audit = audit_graph(graph, model="alexnet")
        assert audit.passed
        arena_samples = [s for s in tracer.counters if s.track == "arena"]
        assert arena_samples, "audit under a tracer must emit the arena track"
        occupied = [s.values["occupied_bytes"] for s in arena_samples]
        assert max(occupied) == audit.arena_lower_bound_bytes
        assert all(s.values["arena_bytes"] == audit.arena_bytes
                   for s in arena_samples)
        # samples are timestamped inside the recorded span window
        span_end = max(s.start_us + s.duration_us for s in tracer.spans)
        assert all(0 <= s.ts_us <= span_end for s in arena_samples)
        verdicts = [i for i in tracer.instants if i.name == "audit_verdict"]
        assert len(verdicts) == 1 and verdicts[0].args["passed"] is True

    def test_no_tracer_no_track(self):
        from repro.models import build_model
        graph = build_model("alexnet", batch=1, hw=32)
        audit = audit_graph(graph)  # ambient tracer is the no-op
        assert audit.passed


class TestDeviationPct:
    def test_zero_predicted_peak_edge(self):
        audit_zero = pytest.importorskip("repro.obs.audit")
        ga = audit_zero.GraphAudit(
            model="m", variant="v", graph_name="g",
            measured_peak_bytes=0, predicted_peak_bytes=0,
            arena_bytes=0, arena_lower_bound_bytes=0,
            ledger_events=0, num_allocations=0)
        assert ga.deviation_pct == 0.0
        assert ga.passed
