"""Runtime enforcement of memory plans: budgeted runs stay bitwise
identical, the ledger measures exactly the planned peak, and the
budgeted conformance audit cross-checks the whole chain."""

import sys
import threading

import numpy as np
import pytest

from repro.bench import build_variants, variant_names_for
from repro.core import estimate_peak_internal, simulate
from repro.models import build_model
from repro.obs.audit import BudgetAudit, audit_budgeted
from repro.plan import InfeasibleBudget, plan_memory
from repro.runtime import InferenceSession
from repro.runtime.executor import execute

#: the two long-skip zoo models whose peak sits far above the
#: single-node floor — the acceptance models for `repro run --budget`
BUDGET_MODELS = ("wavenet2d", "fractalnet")


def _inputs_for(graph, seed=0):
    rng = np.random.default_rng(seed)
    return {v.name: rng.standard_normal(v.shape).astype(np.float32)
            for v in graph.inputs}


@pytest.fixture(scope="module", params=BUDGET_MODELS)
def budgeted_run(request):
    """One unplanned reference + one 60%-budget enforced run."""
    graph = build_model(request.param, batch=1, hw=32)
    inputs = _inputs_for(graph)
    reference = execute(graph, inputs)
    budget = int(0.60 * reference.memory.peak_internal_bytes)
    plan = plan_memory(graph, budget)
    planned = execute(graph, inputs, plan=plan, record_ledger=True)
    return graph, reference, budget, plan, planned


class TestBudgetedZooRuns:
    def test_outputs_bitwise_identical(self, budgeted_run):
        _, reference, _, _, planned = budgeted_run
        assert set(planned.outputs) == set(reference.outputs)
        for name, array in reference.outputs.items():
            assert np.array_equal(planned.outputs[name], array), name

    def test_measured_peak_within_budget(self, budgeted_run):
        _, reference, budget, _, planned = budgeted_run
        assert planned.memory.peak_internal_bytes <= budget
        assert planned.memory.peak_internal_bytes < \
            reference.memory.peak_internal_bytes

    def test_measured_peak_equals_planned_peak(self, budgeted_run):
        # the planner's simulation is byte-exact: the enforced ledger
        # must replay to exactly the predicted peak, not merely under it
        _, _, _, plan, planned = budgeted_run
        assert planned.memory.peak_internal_bytes == plan.planned_peak_bytes

    def test_ledger_replays_clean_with_plan_events(self, budgeted_run):
        graph, _, _, plan, planned = budgeted_run
        ledger = planned.memory.ledger
        assert ledger == simulate(graph, actions=plan.buckets).events
        actions = {e.action for e in ledger}
        assert "spill" in actions and "prefetch" in actions

    def test_plan_stats_account_for_every_action(self, budgeted_run):
        _, _, _, plan, planned = budgeted_run
        stats = planned.memory.plan_stats
        assert stats is not None
        assert stats.spills == len(plan.spills)
        assert stats.prefetches == stats.spills
        assert stats.spilled_bytes == plan.spilled_bytes
        assert stats.planned_peak_bytes == plan.planned_peak_bytes

    def test_ledger_alphabet_is_the_allocator_and_the_spill(self,
                                                            budgeted_run):
        # a plan only spills: nothing is dropped or recomputed mid-run
        _, _, _, _, planned = budgeted_run
        assert {e.action for e in planned.memory.ledger} <= {
            "alloc", "free", "scratch", "spill", "prefetch"}

    def test_remat_count_stays_zero(self, budgeted_run):
        # perfbench's traced form reads ``plan.remats``: the field stays
        # in the stats, and a spill-only plan always reports 0
        _, _, _, plan, planned = budgeted_run
        stats = planned.memory.plan_stats
        assert plan.spills
        assert stats.remats == 0
        assert stats.to_dict()["remats"] == 0


class TestSharedSession:
    """A session holds no per-run state, a budgeted one included: the
    spilled arrays of a run live in that run's enforcer, so two threads
    running one session can neither see nor clobber each other's."""

    RUNS = 100

    def test_two_threads_share_a_budgeted_and_an_unbudgeted_session(self):
        graph = build_model("wavenet2d", batch=1, hw=16)
        peak = estimate_peak_internal(graph)
        plan = plan_memory(graph, int(0.60 * peak))
        assert len(plan.spills) == 6
        sessions = {"budgeted": InferenceSession(graph, memory_plan=plan),
                    "unbudgeted": InferenceSession(graph)}
        planned_peak = {"budgeted": plan.planned_peak_bytes,
                        "unbudgeted": peak}
        payloads = [_inputs_for(graph, seed) for seed in range(2 * self.RUNS)]
        serial = [execute(graph, x).output().tobytes() for x in payloads]
        barrier = threading.Barrier(2)
        answers, errors = {}, []

        def worker(k):
            try:
                barrier.wait(timeout=30)
                for i in range(k * self.RUNS, (k + 1) * self.RUNS):
                    for kind, session in sessions.items():
                        result = session.run(payloads[i])
                        answers[kind, i] = (
                            result.output().tobytes(),
                            result.memory.peak_internal_bytes)
            except Exception as exc:  # surfaced below, not lost in the thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads within a run
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(answers) == 2 * len(payloads)
        for (kind, i), (output, measured) in answers.items():
            assert output == serial[i], (kind, i)
            assert measured == planned_peak[kind], (kind, i)


class TestOptimizedVariantSweep:
    """Every feasible plan of the TeMCO-optimized wavenet variant, over
    a sweep of budgets, executes bitwise-clean at its planned peak."""

    def test_every_feasible_plan_executes_identically(self):
        vs = build_variants("wavenet2d", batch=1, hw=16)
        best = variant_names_for("wavenet2d")[-1]
        graph = vs.graphs[best]
        inputs = vs.input_batch()
        reference = execute(graph, inputs)
        baseline = reference.memory.peak_internal_bytes
        feasible = 0
        for fraction in (0.95, 0.85, 0.75, 0.65, 0.60):
            try:
                plan = plan_memory(graph, int(fraction * baseline))
            except InfeasibleBudget:
                continue
            feasible += 1
            planned = execute(graph, inputs, plan=plan)
            for name, array in reference.outputs.items():
                assert np.array_equal(planned.outputs[name], array), \
                    (fraction, name)
            assert planned.memory.peak_internal_bytes == \
                plan.planned_peak_bytes, fraction
        assert feasible > 0  # the sweep must exercise at least one plan


class TestBudgetedAudit:
    def test_audit_passes_on_feasible_budget(self):
        graph = build_model("wavenet2d", batch=1, hw=16)
        budget = int(0.60 * estimate_peak_internal(graph))
        audit = audit_budgeted(graph, budget, model="wavenet2d")
        assert isinstance(audit, BudgetAudit)
        assert audit.passed, [f.message for f in audit.findings]
        assert audit.measured_peak_bytes <= budget
        assert audit.measured_peak_bytes == audit.planned_peak_bytes
        assert audit.spills > 0

    def test_audit_reports_infeasible_budget_as_typed_finding(self):
        graph = build_model("wavenet2d", batch=1, hw=16)
        audit = audit_budgeted(graph, 4096, model="wavenet2d")
        assert not audit.passed
        kinds = [f.kind for f in audit.findings]
        assert "infeasible_budget" in kinds

    def test_audit_to_dict_round_trips_the_verdict(self):
        graph = build_model("wavenet2d", batch=1, hw=16)
        budget = int(0.60 * estimate_peak_internal(graph))
        doc = audit_budgeted(graph, budget, model="wavenet2d").to_dict()
        for key in ("model", "budget_bytes", "planned_peak_bytes",
                    "measured_peak_bytes", "spills", "findings"):
            assert key in doc
