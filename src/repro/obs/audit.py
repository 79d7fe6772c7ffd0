"""Memory-conformance auditor: every claim about memory, checked.

TeMCO's value proposition is a *memory* claim, so this module holds the
runtime to one bar: what the static model *predicts* and what the
allocator *measures* must agree.

There is one prediction and one measurement, and both are the same
list of :class:`~repro.core.liveness.LedgerEvent` tuples:
:func:`repro.core.liveness.simulate` (the general-graph form of the
paper's Eq. 3/4) predicts the allocator's events, and a run with the
ledger on records them.  :func:`audit_graph` makes one comparison,
event by event — action, tensor, bytes, node and running live total —
and names the first event where they part (``event_mismatch``).  A
wrong total, a wrong size, a missing, extra or reordered free and a
free of the wrong tensor all surface there.

Every violation is a typed :class:`AuditFinding`; a graph *passes*
when no error-severity finding was raised.  :func:`audit_model` audits
a zoo model's original **and** TeMCO-optimized graphs and additionally
checks the optimization actually lowered the measured peak.  The CLI
surface is ``repro memcheck`` (see ``docs/memory_auditing.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from ..core.liveness import LedgerEvent, simulate
from ..data.synthetic import random_inputs
from ..ir.graph import Graph
from ..runtime.executor import execute
from .tracer import get_tracer

__all__ = ["AuditFinding", "GraphAudit", "ModelAudit", "BudgetAudit",
           "event_findings", "audit_graph", "audit_model", "audit_zoo",
           "audit_budgeted"]


@dataclass(frozen=True)
class AuditFinding:
    """One typed mismatch diagnostic.

    ``kind`` is machine-readable: ``event_mismatch``,
    ``no_reduction``, and — from the budgeted audit
    (:func:`audit_budgeted`) — ``infeasible_budget``,
    ``budget_exceeded``, ``output_divergence``.
    ``severity`` is ``error`` (fails the audit) or ``warning``
    (reported only).
    """

    kind: str
    severity: str
    subject: str
    message: str
    measured: float | None = None
    expected: float | None = None


@dataclass
class GraphAudit:
    """Conformance verdict for one graph (one variant of one model)."""

    model: str
    variant: str
    graph_name: str
    measured_peak_bytes: int
    predicted_peak_bytes: int
    ledger_events: int
    num_allocations: int
    findings: list[AuditFinding] = field(default_factory=list)

    @property
    def errors(self) -> list[AuditFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def passed(self) -> bool:
        return not self.errors

    @property
    def deviation_pct(self) -> float:
        """Relative measured-vs-predicted disagreement, in percent."""
        if not self.predicted_peak_bytes:
            return 0.0 if not self.measured_peak_bytes else float("inf")
        return abs(self.measured_peak_bytes - self.predicted_peak_bytes) \
            / self.predicted_peak_bytes * 100.0

    def to_dict(self) -> dict:
        return {
            "model": self.model, "variant": self.variant,
            "graph": self.graph_name,
            "measured_peak_bytes": self.measured_peak_bytes,
            "predicted_peak_bytes": self.predicted_peak_bytes,
            "ledger_events": self.ledger_events,
            "num_allocations": self.num_allocations,
            "passed": self.passed,
            "findings": [vars(f) for f in self.findings],
        }


@dataclass
class ModelAudit:
    """Original + optimized audits of one zoo model, plus cross-checks."""

    model: str
    original: GraphAudit
    optimized: GraphAudit
    findings: list[AuditFinding] = field(default_factory=list)

    @property
    def reduction_pct(self) -> float:
        base = self.original.measured_peak_bytes
        if not base:
            return 0.0
        return (1.0 - self.optimized.measured_peak_bytes / base) * 100.0

    @property
    def passed(self) -> bool:
        return (self.original.passed and self.optimized.passed
                and not any(f.severity == "error" for f in self.findings))

    def all_findings(self) -> list[AuditFinding]:
        return (self.original.findings + self.optimized.findings
                + self.findings)

    def to_dict(self) -> dict:
        return {"model": self.model, "passed": self.passed,
                "reduction_pct": self.reduction_pct,
                "original": self.original.to_dict(),
                "optimized": self.optimized.to_dict(),
                "findings": [vars(f) for f in self.findings]}


def _describe(event: LedgerEvent | None) -> str:
    if event is None:
        return "no event"
    return (f"{event.action} {event.value!r} {event.nbytes} B "
            f"-> {event.live_bytes} live B")


def event_findings(graph: Graph, predicted: list[LedgerEvent],
                   measured: list[LedgerEvent], *,
                   subject: str = "") -> list[AuditFinding]:
    """The first event where ``measured`` leaves ``predicted``, as one
    ``event_mismatch`` finding (none when the lists agree).  Events
    compare exactly — node, action, tensor, bytes and running live
    total: the refcounting executor implements the liveness model, so
    there is no slack to allow.  Later events inherit the first
    divergence, so only that one is reported."""
    for i, (want, got) in enumerate(zip_longest(predicted, measured)):
        if want == got:
            continue
        index = (want or got).node_index
        where = (graph.nodes[index].name if 0 <= index < len(graph.nodes)
                 else "input binding" if index == -1 else f"index {index}")
        return [AuditFinding(
            kind="event_mismatch", severity="error", subject=subject,
            message=(f"event {i} (node {index}, {where}): predicted "
                     f"{_describe(want)}, measured {_describe(got)}"),
            measured=got.live_bytes if got else None,
            expected=want.live_bytes if want else None)]
    return []


def audit_graph(graph: Graph, inputs: dict[str, np.ndarray] | None = None, *,
                model: str = "", variant: str = "",
                seed: int = 0) -> GraphAudit:
    """Execute ``graph`` with the ledger on and check it against the
    events :func:`~repro.core.liveness.simulate` predicts, exactly (see
    the module docstring)."""
    if inputs is None:
        inputs = random_inputs(graph, seed)
    tracer = get_tracer()

    with tracer.span("audit", category="obs", graph=graph.name):
        result = execute(graph, inputs, record_ledger=True)
    profile = result.memory
    ledger = profile.ledger
    subject = graph.name or model
    schedule = simulate(graph)
    findings = event_findings(graph, schedule.events, ledger, subject=subject)

    measured = profile.peak_internal_bytes
    predicted = schedule.peak_bytes
    if tracer.enabled:
        tracer.instant(
            "audit_verdict", category="obs", graph=subject,
            passed=not findings, measured_peak_bytes=measured,
            predicted_peak_bytes=predicted, findings=len(findings))

    return GraphAudit(
        model=model, variant=variant, graph_name=graph.name,
        measured_peak_bytes=measured, predicted_peak_bytes=predicted,
        ledger_events=len(ledger),
        num_allocations=profile.num_allocations,
        findings=findings)


@dataclass
class BudgetAudit:
    """Conformance verdict for one budget-enforced run of one graph.

    The budgeted run must honour four claims at once: the plan is
    feasible, the *measured* peak stays at or under the budget, the
    ledger is the event list :func:`repro.core.liveness.simulate`
    predicts for the plan (the byte-exact contract the planner plans
    against), and the outputs are bitwise identical to an unplanned
    run.
    """

    model: str
    graph_name: str
    budget_bytes: int
    baseline_peak_bytes: int
    planned_peak_bytes: int
    measured_peak_bytes: int
    spills: int
    spilled_bytes: int
    findings: list[AuditFinding] = field(default_factory=list)

    @property
    def errors(self) -> list[AuditFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def passed(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {
            "model": self.model, "graph": self.graph_name,
            "budget_bytes": self.budget_bytes,
            "baseline_peak_bytes": self.baseline_peak_bytes,
            "planned_peak_bytes": self.planned_peak_bytes,
            "measured_peak_bytes": self.measured_peak_bytes,
            "spills": self.spills,
            "spilled_bytes": self.spilled_bytes,
            "passed": self.passed,
            "findings": [vars(f) for f in self.findings],
        }


def audit_budgeted(graph: Graph, budget_bytes: int,
                   inputs: dict[str, np.ndarray] | None = None, *,
                   model: str = "", seed: int = 0) -> BudgetAudit:
    """Plan ``graph`` to ``budget_bytes`` and verify the enforced run.

    Runs the graph twice — unplanned (the reference) and with the
    memory plan enforced and the ledger on — and cross-checks:

    1. **feasibility** — an infeasible budget is the typed
       ``infeasible_budget`` finding (with the planner's residual),
       not an exception,
    2. **budget** — the measured peak is ≤ ``budget_bytes``
       (``budget_exceeded``),
    3. **plan conformance** — the spill/prefetch-tagged ledger is
       the event list ``simulate(graph, actions=plan.buckets)``
       predicts, event for event (``event_mismatch``),
    4. **semantics** — every output is bitwise identical to the
       unplanned run (``output_divergence``).
    """
    from ..plan import InfeasibleBudget, plan_memory

    if inputs is None:
        inputs = random_inputs(graph, seed)
    subject = graph.name or model
    tracer = get_tracer()

    with tracer.span("budget_audit", category="obs", graph=graph.name,
                     budget_bytes=budget_bytes):
        reference = execute(graph, inputs)
        baseline_peak = reference.memory.peak_internal_bytes
        try:
            mplan = plan_memory(graph, budget_bytes)
        except InfeasibleBudget as exc:
            finding = AuditFinding(
                kind="infeasible_budget", severity="error", subject=subject,
                message=str(exc), measured=exc.predicted_peak_bytes,
                expected=budget_bytes)
            return BudgetAudit(
                model=model, graph_name=graph.name,
                budget_bytes=budget_bytes,
                baseline_peak_bytes=baseline_peak,
                planned_peak_bytes=exc.predicted_peak_bytes,
                measured_peak_bytes=0, spills=0, spilled_bytes=0,
                findings=[finding])
        result = execute(graph, inputs, plan=mplan, record_ledger=True)

    profile = result.memory
    measured = profile.peak_internal_bytes
    findings: list[AuditFinding] = []

    if measured > budget_bytes:
        findings.append(AuditFinding(
            kind="budget_exceeded", severity="error", subject=subject,
            message=(f"measured peak {measured} B exceeds the enforced "
                     f"budget of {budget_bytes} B"),
            measured=measured, expected=budget_bytes))
    findings += event_findings(
        graph, simulate(graph, actions=mplan.buckets).events,
        profile.ledger, subject=subject)
    for name, array in reference.outputs.items():
        if not np.array_equal(array, result.outputs[name]):
            findings.append(AuditFinding(
                kind="output_divergence", severity="error", subject=subject,
                message=(f"output {name!r} of the budgeted run is not "
                         f"bitwise identical to the unplanned run")))

    if tracer.enabled:
        tracer.instant(
            "budget_audit_verdict", category="obs", graph=subject,
            passed=not any(f.severity == "error" for f in findings),
            budget_bytes=budget_bytes, measured_peak_bytes=measured,
            planned_peak_bytes=mplan.planned_peak_bytes,
            spills=len(mplan.spills))

    stats = profile.plan_stats
    return BudgetAudit(
        model=model, graph_name=graph.name, budget_bytes=budget_bytes,
        baseline_peak_bytes=baseline_peak,
        planned_peak_bytes=mplan.planned_peak_bytes,
        measured_peak_bytes=measured,
        spills=stats.spills if stats else 0,
        spilled_bytes=stats.spilled_bytes if stats else 0,
        findings=findings)


def audit_model(model: str, *, batch: int = 2, hw: int | None = 32,
                ratio: float = 0.1, method: str = "tucker",
                seed: int = 0) -> ModelAudit:
    """Audit one zoo model: original graph, best TeMCO variant, and the
    cross-variant claim that optimization lowered the measured peak."""
    from ..bench.harness import build_variants, variant_names_for

    vs = build_variants(model, batch=batch, hw=hw, ratio=ratio, seed=seed,
                        method=method)
    best = variant_names_for(model)[-1]
    inputs = vs.input_batch(seed)
    original = audit_graph(vs.graphs["original"], inputs, model=model,
                           variant="original", seed=seed)
    optimized = audit_graph(vs.graphs[best], inputs, model=model,
                            variant=best, seed=seed)

    findings: list[AuditFinding] = []
    if optimized.measured_peak_bytes > original.measured_peak_bytes:
        findings.append(AuditFinding(
            kind="no_reduction", severity="error", subject=model,
            message=(f"optimized variant {best!r} measured "
                     f"{optimized.measured_peak_bytes} B, *above* the "
                     f"original's {original.measured_peak_bytes} B"),
            measured=optimized.measured_peak_bytes,
            expected=original.measured_peak_bytes))
    elif optimized.measured_peak_bytes == original.measured_peak_bytes:
        findings.append(AuditFinding(
            kind="no_reduction", severity="warning", subject=model,
            message=(f"optimized variant {best!r} did not lower the "
                     f"measured peak "
                     f"({original.measured_peak_bytes} B unchanged)"),
            measured=optimized.measured_peak_bytes,
            expected=original.measured_peak_bytes))
    return ModelAudit(model=model, original=original, optimized=optimized,
                      findings=findings)


def audit_zoo(models: list[str] | None = None, *, batch: int = 2,
              hw: int | None = 32, ratio: float = 0.1,
              method: str = "tucker", seed: int = 0) -> list[ModelAudit]:
    """Audit several zoo models (all of them by default)."""
    from ..models import MODEL_ZOO

    audits = []
    for model in models or list(MODEL_ZOO):
        audits.append(audit_model(model, batch=batch, hw=hw, ratio=ratio,
                                  method=method, seed=seed))
    return audits
