"""Memory-conformance auditor: every claim about memory, checked.

TeMCO's value proposition is a *memory* claim, so this module holds the
runtime to the bar the deployment-arena literature (Pisarchyk & Lee
2020; Occamy, DAC'23) uses for memory planners: the statically
*predicted* peak and the dynamically *measured* peak must agree, and
the measurement itself must be verifiable.

:func:`audit_graph` runs one inference with the allocation ledger on
and holds that one measurement against one prediction, the schedule
:func:`repro.core.liveness.simulate` replays (the general-graph form of
the paper's Eq. 3/4):

1. **ledger self-consistency** — the event log replays from zero to
   exactly the claimed totals (a corrupted or fabricated ledger fails),
2. **peak** — the allocator's peak equals the predicted peak within
   ``tolerance``, and is reached at the predicted schedule index,
3. **timeline** — every per-node live-byte sample equals the predicted
   one within ``tolerance``,
4. **arena size** — the measured max-live never exceeds the planned
   arena's total bytes, nor the plan's aligned lower bound,
5. **arena overlap** — with every slot's planned live interval replaced
   by the ledger's *measured* ``alloc_index..free_index``, no two
   tensors that were live together share arena bytes (what running the
   graph inside the arena would prove, without a second executor).

Every violation is a typed :class:`AuditFinding`; a graph *passes*
when no error-severity finding was raised.  :func:`audit_model` audits
a zoo model's original **and** TeMCO-optimized graphs and additionally
checks the optimization actually lowered the measured peak.  The CLI
surface is ``repro memcheck`` (see ``docs/memory_auditing.md``).

When a tracer is active, the audit also exports the planned **arena
occupancy** as a Chrome-trace counter track (``arena``), timestamped
against the executor's node spans so the measured ``memory`` track and
the planned occupancy render side by side in Perfetto.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core.liveness import simulate
from ..data.synthetic import random_inputs
from ..ir.graph import Graph
from ..runtime.allocator import AllocationError
from ..runtime.arena import ArenaPlan, plan_arena
from ..runtime.executor import execute
from ..runtime.memory_profile import MemoryProfile
from .tracer import get_tracer

__all__ = ["AuditFinding", "GraphAudit", "ModelAudit", "BudgetAudit",
           "audit_graph", "audit_model", "audit_zoo", "audit_budgeted",
           "ledger_findings", "DEFAULT_TOLERANCE"]

#: default relative tolerance for measured-vs-predicted peak agreement.
#: The refcounting executor implements exactly the liveness model, so
#: the documented contract is bit-exact agreement; the knob exists for
#: future backends whose allocation order may be timing-dependent.
DEFAULT_TOLERANCE = 0.0

MIB = 1024 * 1024


@dataclass(frozen=True)
class AuditFinding:
    """One typed mismatch diagnostic.

    ``kind`` is machine-readable: ``ledger_inconsistent``,
    ``peak_mismatch``, ``arena_overflow``, ``arena_lower_bound``,
    ``arena_overlap``, ``profile_mismatch``, ``no_reduction``, and —
    from the budgeted audit (:func:`audit_budgeted`) —
    ``infeasible_budget``,
    ``budget_exceeded``, ``plan_mismatch``, ``output_divergence``.
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
    arena_bytes: int
    arena_lower_bound_bytes: int
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
            "arena_bytes": self.arena_bytes,
            "arena_lower_bound_bytes": self.arena_lower_bound_bytes,
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


def ledger_findings(ledger, *, expected_peak: int | None = None,
                    keep: set[str] = frozenset(),
                    subject: str = "") -> list[AuditFinding]:
    """Wrap :meth:`AllocationLedger.verify` problems as typed findings."""
    return [AuditFinding(kind="ledger_inconsistent", severity="error",
                         subject=subject, message=problem)
            for problem in ledger.verify(expected_peak=expected_peak,
                                         keep=keep)]


def audit_graph(graph: Graph, inputs: dict[str, np.ndarray] | None = None, *,
                tolerance: float = DEFAULT_TOLERANCE, model: str = "",
                variant: str = "", seed: int = 0) -> GraphAudit:
    """Execute ``graph`` with the ledger on and check the measurement
    against the simulated schedule (see the module docstring for the
    five checks).  ``tolerance`` is the allowed relative deviation of a
    measured byte count from its prediction (0.0 = bit-exact, the
    default)."""
    if inputs is None:
        inputs = random_inputs(graph, seed)
    tracer = get_tracer()
    span_base = len(tracer.spans) if tracer.enabled else 0

    with tracer.span("audit", category="obs", graph=graph.name):
        result = execute(graph, inputs, record_ledger=True)
        plan = plan_arena(graph)
    profile = result.memory
    ledger = profile.ledger
    assert ledger is not None
    subject = graph.name or model

    findings: list[AuditFinding] = []

    # 1. ledger self-consistency (replay must reproduce every claimed
    #    total and the allocator's peak)
    findings += ledger_findings(
        ledger, expected_peak=profile.peak_internal_bytes,
        keep={v.name for v in graph.outputs}, subject=subject)

    def deviates(got: int, want: int) -> bool:
        return abs(got - want) > tolerance * want

    # 2. the peak, and where in the schedule it is first reached
    schedule = simulate(graph)
    measured = profile.peak_internal_bytes
    predicted = schedule.peak_bytes
    peak_at = next((e.node_index for e in ledger.events
                    if e.live_bytes == measured), -1)
    if deviates(measured, predicted) or (
            not tolerance and peak_at != schedule.peak_index):
        findings.append(AuditFinding(
            kind="peak_mismatch", severity="error", subject=subject,
            message=(f"measured peak {measured} B at schedule index "
                     f"{peak_at} disagrees with the simulated peak "
                     f"{predicted} B at index {schedule.peak_index} "
                     f"(tolerance {tolerance:.2%})"),
            measured=measured, expected=predicted))

    # 3. the per-node timeline, sample by sample
    timeline = [e.live_bytes for e in profile.events]
    for index, (got, want) in enumerate(zip(timeline, schedule.live)):
        if deviates(got, want):
            findings.append(AuditFinding(
                kind="profile_mismatch", severity="error", subject=subject,
                message=(f"node {index} ({graph.nodes[index].name}) measured "
                         f"{got} live B but the simulation gives {want} B"),
                measured=got, expected=want))
            break  # later samples inherit the first divergence

    # 4. measured max-live must fit the planned arena
    max_live = ledger.max_live_bytes
    if max_live > plan.arena_bytes:
        findings.append(AuditFinding(
            kind="arena_overflow", severity="error", subject=subject,
            message=(f"measured max-live {max_live} B exceeds the "
                     f"planned arena of {plan.arena_bytes} B"),
            measured=max_live, expected=plan.arena_bytes))
    if measured > plan.peak_lower_bound:
        findings.append(AuditFinding(
            kind="arena_lower_bound", severity="error", subject=subject,
            message=(f"measured peak {measured} B exceeds the arena "
                     f"plan's aligned lower bound "
                     f"{plan.peak_lower_bound} B — the plan and the "
                     f"measurement disagree about liveness"),
            measured=measured, expected=plan.peak_lower_bound))

    # 5. tensors measured live together must not share arena bytes
    last = len(graph.nodes) - 1
    lifetimes = {life.value: life for life in ledger.lifetimes()}
    measured_slots = []
    for slot in plan.slots:
        life = lifetimes[slot.value_name]
        measured_slots.append(replace(
            slot, begin=life.alloc_index,
            # never freed = a graph output, live to the end
            end=last if life.free_index is None else life.free_index))
    try:
        ArenaPlan(slots=measured_slots).validate()
    except AllocationError as exc:
        findings.append(AuditFinding(
            kind="arena_overlap", severity="error", subject=subject,
            message=f"under the measured lifetimes: {exc}"))

    if tracer.enabled:
        _emit_arena_track(tracer, plan, span_base)
        tracer.instant(
            "audit_verdict", category="obs", graph=subject,
            passed=not any(f.severity == "error" for f in findings),
            measured_peak_bytes=measured, predicted_peak_bytes=predicted,
            arena_bytes=plan.arena_bytes, findings=len(findings))

    return GraphAudit(
        model=model, variant=variant, graph_name=graph.name,
        measured_peak_bytes=measured, predicted_peak_bytes=predicted,
        arena_bytes=plan.arena_bytes,
        arena_lower_bound_bytes=plan.peak_lower_bound,
        ledger_events=len(ledger.events),
        num_allocations=profile.num_allocations,
        findings=findings)


def _emit_arena_track(tracer, plan: ArenaPlan, span_base: int) -> None:
    """Export the planned arena occupancy as the ``arena`` counter
    track, timestamped against the executor node spans recorded since
    ``span_base`` so planned and measured curves align on the trace
    timeline."""
    end_by_index: dict[int, float] = {}
    first_start = None
    for span in tracer.spans[span_base:]:
        index = span.args.get("index")
        if index is None:
            continue
        end_by_index[int(index)] = span.end_us
        if first_start is None or span.start_us < first_start:
            first_start = span.start_us
    if not end_by_index:
        return
    for index, occupied in plan.occupancy_series():
        ts = end_by_index.get(index)
        if ts is None:  # index -1: graph inputs, before the first node
            ts = (first_start or 0.0) if index < 0 else None
        if ts is None:
            continue
        tracer.counter("arena", ts_us=ts, occupied_bytes=occupied,
                       arena_bytes=plan.arena_bytes)


@dataclass
class BudgetAudit:
    """Conformance verdict for one budget-enforced run of one graph.

    The budgeted run must honour four claims at once: the plan is
    feasible, the *measured* ledger peak stays at or under the budget,
    the measured peak lands exactly on the planner's simulated peak
    (the byte-exact contract of :func:`repro.core.liveness.simulate`), and
    the outputs are bitwise identical to an unplanned run.
    """

    model: str
    graph_name: str
    budget_bytes: int
    baseline_peak_bytes: int
    planned_peak_bytes: int
    measured_peak_bytes: int
    spills: int
    remats: int
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
            "spills": self.spills, "remats": self.remats,
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
    2. **budget** — the measured ledger peak is ≤ ``budget_bytes``
       (``budget_exceeded``),
    3. **plan conformance** — the measured peak equals the plan's
       simulated peak bit-for-bit (``plan_mismatch``),
    4. **semantics** — every output is bitwise identical to the
       unplanned run (``output_divergence``),
    5. **ledger self-consistency** — the spill/remat-tagged event log
       replays cleanly (``ledger_inconsistent``).
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
                measured_peak_bytes=0, spills=0, remats=0, spilled_bytes=0,
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
    if measured != mplan.planned_peak_bytes:
        findings.append(AuditFinding(
            kind="plan_mismatch", severity="error", subject=subject,
            message=(f"measured peak {measured} B disagrees with the "
                     f"plan's simulated peak {mplan.planned_peak_bytes} B — "
                     f"the enforcer and the simulation diverged"),
            measured=measured, expected=mplan.planned_peak_bytes))
    for name, array in reference.outputs.items():
        if not np.array_equal(array, result.outputs[name]):
            findings.append(AuditFinding(
                kind="output_divergence", severity="error", subject=subject,
                message=(f"output {name!r} of the budgeted run is not "
                         f"bitwise identical to the unplanned run")))
    findings += ledger_findings(
        profile.ledger, expected_peak=measured,
        keep={v.name for v in graph.outputs}, subject=subject)

    if tracer.enabled:
        tracer.instant(
            "budget_audit_verdict", category="obs", graph=subject,
            passed=not any(f.severity == "error" for f in findings),
            budget_bytes=budget_bytes, measured_peak_bytes=measured,
            planned_peak_bytes=mplan.planned_peak_bytes,
            spills=len(mplan.spills), remats=len(mplan.remats))

    stats = profile.plan_stats
    return BudgetAudit(
        model=model, graph_name=graph.name, budget_bytes=budget_bytes,
        baseline_peak_bytes=baseline_peak,
        planned_peak_bytes=mplan.planned_peak_bytes,
        measured_peak_bytes=measured,
        spills=stats.spills if stats else 0,
        remats=stats.remats if stats else 0,
        spilled_bytes=stats.spilled_bytes if stats else 0,
        findings=findings)


def audit_model(model: str, *, batch: int = 2, hw: int | None = 32,
                ratio: float = 0.1, method: str = "tucker", seed: int = 0,
                tolerance: float = DEFAULT_TOLERANCE) -> ModelAudit:
    """Audit one zoo model: original graph, best TeMCO variant, and the
    cross-variant claim that optimization lowered the measured peak."""
    from ..bench.harness import build_variants, variant_names_for

    vs = build_variants(model, batch=batch, hw=hw, ratio=ratio, seed=seed,
                        method=method)
    best = variant_names_for(model)[-1]
    inputs = vs.input_batch(seed)
    original = audit_graph(vs.graphs["original"], inputs,
                           tolerance=tolerance, model=model,
                           variant="original", seed=seed)
    optimized = audit_graph(vs.graphs[best], inputs, tolerance=tolerance,
                            model=model, variant=best, seed=seed)

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
              method: str = "tucker", seed: int = 0,
              tolerance: float = DEFAULT_TOLERANCE) -> list[ModelAudit]:
    """Audit several zoo models (all of them by default)."""
    from ..models import MODEL_ZOO

    audits = []
    for model in models or list(MODEL_ZOO):
        audits.append(audit_model(model, batch=batch, hw=hw, ratio=ratio,
                                  method=method, seed=seed,
                                  tolerance=tolerance))
    return audits
