"""Budget-constrained memory planner.

Given a (possibly TeMCO-optimized) graph and a byte budget for internal
tensors, :func:`plan_memory` produces a :class:`MemoryPlan`: a per-node
schedule of actions the executor enforces at node boundaries.

A plan holds two kinds of record:

- **keep** — leave a long-lived tensor resident (the default; recorded
  explicitly for the tensors that still make up the planned peak);
- **spill** — park a cold tensor on the host side of the device pool
  after its last touch before a liveness gap, and prefetch it back
  (double-buffered, one node of lead) ahead of the next consumer.

Spill is the only action.  Recomputation stays where the paper puts it,
in the compiler (the skip-connection optimization's restore chains,
:mod:`repro.core.skip_opt`): a plan re-runs no node.

The planner greedily relieves the *predicted* peak: simulate the
executor's allocation schedule byte-for-byte, find the peak node, spill
the first tensor by name among those idle across that node, and repeat
until the budget holds.  Spills are not priced: every one is the same
host round trip per byte relieved, so a price would rank them only by
rounding noise.  When no candidate relieves a still-over-budget peak
the typed :class:`InfeasibleBudget` reports the residual bytes.

The simulation is the contract: :func:`repro.core.liveness.simulate`
predicts the allocator's events exactly (input binding, prefetch
charges, output allocation, last-use frees, spills), so the ledger of
an enforced run is the predicted event list, event for event — `repro
memcheck --budget` checks exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Union

from ..core.liveness import LiveInterval, analyze_liveness, simulate
from ..ir.graph import Graph
from ..ir.value import Value
from .budget import format_bytes

__all__ = ["KeepAction", "SpillAction", "PlanAction",
           "ActionBuckets", "bucket_actions", "MemoryPlan",
           "InfeasibleBudget", "plan_memory"]


#: nodes of lead between issuing a prefetch and needing the tensor
#: (1 = the transfer overlaps the preceding node's compute)
PREFETCH_LEAD = 1


@dataclass(frozen=True)
class KeepAction:
    """A tensor deliberately left resident at the planned peak."""

    value: Value
    kind: str = field(default="keep", init=False)

    @property
    def nbytes(self) -> int:
        return self.value.nbytes

    def to_dict(self) -> dict:
        return {"kind": "keep", "value": self.value.name,
                "nbytes": self.nbytes}


@dataclass(frozen=True)
class SpillAction:
    """Park ``value`` host-side across a liveness gap.

    The executor parks the tensor host-side after node ``spill_after``
    (``-1`` = right after input binding), re-charges its bytes before
    node ``prefetch_issue``, when the modelled fetch starts, and binds
    the array again before node ``next_use`` (``next_use == num_nodes``
    means the tensor is a graph output restored at the end of the run).
    """

    value: Value
    spill_after: int
    prefetch_issue: int
    next_use: int
    kind: str = field(default="spill", init=False)

    @property
    def nbytes(self) -> int:
        return self.value.nbytes

    def to_dict(self) -> dict:
        return {"kind": "spill", "value": self.value.name,
                "nbytes": self.nbytes, "spill_after": self.spill_after,
                "prefetch_issue": self.prefetch_issue,
                "next_use": self.next_use}


PlanAction = Union[KeepAction, SpillAction]


@dataclass(frozen=True)
class ActionBuckets:
    """A plan's actions keyed by the node boundary they fire at — the
    one form both :func:`repro.core.liveness.simulate` and
    :class:`~repro.runtime.planned.PlanEnforcer` walk, so prediction
    and enforcement cannot bucket differently."""

    #: after node ``i``'s frees (``-1`` = right after input binding)
    spill_at: dict[int, list[SpillAction]] = field(default_factory=dict)
    #: before node ``i``'s kernel, in this order
    issue_at: dict[int, list[SpillAction]] = field(default_factory=dict)
    bind_at: dict[int, list[SpillAction]] = field(default_factory=dict)


def _action_order(a: PlanAction) -> tuple:
    """The canonical order of a plan's actions: spills, then keeps;
    largest first; by name."""
    return (a.kind != "spill", -a.nbytes, a.value.name)


def bucket_actions(actions: Iterable[PlanAction]) -> ActionBuckets:
    """Bucket the spills among ``actions`` by boundary, each bucket in
    :func:`_action_order` whatever order they arrive in, so a plan's
    ledger order does not depend on how its actions were collected."""
    buckets = ActionBuckets()
    for a in sorted(actions, key=_action_order):
        if isinstance(a, SpillAction):
            buckets.spill_at.setdefault(a.spill_after, []).append(a)
            buckets.issue_at.setdefault(a.prefetch_issue, []).append(a)
            buckets.bind_at.setdefault(a.next_use, []).append(a)
    return buckets


class InfeasibleBudget(RuntimeError):
    """No plan fits: reports how far the best plan still overshoots."""

    def __init__(self, graph_name: str, budget_bytes: int,
                 predicted_peak_bytes: int) -> None:
        self.graph_name = graph_name
        self.budget_bytes = budget_bytes
        self.predicted_peak_bytes = predicted_peak_bytes
        self.residual_bytes = predicted_peak_bytes - budget_bytes
        super().__init__(
            f"budget {format_bytes(budget_bytes)} is infeasible for "
            f"{graph_name!r}: the best plan still peaks at "
            f"{format_bytes(predicted_peak_bytes)} "
            f"(residual {format_bytes(self.residual_bytes)})")


@dataclass(frozen=True)
class MemoryPlan:
    """An executable per-node schedule of memory actions."""

    graph_name: str
    num_nodes: int
    budget_bytes: int | None
    #: predicted peak with no actions applied
    baseline_peak_bytes: int
    #: predicted peak of the enforced plan — what the ledger must measure
    planned_peak_bytes: int
    #: predicted live bytes sampled at each node (pre-free, matching
    #: the executor's ``MemoryProfile.events``)
    planned_live: tuple[int, ...]
    actions: tuple[PlanAction, ...]

    @cached_property
    def buckets(self) -> ActionBuckets:
        """``actions`` by the boundary they fire at, bucketed once for
        every run that enforces the plan (read-only: shared by runs)."""
        return bucket_actions(self.actions)

    @property
    def spills(self) -> tuple[SpillAction, ...]:
        return tuple(a for a in self.actions if isinstance(a, SpillAction))

    @property
    def keeps(self) -> tuple[KeepAction, ...]:
        return tuple(a for a in self.actions if isinstance(a, KeepAction))

    @property
    def spilled_bytes(self) -> int:
        return sum(a.nbytes for a in self.spills)

    @property
    def relief_bytes(self) -> int:
        return self.baseline_peak_bytes - self.planned_peak_bytes

    @property
    def within_budget(self) -> bool:
        return (self.budget_bytes is None
                or self.planned_peak_bytes <= self.budget_bytes)

    def to_dict(self) -> dict:
        return {
            "graph": self.graph_name,
            "num_nodes": self.num_nodes,
            "budget_bytes": self.budget_bytes,
            "baseline_peak_bytes": self.baseline_peak_bytes,
            "planned_peak_bytes": self.planned_peak_bytes,
            "relief_bytes": self.relief_bytes,
            "spilled_bytes": self.spilled_bytes,
            "within_budget": self.within_budget,
            "planned_live": list(self.planned_live),
            "actions": [a.to_dict() for a in self.actions],
        }

    def summary(self) -> str:
        parts = [f"{len(self.spills)} spill(s)",
                 f"peak {format_bytes(self.planned_peak_bytes)}"]
        if self.budget_bytes is not None:
            parts.append(f"budget {format_bytes(self.budget_bytes)}")
        return ", ".join(parts)


# ---------------------------------------------------------------------------
# candidate discovery
# ---------------------------------------------------------------------------

def _resident_at(value: Value, index: int,
                 intervals: dict[Value, LiveInterval],
                 actions: dict[str, PlanAction]) -> bool:
    """Is ``value`` bound in the executor env during node ``index``,
    under the original liveness *and* the already-applied spills?"""
    iv = intervals.get(value)
    if iv is None or not iv.live_at(index):
        return False
    a = actions.get(value.name)
    if isinstance(a, SpillAction):
        return index <= a.spill_after or index >= a.next_use
    return True


def _candidates(graph: Graph, intervals: dict[Value, LiveInterval],
                uses_by_name: dict[str, list[int]],
                actions: dict[str, PlanAction], peak_index: int,
                rejected: set[str]) -> list[SpillAction]:
    """Spills that could relieve the peak at ``peak_index``: tensors
    live across that node but neither defined nor consumed by it."""
    if peak_index < 0:
        return []  # the peak is input binding itself — irreducible
    num_nodes = len(graph.nodes)
    used_here = {v.name for v in graph.nodes[peak_index].inputs}
    out: list[SpillAction] = []
    for v, iv in intervals.items():
        name = v.name
        if (name in actions or name in rejected or not iv.live_at(peak_index)
                or iv.begin == peak_index or name in used_here):
            continue
        uses = uses_by_name.get(name, [])
        prev = max(t for t in [iv.begin] + uses if t < peak_index)
        later = [u for u in uses if u > peak_index]
        nxt = later[0] if later else num_nodes  # num_nodes = restore at end
        issue = max(prev + 1, nxt - PREFETCH_LEAD)
        if issue > peak_index:
            out.append(SpillAction(value=v, spill_after=prev,
                                   prefetch_issue=issue, next_use=nxt))
    return out


# ---------------------------------------------------------------------------
# the greedy planner
# ---------------------------------------------------------------------------

def plan_memory(graph: Graph, budget_bytes: int | None = None) -> MemoryPlan:
    """Plan ``graph`` to fit ``budget_bytes`` of internal-tensor memory.

    ``budget_bytes=None`` plans nothing (all-keep) and just reports the
    predicted peak — useful for the ``repro plan`` analysis view.
    Raises :class:`InfeasibleBudget` when no spill schedule fits.
    """
    graph.validate()
    if budget_bytes is not None and budget_bytes <= 0:
        raise ValueError(f"budget must be positive, got {budget_bytes}")
    intervals = analyze_liveness(graph)
    uses_by_name: dict[str, list[int]] = {}
    for index, node in enumerate(graph.nodes):
        for v in node.inputs:
            uses_by_name.setdefault(v.name, []).append(index)

    actions: dict[str, PlanAction] = {}
    rejected: set[str] = set()

    # ``schedule`` is always the simulation of the current ``actions``:
    # a revert restores the action set it was computed from
    schedule = simulate(graph)
    baseline_peak = schedule.peak_bytes
    while budget_bytes is not None and schedule.peak_bytes > budget_bytes:
        cands = _candidates(graph, intervals, uses_by_name, actions,
                            schedule.peak_index, rejected)
        if not cands:
            raise InfeasibleBudget(graph.name, budget_bytes,
                                   schedule.peak_bytes)
        best = min(cands, key=lambda a: a.value.name)
        actions[best.value.name] = best
        trial = simulate(graph, actions=bucket_actions(actions.values()))
        # no local relief (e.g. the prefetch charge re-creates the
        # peak); a same-height peak at a *different* index is kept —
        # that plateau is relieved on the next iteration
        if trial.peak_bytes > schedule.peak_bytes or (
                trial.peak_bytes == schedule.peak_bytes
                and trial.peak_index == schedule.peak_index):
            del actions[best.value.name]
            rejected.add(best.value.name)
        else:
            schedule = trial

    # record the keeps: what still makes up the planned peak
    peak_index = max(schedule.peak_index, 0)
    for v, iv in intervals.items():
        if v.name not in actions and iv.live_at(peak_index) \
                and _resident_at(v, peak_index, intervals, actions):
            actions[v.name] = KeepAction(value=v)

    return MemoryPlan(
        graph_name=graph.name, num_nodes=len(graph.nodes),
        budget_bytes=budget_bytes, baseline_peak_bytes=baseline_peak,
        planned_peak_bytes=schedule.peak_bytes, planned_live=schedule.live,
        actions=tuple(sorted(actions.values(), key=_action_order)))
