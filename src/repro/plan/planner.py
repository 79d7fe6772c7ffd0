"""Budget-constrained memory planner.

Given a (possibly TeMCO-optimized) graph and a byte budget for internal
tensors, :func:`plan_memory` produces a :class:`MemoryPlan`: a per-node
schedule of actions the executor enforces at node boundaries.

Three actions exist, generalizing the paper's core trade (compute
overhead vs. resident bytes) past compile-time graph rewriting:

- **keep** — leave a long-lived tensor resident (the default; recorded
  explicitly for the tensors that still make up the planned peak);
- **spill** — park a cold tensor on the host side of the device pool
  after its last touch before a liveness gap, and prefetch it back
  (double-buffered, one node of lead) ahead of the next consumer;
- **remat** — drop the tensor and re-execute its recorded producing
  subgraph right before the next consumer, exactly the restore-chain
  recomputation of the paper's skip-connection optimization, but chosen
  dynamically by cost.

The planner greedily relieves the *predicted* peak: simulate the
executor's allocation schedule byte-for-byte, find the peak node, rank
the tensors idle across that node by cost-per-byte-relieved (transfer
seconds at the configured bandwidth vs. recompute seconds at the
configured FLOP rate), apply the cheapest, and repeat until the budget
holds.  When no candidate relieves a still-over-budget peak the typed
:class:`InfeasibleBudget` reports the residual bytes.

The simulation is the contract: :func:`repro.core.liveness.simulate`
predicts the allocator's events exactly (input binding, prefetch
charges, remat chains, output allocation, last-use frees,
spills/drops), so the ledger of an enforced run is the predicted event
list, event for event — `repro memcheck --budget` checks exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Union

from ..core.liveness import LiveInterval, analyze_liveness, simulate
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.ops import node_flops
from ..ir.value import Value
from .budget import format_bytes

__all__ = ["PlanCostModel", "KeepAction", "SpillAction", "RematAction",
           "PlanAction", "ActionBuckets", "bucket_actions", "MemoryPlan",
           "InfeasibleBudget", "plan_memory"]


#: What a remat chain runs at: the rate this runtime's NumPy kernels
#: sustain on one BLAS thread, perfbench's per-layer
#: ``kernels.gflops_per_s`` on ``graph_b4`` (conv 7.3, fused 7.1).
KERNEL_FLOPS_PER_S = 7e9
#: nodes of lead between issuing a prefetch and needing the tensor
#: (1 = the transfer overlaps the preceding node's compute)
PREFETCH_LEAD = 1
#: longest producing subgraph a remat action may re-execute
MAX_CHAIN_LEN = 8


@dataclass(frozen=True)
class PlanCostModel:
    """Knobs of the spill-vs-remat decision.

    Defaults model a PCIe-class host link (~12 GB/s effective) against
    the rate the kernels that replay a remat chain actually reach
    (:data:`KERNEL_FLOPS_PER_S`); both are configurable per plan
    because the right answer flips with the hardware ratio.
    """

    #: host-link bandwidth used for spill + prefetch transfers
    spill_bandwidth_bytes_per_s: float = 12e9
    #: sustained rate assumed for rematerialization compute
    recompute_flops_per_s: float = KERNEL_FLOPS_PER_S

    def spill_seconds(self, nbytes: int) -> float:
        return 2.0 * nbytes / self.spill_bandwidth_bytes_per_s

    def remat_seconds(self, flops: int) -> float:
        return flops / self.recompute_flops_per_s

    def to_dict(self) -> dict:
        return {
            "spill_bandwidth_bytes_per_s": self.spill_bandwidth_bytes_per_s,
            "recompute_flops_per_s": self.recompute_flops_per_s,
            "prefetch_lead": PREFETCH_LEAD,
            "max_chain_len": MAX_CHAIN_LEN,
        }


@dataclass(frozen=True)
class KeepAction:
    """A tensor deliberately left resident at the planned peak."""

    value: Value
    kind: str = field(default="keep", init=False)

    @property
    def nbytes(self) -> int:
        return self.value.nbytes

    def cost_seconds(self, cm: PlanCostModel) -> float:
        return 0.0

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

    def cost_seconds(self, cm: PlanCostModel) -> float:
        return cm.spill_seconds(self.nbytes)

    def to_dict(self) -> dict:
        return {"kind": "spill", "value": self.value.name,
                "nbytes": self.nbytes, "spill_after": self.spill_after,
                "prefetch_issue": self.prefetch_issue,
                "next_use": self.next_use}


@dataclass(frozen=True)
class RematAction:
    """Drop ``value`` and recompute it from resident tensors.

    ``chain`` is the recorded producing subgraph, in schedule order;
    the executor re-runs it before node ``remat_before``, charging each
    intermediate transiently and re-allocating only ``value``.
    """

    value: Value
    drop_after: int
    remat_before: int
    chain: tuple[Node, ...]
    recompute_flops: int
    #: sum of chain-output bytes — the transient high-water extra while
    #: the chain replays
    transient_bytes: int
    kind: str = field(default="remat", init=False)

    @property
    def nbytes(self) -> int:
        return self.value.nbytes

    def cost_seconds(self, cm: PlanCostModel) -> float:
        return cm.remat_seconds(self.recompute_flops)

    def to_dict(self) -> dict:
        return {"kind": "remat", "value": self.value.name,
                "nbytes": self.nbytes, "drop_after": self.drop_after,
                "remat_before": self.remat_before,
                "chain": [n.name for n in self.chain],
                "recompute_flops": self.recompute_flops,
                "transient_bytes": self.transient_bytes}


PlanAction = Union[KeepAction, SpillAction, RematAction]


@dataclass(frozen=True)
class ActionBuckets:
    """A plan's actions keyed by the node boundary they fire at — the
    one form both :func:`repro.core.liveness.simulate` and
    :class:`~repro.runtime.planned.PlanEnforcer` walk, so prediction
    and enforcement cannot bucket differently."""

    #: after node ``i``'s frees (``-1`` = right after input binding)
    spill_at: dict[int, list[SpillAction]] = field(default_factory=dict)
    drop_at: dict[int, list[RematAction]] = field(default_factory=dict)
    #: before node ``i``'s kernel, in this order
    issue_at: dict[int, list[SpillAction]] = field(default_factory=dict)
    bind_at: dict[int, list[SpillAction]] = field(default_factory=dict)
    remat_at: dict[int, list[RematAction]] = field(default_factory=dict)


def _action_order(a: PlanAction) -> tuple:
    """The canonical order of a plan's actions: spills, remats, keeps;
    largest first; by name."""
    return ({"spill": 0, "remat": 1, "keep": 2}[a.kind], -a.nbytes,
            a.value.name)


def bucket_actions(actions: Iterable[PlanAction]) -> ActionBuckets:
    """Bucket ``actions`` by boundary, each bucket in
    :func:`_action_order` whatever order they arrive in: what is live
    while two remat chains replay at one boundary depends on which goes
    first, so the planner must price the order the enforcer runs."""
    buckets = ActionBuckets()
    for a in sorted(actions, key=_action_order):
        if isinstance(a, SpillAction):
            buckets.spill_at.setdefault(a.spill_after, []).append(a)
            buckets.issue_at.setdefault(a.prefetch_issue, []).append(a)
            buckets.bind_at.setdefault(a.next_use, []).append(a)
        elif isinstance(a, RematAction):
            buckets.drop_at.setdefault(a.drop_after, []).append(a)
            buckets.remat_at.setdefault(a.remat_before, []).append(a)
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
    cost_model: PlanCostModel

    @cached_property
    def buckets(self) -> ActionBuckets:
        """``actions`` by the boundary they fire at, bucketed once for
        every run that enforces the plan (read-only: shared by runs)."""
        return bucket_actions(self.actions)

    @property
    def spills(self) -> tuple[SpillAction, ...]:
        return tuple(a for a in self.actions if isinstance(a, SpillAction))

    @property
    def remats(self) -> tuple[RematAction, ...]:
        return tuple(a for a in self.actions if isinstance(a, RematAction))

    @property
    def keeps(self) -> tuple[KeepAction, ...]:
        return tuple(a for a in self.actions if isinstance(a, KeepAction))

    @property
    def spilled_bytes(self) -> int:
        return sum(a.nbytes for a in self.spills)

    @property
    def remat_flops(self) -> int:
        return sum(a.recompute_flops for a in self.remats)

    @property
    def relief_bytes(self) -> int:
        return self.baseline_peak_bytes - self.planned_peak_bytes

    @property
    def predicted_overhead_seconds(self) -> float:
        return sum(a.cost_seconds(self.cost_model) for a in self.actions)

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
            "remat_flops": self.remat_flops,
            "predicted_overhead_seconds": self.predicted_overhead_seconds,
            "within_budget": self.within_budget,
            "planned_live": list(self.planned_live),
            "actions": [a.to_dict() for a in self.actions],
            "cost_model": self.cost_model.to_dict(),
        }

    def summary(self) -> str:
        parts = [f"{len(self.spills)} spill(s)", f"{len(self.remats)} remat(s)",
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
    under the original liveness *and* the already-applied actions?"""
    iv = intervals.get(value)
    if iv is None or not iv.live_at(index):
        return False
    a = actions.get(value.name)
    if isinstance(a, SpillAction):
        return index <= a.spill_after or index >= a.next_use
    if isinstance(a, RematAction):
        # strict: the chain that restores it runs at remat_before, and
        # chain ordering within one boundary is not guaranteed
        return index <= a.drop_after or index > a.remat_before
    return True


def _collect_chain(graph: Graph, value: Value, at_index: int,
                   intervals: dict[Value, LiveInterval],
                   actions: dict[str, PlanAction]) -> tuple[Node, ...] | None:
    """The producing subgraph that recomputes ``value`` at ``at_index``
    from tensors resident there, or None when no bounded chain exists."""
    producer = graph.producer_of(value)
    if producer is None:
        return None
    chain: list[Node] = []
    seen = {value.name}
    stack = [producer]
    while stack:
        node = stack.pop()
        chain.append(node)
        if len(chain) > MAX_CHAIN_LEN:
            return None
        for u in node.inputs:
            if u.name in seen or _resident_at(u, at_index, intervals, actions):
                continue
            pred = graph.producer_of(u)
            if pred is None:
                return None  # needs a graph input that is gone
            seen.add(u.name)
            stack.append(pred)
    chain.sort(key=lambda n: intervals[n.output].begin)  # schedule order
    return tuple(chain)


def _revalidate_chains(graph: Graph, intervals: dict[Value, LiveInterval],
                       actions: dict[str, PlanAction]) -> bool:
    """Re-collect every remat chain under the current action set.

    A chain is valid only while its frontier inputs stay resident at the
    restore point; planning a later spill or remat for one of them
    evicts it and silently invalidates the chain.  After every planner
    step the chains are therefore recomputed — extended through the
    evicted tensor's own producer when a bounded chain still exists, or
    reported impossible (``False``) so the step can be reverted.
    """
    for name, a in list(actions.items()):
        if not isinstance(a, RematAction):
            continue
        chain = _collect_chain(graph, a.value, a.remat_before, intervals,
                               actions)
        if chain is None:
            return False
        if chain != a.chain:
            actions[name] = RematAction(
                value=a.value, drop_after=a.drop_after,
                remat_before=a.remat_before, chain=chain,
                recompute_flops=sum(node_flops(n) for n in chain),
                transient_bytes=sum(n.output.nbytes for n in chain))
    return True


def _candidates(graph: Graph, intervals: dict[Value, LiveInterval],
                uses_by_name: dict[str, list[int]],
                actions: dict[str, PlanAction], peak_index: int,
                rejected: set[tuple[str, str]]) -> list[PlanAction]:
    """Actions that could relieve the peak at ``peak_index``: tensors
    live across that node but neither defined nor consumed by it."""
    if peak_index < 0:
        return []  # the peak is input binding itself — irreducible
    num_nodes = len(graph.nodes)
    peak_node = graph.nodes[peak_index]
    used_here = {v.name for v in peak_node.inputs}
    out: list[PlanAction] = []
    for v, iv in intervals.items():
        name = v.name
        if (name in actions or not iv.live_at(peak_index)
                or iv.begin == peak_index or name in used_here):
            continue
        uses = uses_by_name.get(name, [])
        touches = [iv.begin] + uses
        prev = max(t for t in touches if t < peak_index)
        later = [u for u in uses if u > peak_index]
        nxt = later[0] if later else num_nodes  # num_nodes = restore at end
        if (name, "spill") not in rejected:
            issue = max(prev + 1, nxt - PREFETCH_LEAD)
            if issue > peak_index:
                out.append(SpillAction(value=v, spill_after=prev,
                                       prefetch_issue=issue, next_use=nxt))
        if (name, "remat") not in rejected and iv.begin >= 0 and nxt < num_nodes:
            chain = _collect_chain(graph, v, nxt, intervals, actions)
            if chain is not None:
                out.append(RematAction(
                    value=v, drop_after=prev, remat_before=nxt, chain=chain,
                    recompute_flops=sum(node_flops(n) for n in chain),
                    transient_bytes=sum(n.output.nbytes for n in chain)))
    return out


# ---------------------------------------------------------------------------
# the greedy planner
# ---------------------------------------------------------------------------

def plan_memory(graph: Graph, budget_bytes: int | None = None, *,
                cost_model: PlanCostModel | None = None) -> MemoryPlan:
    """Plan ``graph`` to fit ``budget_bytes`` of internal-tensor memory.

    ``budget_bytes=None`` plans nothing (all-keep) and just reports the
    predicted peak — useful for the ``repro plan`` analysis view.
    Raises :class:`InfeasibleBudget` when no action schedule fits.
    """
    graph.validate()
    cm = cost_model or PlanCostModel()
    if budget_bytes is not None and budget_bytes <= 0:
        raise ValueError(f"budget must be positive, got {budget_bytes}")
    intervals = analyze_liveness(graph)
    uses_by_name: dict[str, list[int]] = {}
    for index, node in enumerate(graph.nodes):
        for v in node.inputs:
            uses_by_name.setdefault(v.name, []).append(index)

    actions: dict[str, PlanAction] = {}
    rejected: set[tuple[str, str]] = set()

    def score(a: PlanAction) -> tuple:
        # cost per byte relieved; spills win ties (no numeric risk)
        return (a.cost_seconds(cm) / max(a.nbytes, 1),
                0 if isinstance(a, SpillAction) else 1, a.value.name)

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
        best = min(cands, key=score)
        actions[best.value.name] = best
        revert = True  # unless the step keeps every restore chain valid
        if _revalidate_chains(graph, intervals, actions):
            trial = simulate(graph, actions=bucket_actions(actions.values()))
            # no local relief (e.g. the remat transient re-creates the
            # peak); a same-height peak at a *different* index is kept —
            # that plateau is relieved on the next iteration
            revert = trial.peak_bytes > schedule.peak_bytes or (
                trial.peak_bytes == schedule.peak_bytes
                and trial.peak_index == schedule.peak_index)
        if revert:
            del actions[best.value.name]
            _revalidate_chains(graph, intervals, actions)
            rejected.add((best.value.name, best.kind))
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
        actions=tuple(sorted(actions.values(), key=_action_order)),
        cost_model=cm)
