"""Static arena planning: liveness intervals → concrete buffer offsets.

Deployment runtimes (the paper's related work: Pisarchyk & Lee 2020,
Occamy DAC'23) do not malloc/free tensors dynamically — they
pre-compute one arena and assign every internal tensor an offset such
that tensors with overlapping lifetimes never overlap in memory.  This
module implements that planner on our liveness analysis:

- :func:`plan_arena` — greedy best-fit offset assignment (tensors
  ordered by size, each placed at the lowest offset free across its
  whole live interval), the standard heuristic from the cited work.
- The resulting :class:`ArenaPlan` reports total arena bytes — a
  deployment-accurate version of "peak memory" that is at least the
  max-live-bytes lower bound and usually close to it.

TeMCO's reductions carry through: smaller live sets ⇒ smaller arenas,
which is what an embedded deployment of a TeMCO'd model would save.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from ..ir.graph import Graph
from ..obs import get_tracer
from .allocator import AllocationError
from ..core.liveness import analyze_liveness

logger = logging.getLogger(__name__)

__all__ = ["ArenaSlot", "ArenaPlan", "plan_arena"]


@dataclass(frozen=True)
class ArenaSlot:
    """Placement of one internal tensor inside the arena."""

    value_name: str
    offset: int
    size: int
    begin: int
    end: int

    @property
    def limit(self) -> int:
        return self.offset + self.size

    def lifetime_overlaps(self, other: "ArenaSlot") -> bool:
        return self.begin <= other.end and other.begin <= self.end

    def memory_overlaps(self, other: "ArenaSlot") -> bool:
        return self.offset < other.limit and other.offset < self.limit


@dataclass
class ArenaPlan:
    """Offset assignment for every internal tensor of a schedule."""

    slots: list[ArenaSlot] = field(default_factory=list)
    arena_bytes: int = 0
    #: the max-live-bytes lower bound the plan is measured against
    peak_lower_bound: int = 0

    @property
    def fragmentation(self) -> float:
        """Relative overhead of the plan vs the theoretical lower bound."""
        if self.peak_lower_bound == 0:
            return 0.0
        return self.arena_bytes / self.peak_lower_bound - 1.0

    def validate(self) -> None:
        """No two simultaneously-live tensors may overlap in memory."""
        for i, a in enumerate(self.slots):
            if a.offset < 0 or a.size <= 0:
                raise AllocationError(f"bad slot for {a.value_name!r}")
            for b in self.slots[i + 1:]:
                if a.lifetime_overlaps(b) and a.memory_overlaps(b):
                    raise AllocationError(
                        f"arena overlap: {a.value_name!r} [{a.offset}, {a.limit}) "
                        f"and {b.value_name!r} [{b.offset}, {b.limit}) are live "
                        f"together")

    def occupancy_series(self) -> list[tuple[int, int]]:
        """``(schedule index, occupied arena bytes)`` over the schedule.

        Occupied bytes at index *i* is the sum of the aligned sizes of
        every slot whose live interval covers *i* — the arena's
        equivalent of the executor's live-bytes timeline, exported as
        the ``arena`` Chrome-trace counter track by the conformance
        auditor.  The series' maximum is :attr:`peak_lower_bound`.
        """
        if not self.slots:
            return []
        first = min(slot.begin for slot in self.slots)
        last = max(slot.end for slot in self.slots)
        deltas: dict[int, int] = {}
        for slot in self.slots:
            deltas[slot.begin] = deltas.get(slot.begin, 0) + slot.size
            deltas[slot.end + 1] = deltas.get(slot.end + 1, 0) - slot.size
        series: list[tuple[int, int]] = []
        occupied = 0
        for index in range(first, last + 1):
            occupied += deltas.get(index, 0)
            series.append((index, occupied))
        return series


def plan_arena(graph: Graph, *, alignment: int = 64) -> ArenaPlan:
    """Greedy best-fit arena planning over the graph's schedule.

    Tensors are placed largest-first; each goes to the lowest aligned
    offset whose range is free for the tensor's entire live interval.
    ``alignment`` rounds sizes/offsets (real deployments align for
    vector loads).
    """
    if alignment < 1:
        raise ValueError(f"alignment must be >= 1, got {alignment}")
    tracer = get_tracer()
    with tracer.span("plan_arena", category="runtime", graph=graph.name):
        plan = _plan_arena(graph, alignment)
    if tracer.enabled:
        tracer.instant("arena_plan", category="runtime", graph=graph.name,
                       slots=len(plan.slots), arena_bytes=plan.arena_bytes,
                       fragmentation=plan.fragmentation)
    logger.debug("arena: %s planned into %d B over %d slots "
                 "(fragmentation %.1f%%)", graph.name, plan.arena_bytes,
                 len(plan.slots), plan.fragmentation * 100)
    return plan


def _plan_arena(graph: Graph, alignment: int) -> ArenaPlan:
    intervals = analyze_liveness(graph)
    candidates = []
    for value, interval in intervals.items():
        if value.nbytes == 0:
            continue
        candidates.append((value, interval))
    # largest first; stable tie-break on definition order then name
    candidates.sort(key=lambda c: (-c[0].nbytes, c[1].begin, c[0].name))

    placed: list[ArenaSlot] = []
    for value, interval in candidates:
        size = _align(value.nbytes, alignment)
        conflicting = sorted(
            (slot for slot in placed
             if slot.begin <= interval.end and interval.begin <= slot.end),
            key=lambda s: s.offset)
        offset = 0
        for slot in conflicting:
            if offset + size <= slot.offset:
                break  # fits in the gap before this slot
            offset = max(offset, _align(slot.limit, alignment))
        placed.append(ArenaSlot(value_name=value.name, offset=offset, size=size,
                                begin=interval.begin, end=interval.end))

    plan = ArenaPlan(slots=placed,
                     arena_bytes=max((slot.limit for slot in placed), default=0))
    plan.peak_lower_bound = max(
        (occupied for _, occupied in plan.occupancy_series()), default=0)
    plan.validate()
    return plan


def _align(n: int, alignment: int) -> int:
    return ((n + alignment - 1) // alignment) * alignment
