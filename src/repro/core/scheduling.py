"""Memory-aware execution scheduling.

The schedule *is* the node list (`Graph.nodes`), and the paper notes
(§3.1, §5) that execution order changes the internal-tensor peak —
its `Compare`/`Peak` functions order restore chains, and it cites layer
-scheduling work [19, 31, 50] as the general tool it plans to adopt.
This module implements that general tool:

- :func:`reschedule` — greedy list scheduling: repeatedly emit the
  ready node that minimizes the post-emission live-byte total (ties
  broken toward freeing the most bytes, then original order).  The
  result is kept only if :func:`~repro.core.liveness.simulate` gives
  it a lower peak than the current order, so the pass is always safe
  to run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from ..ir.graph import Graph
from ..ir.node import Node
from ..obs import get_tracer
from .liveness import simulate

logger = logging.getLogger(__name__)

__all__ = ["ScheduleStats", "reschedule", "greedy_order"]


@dataclass(frozen=True)
class ScheduleStats:
    peak_before: int
    peak_after: int
    changed: bool

    @property
    def reduction(self) -> float:
        if self.peak_before == 0:
            return 0.0
        return 1.0 - self.peak_after / self.peak_before


def greedy_order(graph: Graph) -> list[Node]:
    """Greedy memory-minimizing topological order of ``graph``'s nodes."""
    position = {id(node): i for i, node in enumerate(graph.nodes)}
    consumers: dict[str, int] = {}
    for node in graph.nodes:
        for v in node.inputs:
            consumers[v.name] = consumers.get(v.name, 0) + 1
    for v in graph.outputs:
        consumers[v.name] = consumers.get(v.name, 0) + 1

    # dependency counts
    producers = {node.output.name: node for node in graph.nodes}
    pending: dict[int, int] = {}
    dependents: dict[int, list[Node]] = {}
    for node in graph.nodes:
        deps = 0
        for v in node.inputs:
            producer = producers.get(v.name)
            if producer is not None:
                deps += 1
                dependents.setdefault(id(producer), []).append(node)
        pending[id(node)] = deps

    ready = [node for node in graph.nodes if pending[id(node)] == 0]
    live_bytes: dict[str, int] = {v.name: v.nbytes for v in graph.inputs}
    remaining = dict(consumers)
    order: list[Node] = []

    def cost(node: Node) -> tuple[int, int, int]:
        """(net live delta, -freed bytes, original position)."""
        freed = 0
        for v in node.inputs:
            if remaining.get(v.name, 0) == 1 and v.name in live_bytes:
                freed += live_bytes[v.name]
        grows = node.output.nbytes if remaining.get(node.output.name, 0) > 0 else 0
        return (grows - freed, -freed, position[id(node)])

    while ready:
        ready.sort(key=cost)
        node = ready.pop(0)
        order.append(node)
        live_bytes[node.output.name] = node.output.nbytes
        for v in node.inputs:
            remaining[v.name] -= 1
            if remaining[v.name] == 0:
                live_bytes.pop(v.name, None)
        if remaining.get(node.output.name, 0) == 0:
            live_bytes.pop(node.output.name, None)
        for dep in dependents.get(id(node), ()):  # newly ready nodes
            pending[id(dep)] -= 1
            if pending[id(dep)] == 0:
                ready.append(dep)

    if len(order) != len(graph.nodes):  # pragma: no cover - defensive
        raise RuntimeError("scheduling failed to order all nodes (cycle?)")
    return order


def reschedule(graph: Graph) -> ScheduleStats:
    """Reorder ``graph.nodes`` in place if the greedy order lowers the
    statically estimated peak; otherwise leave the graph untouched."""
    tracer = get_tracer()
    with tracer.span("reschedule", category="compiler", graph=graph.name):
        peak_before = simulate(graph).peak_bytes
        candidate = greedy_order(graph)
        peak_after = simulate(graph, order=candidate).peak_bytes
        if peak_after < peak_before:
            graph.nodes = candidate
            graph.validate()
            tracer.decision("scheduling", graph.name, "apply", "peak_lowered",
                            peak_before_bytes=peak_before,
                            peak_after_bytes=peak_after)
            logger.info("scheduling: reordered %s (peak %d B -> %d B)",
                        graph.name, peak_before, peak_after)
            return ScheduleStats(peak_before, peak_after, changed=True)
        tracer.decision("scheduling", graph.name, "keep", "no_improvement",
                        peak_before_bytes=peak_before,
                        candidate_peak_bytes=peak_after)
        logger.debug("scheduling: kept original order of %s (peak %d B)",
                     graph.name, peak_before)
    return ScheduleStats(peak_before, peak_before, changed=False)
