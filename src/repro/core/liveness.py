"""Tensor liveness analysis (Algorithm 1, lines 11–18).

For every SSA value the analyzer records its definition point (*begin*)
and last use (*end*) in the execution schedule.  The lifespan
``end - begin`` ("DISTANCE" in the paper) identifies *skip
connections*: internal tensors that stay resident far past their
definition because a distant layer still needs them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.ops import UNARY_ELEMENTWISE_OPS
from ..ir.value import Value

__all__ = ["LiveInterval", "analyze_liveness", "MemorySchedule", "simulate",
           "free_schedule", "reuses_input_buffer",
           "estimate_peak_internal", "estimate_peak_floor",
           "SkipConnection", "find_skip_connections"]


@dataclass(frozen=True)
class LiveInterval:
    """Liveness of one value over schedule indices.

    ``begin`` is the index of the defining node (−1 for graph inputs);
    ``end`` is the index of the last consuming node, or the final index
    for graph outputs (frameworks keep results alive for the caller).
    A value is live *during* every node index in ``[begin, end]``.
    """

    value: Value
    begin: int
    end: int

    @property
    def distance(self) -> int:
        """Paper's ``DISTANCE(live[n].begin, live[n].end)``."""
        return self.end - self.begin

    def live_at(self, index: int) -> bool:
        return self.begin <= index <= self.end


def analyze_liveness(graph: Graph) -> dict[Value, LiveInterval]:
    """Compute begin/end indices for every value in the schedule."""
    begin: dict[Value, int] = {v: -1 for v in graph.inputs}
    end: dict[Value, int] = {v: -1 for v in graph.inputs}
    for index, node in enumerate(graph.nodes):
        begin[node.output] = index
        end.setdefault(node.output, index)
        for v in node.inputs:
            end[v] = index
    last = len(graph.nodes) - 1
    for v in graph.outputs:
        end[v] = last
    return {v: LiveInterval(v, begin[v], max(end[v], begin[v])) for v in begin}


@dataclass(frozen=True)
class MemorySchedule:
    """The executor's alloc/free order, replayed statically.

    Indices follow the ledger's convention: ``0..len(nodes)-1`` are the
    nodes, ``-1`` is the input-binding phase.
    """

    #: live bytes sampled at each node after its output is charged and
    #: before anything is freed — the executor's
    #: :class:`~repro.runtime.memory_profile.MemoryEvent` ``live_bytes``
    live: tuple[int, ...]
    #: peak over the whole run, input binding, prefetch charges and
    #: remat transients included — what the allocator measures
    peak_bytes: int
    #: where the peak is first reached (``-1`` = during input binding)
    peak_index: int
    #: the most that is live while the inputs are bound, before node 0
    bind_peak_bytes: int
    #: ``frees_after[i]``: the values freed right after node ``i``, in
    #: the executor's order; ``frees_after[-1]`` (stored last, so plain
    #: negative indexing finds it) holds the unused graph inputs, which
    #: are freed as soon as they are bound
    frees_after: tuple[tuple[Value, ...], ...]


def free_schedule(graph: Graph, order: list[Node] | None = None
                  ) -> tuple[tuple[Value, ...], ...]:
    """:attr:`MemorySchedule.frees_after` of ``graph`` run in ``order``
    (default: ``graph.nodes``): every value dies right after its last
    consumer, a dead-end output right after its producer, and graph
    outputs never."""
    nodes = graph.nodes if order is None else order
    needed = {v.name for v in graph.outputs}
    frees: list[tuple[Value, ...]] = [()] * (len(nodes) + 1)
    for index in range(len(nodes) - 1, -1, -1):
        node = nodes[index]
        dead_end = node.output.name not in needed
        dying = []
        for v in node.inputs:
            if v.name not in needed:
                needed.add(v.name)
                dying.append(v)
        if dead_end:
            dying.append(node.output)
        frees[index] = tuple(dying)
    frees[-1] = tuple(v for v in graph.inputs if v.name not in needed)
    return tuple(frees)


def reuses_input_buffer(node: Node, dying: tuple[Value, ...]) -> bool:
    """The in-place rule: a unary element-wise op that is its input's
    last consumer may write its result over that input, so the input is
    released *before* the output is charged."""
    return node.op in UNARY_ELEMENTWISE_OPS and node.inputs[0] in dying


def simulate(graph: Graph, *, order: list[Node] | None = None, actions=None,
             inplace_activations: bool = False) -> MemorySchedule:
    """Replay the executor's allocation schedule without running it.

    This is the generalized Eq. 3/4 of the paper evaluated over the
    whole graph, mirroring :func:`repro.runtime.executor.execute` event
    for event: inputs are charged one by one (an unused one is freed at
    once), each node charges its output, is sampled, then frees what
    :func:`free_schedule` says dies there.  Every static peak or
    live-byte figure in the package is read off the result.

    ``order`` evaluates a candidate schedule (a permutation of
    ``graph.nodes``) without mutating the graph.  ``actions`` are a
    memory plan's spill/remat actions bucketed by node boundary
    (:func:`repro.plan.bucket_actions`), replayed where
    :class:`~repro.runtime.planned.PlanEnforcer` applies them.
    ``inplace_activations`` models the PyTorch ``inplace=True``
    convention (:func:`reuses_input_buffer`); the paper's Eq. 3 counts
    the activation pair (``2·C'H'W'``), i.e. the default ``False``.
    """
    nodes = graph.nodes if order is None else order
    frees_after = free_schedule(graph, order)
    empty: dict[int, list] = {}
    spill_at, issue_at, drop_at, remat_at = (
        (actions.spill_at, actions.issue_at, actions.drop_at, actions.remat_at)
        if actions is not None else (empty,) * 4)

    def released(index: int) -> int:
        """Bytes the plan evicts at the boundary after ``index``."""
        return (sum(a.nbytes for a in spill_at.get(index, ()))
                + sum(a.nbytes for a in drop_at.get(index, ())))

    live = peak = 0
    peak_index = -1
    for v in graph.inputs:                 # ledger position -1
        live += v.nbytes
        peak = max(peak, live)
        if v in frees_after[-1]:
            live -= v.nbytes
    live -= released(-1)
    bind_peak = peak

    samples: list[int] = []
    for index, node in enumerate(nodes):
        # node boundary, before the kernel: prefetch charges, then each
        # remat chain's intermediates pile up until its target is bound
        live += sum(a.nbytes for a in issue_at.get(index, ()))
        high = live
        for a in remat_at.get(index, ()):
            high = max(high, live + a.transient_bytes)
            live += a.nbytes
        # the node itself
        dying = frees_after[index]
        reused = (node.inputs[0].nbytes
                  if inplace_activations and reuses_input_buffer(node, dying)
                  else 0)
        live += node.output.nbytes - reused
        samples.append(live)
        if max(high, live) > peak:
            peak = max(high, live)
            peak_index = index
        live -= sum(v.nbytes for v in dying) - reused
        live -= released(index)            # boundary after the frees
    return MemorySchedule(live=tuple(samples), peak_bytes=peak,
                          peak_index=peak_index, bind_peak_bytes=bind_peak,
                          frees_after=frees_after)


def estimate_peak_internal(graph: Graph, *,
                           inplace_activations: bool = False) -> int:
    """Static peak internal-tensor bytes of the schedule: exactly what
    the executor measures (property tests pin the two together).  See
    :func:`simulate` for the accounting policies."""
    return simulate(graph,
                    inplace_activations=inplace_activations).peak_bytes


def estimate_peak_floor(graph: Graph) -> int:
    """The irreducible working set: the largest inputs+output footprint
    of any single node (each input counted once), or what binding the
    graph inputs holds at once when that is larger (the used ones are
    all resident before node 0; an unused one is freed as it is bound,
    so the term comes from :func:`simulate`, not a plain sum).

    No memory plan can beat this — every node's operands and result
    must be resident while it runs, whatever gets spilled or
    rematerialized around it.  Budgets below this floor are infeasible
    by construction; :func:`repro.plan.plan_memory` reports them with
    the residual against its best achievable peak.
    """
    floor = simulate(graph).bind_peak_bytes
    for node in graph.nodes:
        distinct = {v.name: v.nbytes for v in node.inputs}
        distinct[node.output.name] = node.output.nbytes
        floor = max(floor, sum(distinct.values()))
    return floor


@dataclass(frozen=True)
class SkipConnection:
    """A long-lived internal tensor and where it is consumed."""

    value: Value
    interval: LiveInterval
    producer: Node
    #: consumers whose schedule index is further than the threshold from
    #: the definition — the "distant uses" whose input gets replaced
    far_uses: tuple[Node, ...]
    #: consumers within the threshold — left untouched
    near_uses: tuple[Node, ...]


def find_skip_connections(graph: Graph, distance_threshold: int) -> list[SkipConnection]:
    """Identify skip connections (Algorithm 1, lines 17–19).

    A value qualifies when its lifespan exceeds ``distance_threshold``
    schedule slots.  Graph inputs and outputs are excluded: inputs have
    no restore chain to copy, and outputs must stay materialized.
    """
    if distance_threshold < 1:
        raise ValueError(f"distance_threshold must be >= 1, got {distance_threshold}")
    intervals = analyze_liveness(graph)
    consumer_map = graph.consumer_map()
    output_ids = {id(v) for v in graph.outputs}
    input_ids = {id(v) for v in graph.inputs}
    index_of = {node: i for i, node in enumerate(graph.nodes)}

    skips: list[SkipConnection] = []
    for node in graph.nodes:
        v = node.output
        if id(v) in output_ids or id(v) in input_ids:
            continue
        interval = intervals[v]
        if interval.distance <= distance_threshold:
            continue
        far, near = [], []
        for consumer in consumer_map.get(v, ()):  # schedule order
            if index_of[consumer] - interval.begin > distance_threshold:
                far.append(consumer)
            else:
                near.append(consumer)
        if far:
            skips.append(SkipConnection(value=v, interval=interval, producer=node,
                                        far_uses=tuple(far), near_uses=tuple(near)))
    return skips
