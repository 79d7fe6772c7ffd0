"""The splice driver every subgraph-swapping pass runs on.

A pass is a *rule* tried at every *anchor* node.  ``rule(graph, node,
consumers)`` returns ``None`` (no match) or a :class:`Splice`: the nodes
to insert before the anchor, the value whose uses move and the value
they move to, and the one decision to record.  :func:`rewrite` does the
rest, the same way for every pass: it inserts the nodes, rewires the
uses, drops the old value's producer and, in a cascade, every producer
that leaves without a consumer and is not a graph output, keeps one
consumer map current for the whole pass, records the decision, and
scans on from the first inserted node (from where the anchor was if
nothing was inserted).  A scan that splices nothing ends the pass; the
graph is validated once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs import get_tracer
from .graph import Graph
from .node import Node
from .value import Value

__all__ = ["Splice", "rewrite"]

logger = logging.getLogger(__name__)


@dataclass
class Splice:
    """One rewrite a rule asks for at its anchor.

    A rule that returns a splice has committed to it: the driver always
    applies it.  ``insert`` (nodes named through ``graph.namer``, as
    :func:`~repro.ir.emit.make_node` names them) goes immediately before
    the anchor, in order; every use of ``old`` (graph outputs included) then reads
    ``new``.  The rest is the decision the splice is logged as.
    """

    insert: list[Node]
    old: Value
    new: Value
    pass_name: str
    subject: str
    verdict: str
    reason: str
    quantities: dict[str, Any] = field(default_factory=dict)


def rewrite(graph: Graph, anchor: Callable[[Node], bool],
            rule: Callable[[Graph, Node, dict[Value, list[Node]]], Splice | None],
            ) -> int:
    """Splice ``rule``'s rewrites in at every ``anchor`` node until a scan
    finds none; returns the number of splices.

    ``consumers`` (what :meth:`Graph.consumer_map` gives) is built once
    and kept current, so a rule may read it but must not change it.
    """
    tracer = get_tracer()
    consumers = graph.consumer_map()
    spliced = 0
    changed = True
    while changed:
        changed = False
        index = 0
        while index < len(graph.nodes):
            node = graph.nodes[index]
            splice = rule(graph, node, consumers) if anchor(node) else None
            if splice is None:
                index += 1
                continue
            index = _splice(graph, index, splice, consumers)
            spliced += 1
            changed = True
            tracer.decision(splice.pass_name, splice.subject, splice.verdict,
                            splice.reason, **splice.quantities)
            logger.debug("%s: %s %s (%s)", splice.pass_name, splice.verdict,
                         splice.subject, splice.reason)
    graph.validate()
    return spliced


def _splice(graph: Graph, index: int, splice: Splice,
            consumers: dict[Value, list[Node]]) -> int:
    """Apply ``splice`` at ``graph.nodes[index]``; returns where the scan
    goes on."""
    old, new = splice.old, splice.new
    graph.nodes[index:index] = splice.insert
    for node in splice.insert:
        for value in node.inputs:
            consumers.setdefault(value, []).append(node)
    users = consumers.pop(old, [])
    for user in users:
        user.replace_input(old, new)
    if users:
        consumers.setdefault(new, []).extend(users)
    graph.outputs = [new if v is old else v for v in graph.outputs]

    dead: set[Node] = set()
    orphans = [old]
    while orphans:
        value = orphans.pop()
        producer = graph.producer_of(value)
        if (producer is None or producer in dead or consumers.get(value)
                or any(v is value for v in graph.outputs)):
            continue
        dead.add(producer)
        for v in dict.fromkeys(producer.inputs):
            left = [user for user in consumers[v] if user is not producer]
            if left:
                consumers[v] = left
            else:
                del consumers[v]
                orphans.append(v)
    resume = index - sum(node in dead for node in graph.nodes[:index])
    graph.nodes[:] = [node for node in graph.nodes if node not in dead]

    # an inserted consumer went to the end of its value's list; a
    # rebuilt map has every list in schedule order
    touched = [consumers[v] for node in splice.insert for v in node.inputs
               if len(consumers.get(v, ())) > 1]
    touched += [consumers[new]] if len(consumers.get(new, ())) > 1 else []
    if touched:
        position = {node: i for i, node in enumerate(graph.nodes)}
        for nodes in touched:
            nodes.sort(key=position.__getitem__)
    return resume
