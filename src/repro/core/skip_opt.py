"""Skip-connection optimization (paper §3.1, Algorithms 1 & 2).

The pass replaces the *distant* uses of a long-lived internal tensor
with a freshly copied restore chain that recomputes it on the spot from
its predecessor *reduced* tensors.  The big tensor's live range
collapses to its local uses; only the small reduced tensors stay
resident across the gap.

Pipeline of one optimization (Figure 7):

1. liveness finds skip connection ``b`` (lifespan > DISTANCE_THRESHOLD),
2. ``find_reduced`` (Algorithm 2) walks the PDG backwards from ``b``'s
   producer to the ``lconv`` leaves, collecting the restore chain in a
   peak-minimizing order (``Compare``/``Peak``),
3. ``_passes_overhead`` (Algorithm 1's ``Overhead``) rejects chains
   whose copies would cost more FLOPs than the corresponding original
   (non-decomposed) layers, or whose transient peak is out of
   proportion to the bytes being freed,
4. the chain is cloned immediately before each distant use and the use
   is rewired to the clone's output (``InsertBefore`` + replace).

The pass has only the paper's local ``Overhead`` guard.  A restore copy
usually raises the peak until the transforms and fusion collapse it, so
the global guard is the pipeline's: :func:`repro.core.optimize` also
compiles without skip-opt and keeps the lower peak.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from ..ir import ops as _ops
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.value import Value
from ..obs import get_tracer
from .liveness import SkipConnection, find_skip_connections

logger = logging.getLogger(__name__)

__all__ = ["SkipOptConfig", "SkipOptStats", "RestorePlan", "find_reduced",
           "optimize_skip_connections"]

#: ops cheap and side-effect-free enough to replicate in a restore chain
TRAVERSABLE_OPS = frozenset(
    _ops.ACTIVATION_OPS
    + ("add", "concat", "maxpool2d", "avgpool2d", "upsample_nearest",
       "batchnorm2d", "identity", "dropout"))

#: The local guard ``l.peak <= m``; we take ``m`` to be ``MEMORY_SLACK ×``
#: (bytes of the skip tensor + bytes of the reduced tensors kept alive),
#: rejecting chains whose transient peak dwarfs the memory they free.
MEMORY_SLACK = 4.0
#: Algorithm 2's recursion bails out beyond this many chain nodes (deep
#: ResNet-style chains; the overhead check would reject them anyway).
MAX_CHAIN_NODES = 48


@dataclass(frozen=True)
class SkipOptConfig:
    """Tuning knobs of Algorithm 1.

    distance_threshold:
        Minimum lifespan (in schedule slots) for a tensor to count as a
        skip connection (``DISTANCE_THRESHOLD``).
    compute_slack:
        Multiplier on the paper's ``COMPUTE_THRESHOLD`` (the FLOPs of
        the corresponding original, non-decomposed layers).  1.0
        reproduces the paper's setting.
    """

    distance_threshold: int = 4
    compute_slack: float = 1.0


@dataclass
class SkipOptStats:
    """What the pass did (reported by the benchmark harness)."""

    candidates: int = 0
    optimized: int = 0
    rejected_no_chain: int = 0
    rejected_compute: int = 0
    rejected_memory: int = 0
    copies_inserted: int = 0
    nodes_copied: int = 0


@dataclass(frozen=True)
class RestorePlan:
    """Algorithm 2's result ``res`` for one skip connection."""

    #: original nodes to clone, in (Compare-ordered) execution order
    nodes: tuple[Node, ...]
    #: SIZE(v): bytes of the skip tensor the chain recomputes
    size: int
    #: transient peak bytes of running the chain (Algorithm 2's Peak)
    peak: int
    #: the reduced tensors the chain reads (stay alive instead of the skip)
    reduced: tuple[Value, ...]
    #: FLOPs of one copy of the chain
    flops: int
    #: FLOPs of the corresponding original (pre-decomposition) layers
    orig_flops: int


def find_reduced(graph: Graph, node: Node) -> RestorePlan | None:
    """Algorithm 2 ``FindReduced``: restore chain ending at ``node``.

    Returns ``None`` when some branch of the predecessor walk does not
    terminate at an ``lconv`` through traversable ops — then the tensor
    cannot be recomputed from reduced tensors and the skip connection
    is left alone — or when the chain outgrows :data:`MAX_CHAIN_NODES`.
    """
    seen: dict[int, RestorePlan] = {}

    def visit(n: Node, budget: list[int]) -> RestorePlan | None:
        if id(n) in seen:
            cached = seen[id(n)]
            # shared sub-chain: already counted, contributes no new nodes
            return cached
        if budget[0] <= 0:
            return None
        if _ops.is_lconv(n):
            budget[0] -= 1
            pred = n.inputs[0]
            plan = RestorePlan(
                nodes=(n,), size=n.output.nbytes,
                peak=n.output.nbytes + pred.nbytes,
                reduced=(pred,), flops=_ops.node_flops(n),
                orig_flops=int(n.attrs.get("orig_flops", _ops.node_flops(n))))
            seen[id(n)] = plan
            return plan
        if n.op not in TRAVERSABLE_OPS:
            return None
        budget[0] -= 1
        sub_plans: list[RestorePlan] = []
        for v in n.inputs:
            producer = graph.producer_of(v)
            if producer is None:  # graph input: nothing to recompute from
                return None
            sub = visit(producer, budget)
            if sub is None:
                return None
            sub_plans.append(sub)
        ordered = _order_by_compare(sub_plans)
        nodes: list[Node] = []
        seen_nodes: set[int] = set()
        for sub in ordered:
            for m in sub.nodes:
                if id(m) not in seen_nodes:
                    seen_nodes.add(id(m))
                    nodes.append(m)
        nodes.append(n)
        reduced: list[Value] = []
        seen_reduced: set[int] = set()
        for sub in ordered:
            for r in sub.reduced:
                if id(r) not in seen_reduced:
                    seen_reduced.add(id(r))
                    reduced.append(r)
        plan = RestorePlan(
            nodes=tuple(nodes), size=n.output.nbytes,
            peak=_peak(ordered, n.output.nbytes),
            reduced=tuple(reduced),
            flops=sum(_ops.node_flops(m) for m in nodes),
            orig_flops=sum(
                int(m.attrs.get("orig_flops", _ops.node_flops(m)))
                if _ops.is_lconv(m) else _ops.node_flops(m)
                for m in nodes))
        seen[id(n)] = plan
        return plan

    return visit(node, [MAX_CHAIN_NODES])


def _order_by_compare(plans: list[RestorePlan]) -> list[RestorePlan]:
    """Algorithm 2's ``ORDER(Compare, predList)``.

    ``Compare(a, b)`` prefers running ``a`` first when
    ``a.size + b.peak < b.size + a.peak`` — i.e. schedule first the
    sub-chain whose resident result is small relative to its transient
    peak, so the big transients do not stack on top of big residents.
    """
    import functools

    def cmp(a: RestorePlan, b: RestorePlan) -> int:
        lhs = a.size + b.peak
        rhs = b.size + a.peak
        return -1 if lhs < rhs else (1 if lhs > rhs else 0)

    return sorted(plans, key=functools.cmp_to_key(cmp))


def _peak(ordered: list[RestorePlan], final_size: int) -> int:
    """Algorithm 2's ``Peak``: transient peak of running the sub-chains
    in order, keeping each result resident, then producing the root."""
    peak = 0
    resided = 0
    for e in ordered:
        peak = max(resided + e.peak, peak)
        resided += e.size
    return max(resided + final_size, peak)


def _passes_overhead(skip: SkipConnection, plan: RestorePlan,
                     config: SkipOptConfig, stats: SkipOptStats) -> bool:
    """Algorithm 1's ``Overhead`` guard (compute + local memory)."""
    tracer = get_tracer()
    copies = len(skip.far_uses)
    total_copy_flops = plan.flops * copies
    if total_copy_flops > config.compute_slack * plan.orig_flops:
        stats.rejected_compute += 1
        tracer.decision("skip_opt", skip.value.name, "reject",
                        "compute_overhead", copy_flops=total_copy_flops,
                        threshold_flops=config.compute_slack * plan.orig_flops,
                        copies=copies, chain_nodes=len(plan.nodes))
        logger.debug("skip_opt: %s rejected (copy flops %d > threshold %d)",
                     skip.value.name, total_copy_flops, plan.orig_flops)
        return False
    freed = skip.value.nbytes + sum(r.nbytes for r in plan.reduced)
    if plan.peak > MEMORY_SLACK * freed:
        stats.rejected_memory += 1
        tracer.decision("skip_opt", skip.value.name, "reject",
                        "memory_overhead", chain_peak_bytes=plan.peak,
                        freed_bytes=freed, memory_slack=MEMORY_SLACK)
        logger.debug("skip_opt: %s rejected (chain peak %d B > %.1fx freed %d B)",
                     skip.value.name, plan.peak, MEMORY_SLACK, freed)
        return False
    return True


def optimize_skip_connections(graph: Graph,
                              config: SkipOptConfig | None = None) -> SkipOptStats:
    """Algorithm 1: optimize every qualifying skip connection in place."""
    config = config or SkipOptConfig()
    stats = SkipOptStats()
    tracer = get_tracer()
    with tracer.span("skip_opt", category="compiler", graph=graph.name):
        skips = find_skip_connections(graph, config.distance_threshold)
        stats.candidates = len(skips)
        logger.debug("skip_opt: %d candidate skip connections in %s",
                     len(skips), graph.name)

        for skip in sorted(skips, key=lambda s: s.interval.begin):
            with tracer.span(f"restore_plan:{skip.value.name}",
                             category="compiler",
                             skip_bytes=skip.value.nbytes,
                             far_uses=len(skip.far_uses)):
                plan = find_reduced(graph, skip.producer)
                if plan is None:
                    stats.rejected_no_chain += 1
                    tracer.decision("skip_opt", skip.value.name, "reject",
                                    "no_chain", skip_bytes=skip.value.nbytes,
                                    far_uses=len(skip.far_uses))
                    logger.debug("skip_opt: %s has no reduced restore chain",
                                 skip.value.name)
                    continue
                if not _passes_overhead(skip, plan, config, stats):
                    continue

                _apply(graph, skip, plan)
                stats.optimized += 1
                stats.copies_inserted += len(skip.far_uses)
                stats.nodes_copied += len(plan.nodes) * len(skip.far_uses)
                tracer.decision("skip_opt", skip.value.name, "accept", "ok",
                                skip_bytes=skip.value.nbytes,
                                chain_peak_bytes=plan.peak,
                                copies=len(skip.far_uses),
                                nodes_copied=len(plan.nodes) * len(skip.far_uses),
                                copy_flops=plan.flops * len(skip.far_uses))
                logger.info("skip_opt: optimized %s (%d B, %d restore copies)",
                            skip.value.name, skip.value.nbytes,
                            len(skip.far_uses))
        graph.dead_code_eliminate()
        graph.validate()
    return stats


def _apply(graph: Graph, skip: SkipConnection, plan: RestorePlan) -> None:
    """Clone the restore chain before each far use; rewire the use."""
    for use in skip.far_uses:
        mapping: dict[Value, Value] = {}
        clones: list[Node] = []
        for original in plan.nodes:
            new_inputs = [mapping.get(v, v) for v in original.inputs]
            out_name = graph.namer.fresh(original.output.name)
            out = Value(out_name, original.output.shape, original.output.dtype)
            clone = original.clone(name=graph.namer.fresh(original.name),
                                   inputs=new_inputs, output=out)
            mapping[original.output] = out
            clones.append(clone)
        graph.insert_before(use, clones)
        use.replace_input(skip.value, mapping[skip.value])
