"""Graph executor with framework-faithful memory accounting.

Executes the schedule (``graph.nodes`` order) with last-use frees: a
value's array is dropped — and its bytes returned to the allocator —
immediately after its last consumer runs, exactly the policy the
paper's Eq. 3/4 peak analysis models and the free lists
:func:`repro.core.liveness.simulate` predicts with.  Graph inputs are
live from the start; graph outputs stay live to the end.

The executor measures, per node, the live internal bytes *during* that
node's execution (inputs + output + long-lived tensors), producing the
:class:`~repro.runtime.memory_profile.MemoryProfile` timeline that the
Figure-4/10 benchmarks report, plus optional wall-clock timings for
Figure 11.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from ..core.liveness import free_schedule, reuses_input_buffer
from ..ir.graph import Graph
from ..ir.ops import node_flops
from ..obs import get_tracer
from .allocator import TensorAllocator
from .ledger import AllocationLedger
from .memory_profile import MemoryEvent, MemoryProfile

__all__ = ["execute", "ExecutionResult", "NodeTiming"]


@dataclass(frozen=True)
class NodeTiming:
    index: int
    node_name: str
    op: str
    seconds: float


@dataclass
class ExecutionResult:
    """Outputs plus the memory/time measurements of one inference."""

    outputs: dict[str, np.ndarray]
    memory: MemoryProfile
    timings: list[NodeTiming] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.timings)

    def output(self) -> np.ndarray:
        """The sole output (raises if the graph has several)."""
        if len(self.outputs) != 1:
            raise ValueError(f"graph has {len(self.outputs)} outputs: {sorted(self.outputs)}")
        return next(iter(self.outputs.values()))


def execute(graph: Graph, inputs: dict[str, np.ndarray], *,
            record_timings: bool = False,
            record_ledger: bool = False,
            count_fused_scratch: bool = False,
            inplace_activations: bool = False,
            check_leaks: bool = True,
            check_finite: bool = False,
            plan=None,
            spill_store=None,
            tracer=None) -> ExecutionResult:
    """Run ``graph`` on ``inputs`` (name -> array).

    Parameters
    ----------
    record_timings:
        Collect per-node wall-clock times (Figure 11).
    record_ledger:
        Record every allocator event (tensor, bytes, owning node,
        timestamp) into an
        :class:`~repro.runtime.ledger.AllocationLedger`, attached to
        the result as ``result.memory.ledger``.  The ledger is the
        input of the conformance auditor (:mod:`repro.obs.audit`).
    count_fused_scratch:
        If True, the fused kernels' channel-block tiles are charged to
        the allocator as transient scratch (the honest-accounting
        ablation); by default they are tracked separately, matching the
        paper's placement of tiles in GPU shared memory.
    inplace_activations:
        Model ``inplace=True`` activations: when an element-wise op is
        its input's last consumer, the input's bytes are released
        *before* the output is charged, so the pair never coexists.
        The default False matches the paper's Eq. 3/4 accounting.
    check_leaks:
        Assert that only graph outputs remain live at the end.
    check_finite:
        Debugging aid: raise ``FloatingPointError`` naming the first
        node that produces a non-finite value (NaN/inf), instead of
        letting it propagate silently to the output.
    plan:
        A :class:`~repro.plan.MemoryPlan` to enforce: spill, prefetch
        and remat actions run at node boundaries via
        :class:`~repro.runtime.planned.PlanEnforcer`, keeping the
        measured peak at the plan's predicted peak while outputs stay
        bitwise-identical.  Incompatible with ``inplace_activations``
        (the plan was simulated against the default accounting).
    spill_store:
        The :class:`~repro.plan.SpillStore` backing the plan's spill
        actions; a fresh in-memory store is created when omitted.
    tracer:
        An :class:`repro.obs.Tracer` to record per-node spans, the
        ``memory`` counter track, and allocator alloc/free events into.
        Defaults to the ambient tracer (:func:`repro.obs.get_tracer`),
        which is a no-op unless one was installed — the hot path guards
        on ``tracer.enabled`` so disabled tracing adds no allocations.
    """
    if tracer is None:
        tracer = get_tracer()
    tracing = tracer.enabled
    env: dict[str, np.ndarray] = {}
    allocator = TensorAllocator()
    if tracing:
        allocator.tracer = tracer
    ledger: AllocationLedger | None = None
    if record_ledger:
        ledger = allocator.ledger = AllocationLedger()
        ledger.position(-1, "")  # graph-input binding phase
    enforcer = None
    if plan is not None:
        if inplace_activations:
            raise ValueError(
                "a memory plan cannot be enforced with inplace_activations: "
                "the plan's peak was simulated against the default accounting")
        if plan.num_nodes != len(graph.nodes):
            raise ValueError(
                f"plan for {plan.graph_name!r} covers {plan.num_nodes} nodes "
                f"but graph {graph.name!r} has {len(graph.nodes)}")
        from .planned import PlanEnforcer
        enforcer = PlanEnforcer(plan, allocator, env, spill_store, tracer)
    profile = MemoryProfile(weight_bytes=graph.weight_bytes(), ledger=ledger)
    timings: list[NodeTiming] = []

    frees_after = free_schedule(graph)

    # bind and account graph inputs
    for v in graph.inputs:
        try:
            arr = inputs[v.name]
        except KeyError as exc:
            raise KeyError(f"missing input {v.name!r}; graph inputs: "
                           f"{[i.name for i in graph.inputs]}") from exc
        if tuple(arr.shape) != v.shape:
            raise ValueError(f"input {v.name!r} has shape {arr.shape}, expected {v.shape}")
        env[v.name] = np.asarray(arr, dtype=v.dtype.np)
        allocator.alloc(v)
        if v in frees_after[-1]:
            # unused input: free immediately (still counted as allocated once)
            allocator.free(v)
            del env[v.name]
    if enforcer is not None:
        enforcer.after_inputs()

    for index, node in enumerate(graph.nodes):
        if ledger is not None:
            ledger.position(index, node.name)
        if enforcer is not None:
            enforcer.before_node(index)
        in_arrays = [env[v.name] for v in node.inputs]
        start = time.perf_counter() if record_timings else 0.0
        span_start = tracer.now_us() if tracing else 0.0
        out_array = kernels.run_node(node, in_arrays)
        # the span is recorded after the scratch block below so it can
        # carry the fused-tile bytes; the end timestamp is taken here,
        # so the recorded duration covers the kernel alone
        span_end = tracer.now_us() if tracing else 0.0
        if check_finite and not np.isfinite(out_array).all():
            bad = int((~np.isfinite(out_array)).sum())
            raise FloatingPointError(
                f"node {node.name!r} ({node.op}) produced {bad} non-finite "
                f"value(s) at schedule index {index}")
        if record_timings:
            timings.append(NodeTiming(index, node.name, node.op,
                                      time.perf_counter() - start))

        # in-place elementwise: release the dying input before charging
        # the output, so the pair never coexists in the accounting
        dying = frees_after[index]
        if inplace_activations and reuses_input_buffer(node, dying):
            v, dying = dying[0], dying[1:]  # a unary op: its input leads
            allocator.free(v)
            del env[v.name]
            if tracing:
                tracer.instant("reuse", category="allocator",
                               value=node.output.name, source=v.name,
                               bytes=node.output.nbytes)

        allocator.alloc(node.output)
        env[node.output.name] = out_array

        scratch = 0
        if node.op in ("fused_block", "fused_restore"):
            scratch = kernels.fused_scratch_bytes(
                node.input.shape, node.input.dtype.itemsize,
                block_size=int(node.attrs.get("block_size", kernels.DEFAULT_BLOCK_SIZE)),
                c_prime=node.params["w1"].shape[0],
                spatial_tile=int(node.attrs.get("spatial_tile", 0) or 0))
            profile.peak_scratch_bytes = max(profile.peak_scratch_bytes, scratch)
            if count_fused_scratch:
                allocator.charge_scratch(scratch)

        profile.events.append(MemoryEvent(
            index=index, node_name=node.name, op=node.op,
            live_bytes=allocator.current_bytes, scratch_bytes=scratch))
        if tracing:
            # bytes = data the kernel touched (inputs + output +
            # weights); with the analytic FLOP count this gives the
            # hot-path profiler (repro.obs.profile) the arithmetic
            # intensity of every executed node
            moved = (sum(int(a.nbytes) for a in in_arrays)
                     + int(out_array.nbytes) + node.param_bytes())
            tracer.complete(node.name, span_start, span_end - span_start,
                            category=node.op, index=index, op=node.op,
                            bytes=moved, flops=node_flops(node),
                            scratch=scratch)
            tracer.counter("memory", live_bytes=allocator.current_bytes,
                           scratch_bytes=scratch)
            if enforcer is not None:
                tracer.counter("plan",
                               planned_bytes=plan.planned_live[index],
                               live_bytes=allocator.current_bytes)

        # inputs whose last use just ran, and a dead-end output (no
        # consumers, not a graph output) as soon as its layer finishes
        for v in dying:
            allocator.free(v)
            del env[v.name]
        if enforcer is not None:
            enforcer.after_node(index)

    if enforcer is not None:
        enforcer.finish()
    outputs = {v.name: env[v.name] for v in graph.outputs}
    if check_leaks:
        allocator.assert_empty(keep={v.name for v in graph.outputs})

    profile.peak_internal_bytes = allocator.peak_bytes
    profile.peak_live_set = allocator.peak_live_set
    profile.total_allocated_bytes = allocator.total_allocated_bytes
    profile.num_allocations = allocator.num_allocations
    if enforcer is not None:
        profile.plan_stats = enforcer.stats
        if tracing:
            tracer.metrics.inc("plan.spilled_bytes",
                               enforcer.stats.spilled_bytes)
            tracer.metrics.inc("plan.remat", enforcer.stats.remats)
            tracer.metrics.gauge("plan.planned_peak_bytes",
                                 plan.planned_peak_bytes)
    if tracing:
        tracer.metrics.inc("executor.runs")
        tracer.metrics.inc("executor.nodes_executed", len(graph.nodes))
        tracer.metrics.inc("executor.allocation_traffic_bytes",
                           allocator.total_allocated_bytes)
        tracer.metrics.gauge("executor.peak_internal_bytes",
                             allocator.peak_bytes)
        tracer.metrics.gauge("executor.peak_scratch_bytes",
                             profile.peak_scratch_bytes)
    return ExecutionResult(outputs=outputs, memory=profile, timings=timings)
