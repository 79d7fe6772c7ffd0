"""Graph executor with framework-faithful memory accounting.

One loop runs a prebuilt :class:`Schedule` (``graph.nodes`` order) with
last-use frees: a value's array is dropped — and its bytes returned to
the allocator — immediately after its last consumer runs, exactly the
policy the paper's Eq. 3/4 peak analysis models and the free lists
:func:`repro.core.liveness.simulate` predicts with.  Graph inputs are
live from the start; graph outputs stay live to the end.

The loop itself only calls each step's bound kernel (every node is
bound once, when the :class:`Schedule` is built — the loop never looks a
kernel up or reads a node's attrs), checks its output shape, keeps the
byte account from the step's precomputed sizes and samples,
per node, the live internal bytes *during* that node's execution
(inputs + output + long-lived tensors) into the
:class:`~repro.runtime.memory_profile.MemoryProfile` timeline the
Figure-4/10 benchmarks report.  It stamps each step's index on the
allocator, so every allocator event — the ledger's and the tracer's
allocator instants — names the node it fired at.  Everything else a
run can be asked for is a :class:`RunObserver` attached for that run,
in this order: the finite check, the tracer (node spans, the ``memory``
counter, ``executor.*`` metrics) and the memory plan's
:class:`~repro.runtime.planned.PlanEnforcer`.  Observers are built per
run and hold nothing past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .. import kernels
from ..core.liveness import LedgerEvent, free_schedule, reuses_input_buffer
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.ops import node_flops
from ..ir.value import Value
from ..obs import NOOP_TRACER, get_tracer
from .allocator import TensorAllocator
from .memory_profile import MemoryProfile

__all__ = ["execute", "ExecutionResult"]


class Step(NamedTuple):
    """One node of a :class:`Schedule` with what the graph fixes about it."""

    index: int
    node: Node
    #: the node's kernel, bound once (:func:`repro.kernels.bind`)
    kernel: kernels.Kernel
    #: bytes of the node's output, what the allocator charges for it
    out_bytes: int
    #: values freed right after the node, in the executor's order
    dying: tuple[Value, ...]
    #: the in-place rule applies (:func:`reuses_input_buffer`): under
    #: ``inplace_activations`` the node overwrites ``dying[0]``
    overwrites_input: bool
    #: channel-block tile bytes of a fused kernel, 0 for any other op
    scratch_bytes: int
    #: analytic FLOP count (:func:`repro.ir.ops.node_flops`)
    flops: int
    #: data the kernel touches: inputs + output + weights.  With
    #: ``flops`` it gives the hot-path profiler (:mod:`repro.obs.profile`)
    #: the arithmetic intensity of every node
    bytes_moved: int


class Schedule:
    """Everything about running ``graph`` that no input can change.

    Built once per :class:`~repro.runtime.engine.InferenceSession`
    (:func:`execute` builds a throw-away one when handed a bare graph):
    free lists, byte sizes and every node's bound kernel, which keeps
    what it derived from the node's attrs and ``params``.  Neither the
    graph nor its weights may be mutated afterwards.  The schedule holds
    no per-run state, so several threads may run it at once.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        frees_after = free_schedule(graph)
        #: inputs no node reads: freed as soon as they are bound
        self.unused_inputs = frees_after[-1]
        self.weight_bytes = graph.weight_bytes()
        self.steps = tuple(
            Step(index, node, kernels.bind(node), node.output.nbytes,
                 frees_after[index],
                 reuses_input_buffer(node, frees_after[index]),
                 kernels.site_scratch_bytes(node), node_flops(node),
                 sum(v.nbytes for v in node.inputs) + node.output.nbytes
                 + node.param_bytes())
            for index, node in enumerate(graph.nodes))
        self.peak_scratch_bytes = max(
            (step.scratch_bytes for step in self.steps), default=0)


class RunObserver:
    """What one run reports to besides its result; every hook defaults
    to a no-op.  ``after_node(-1)`` fires once graph inputs are bound."""

    def before_node(self, step: Step) -> None:
        """The node is about to run; its inputs are not gathered yet."""

    def node_done(self, step: Step, in_arrays: list[np.ndarray],
                  out_array: np.ndarray, start_us: float,
                  end_us: float) -> None:
        """The kernel ran over ``[start_us, end_us]`` and its output is
        charged; nothing the node kills has been freed yet."""

    def after_node(self, index: int) -> None:
        """The boundary after node ``index``'s frees."""

    def finish(self, profile: MemoryProfile) -> None:
        """The last node is done and ``profile`` holds the run's totals."""


class _FiniteCheck(RunObserver):
    def node_done(self, step, in_arrays, out_array, start_us, end_us):
        if not np.isfinite(out_array).all():
            bad = int((~np.isfinite(out_array)).sum())
            raise FloatingPointError(
                f"node {step.node.name!r} ({step.node.op}) produced {bad} "
                f"non-finite value(s) at schedule index {step.index}")


class _TraceObserver(RunObserver):
    """Node spans, the ``memory`` counter track, allocator instants and
    the ``executor.*`` metrics of one traced run."""

    def __init__(self, tracer, allocator: TensorAllocator,
                 inplace_activations: bool) -> None:
        self.tracer = tracer
        self.allocator = allocator
        self.inplace_activations = inplace_activations
        self._overwrite: Step | None = None
        allocator.sinks.append(self.allocator_event)

    def allocator_event(self, event: LedgerEvent) -> None:
        if event.action == "scratch":  # belongs to no tensor
            self.tracer.instant("scratch", category="allocator",
                                bytes=event.nbytes,
                                live_bytes=event.live_bytes)
            return
        self.tracer.instant(event.action, category="allocator",
                            value=event.value, bytes=event.nbytes,
                            live_bytes=event.live_bytes)
        step = self._overwrite
        if step is not None and event.value == step.dying[0].name:
            # the in-place release: the output takes over this buffer
            self._overwrite = None
            self.tracer.instant("reuse", category="allocator",
                                value=step.node.output.name,
                                source=event.value, bytes=step.out_bytes)

    def before_node(self, step):
        if self.inplace_activations and step.overwrites_input:
            self._overwrite = step

    def node_done(self, step, in_arrays, out_array, start_us, end_us):
        node = step.node
        self.tracer.complete(node.name, start_us, end_us - start_us,
                             category=node.op, index=step.index, op=node.op,
                             bytes=step.bytes_moved, flops=step.flops,
                             scratch=step.scratch_bytes)
        self.tracer.counter("memory",
                            live_bytes=self.allocator.current_bytes,
                            scratch_bytes=step.scratch_bytes)

    def finish(self, profile):
        metrics = self.tracer.metrics
        metrics.inc("executor.runs")
        metrics.inc("executor.nodes_executed", len(profile.events))
        metrics.inc("executor.allocation_traffic_bytes",
                    profile.total_allocated_bytes)
        metrics.gauge("executor.peak_internal_bytes",
                      profile.peak_internal_bytes)
        metrics.gauge("executor.peak_scratch_bytes",
                      profile.peak_scratch_bytes)


@dataclass
class ExecutionResult:
    """Outputs plus the memory measurements of one inference."""

    outputs: dict[str, np.ndarray]
    memory: MemoryProfile

    def output(self) -> np.ndarray:
        """The sole output (raises if the graph has several)."""
        if len(self.outputs) != 1:
            raise ValueError(f"graph has {len(self.outputs)} outputs: {sorted(self.outputs)}")
        return next(iter(self.outputs.values()))


def execute(graph: Graph | Schedule, inputs: dict[str, np.ndarray], *,
            record_ledger: bool = False,
            count_fused_scratch: bool = False,
            inplace_activations: bool = False,
            check_finite: bool = False,
            plan=None,
            tracer=None) -> ExecutionResult:
    """Run ``graph`` (or its prebuilt :class:`Schedule`) on ``inputs``
    (name -> array); only graph outputs may remain live at the end.

    Parameters
    ----------
    record_ledger:
        Record every allocator event as a
        :class:`~repro.core.liveness.LedgerEvent` into the list
        ``result.memory.ledger``.  The conformance auditor
        (:mod:`repro.obs.audit`) holds it against the events
        :func:`~repro.core.liveness.simulate` predicts.
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
    check_finite:
        Debugging aid: raise ``FloatingPointError`` naming the first
        node that produces a non-finite value (NaN/inf), instead of
        letting it propagate silently to the output.
    plan:
        A :class:`~repro.plan.MemoryPlan` to enforce: its spills and
        prefetches run at node boundaries via
        :class:`~repro.runtime.planned.PlanEnforcer`, keeping the
        measured peak at the plan's predicted peak while outputs stay
        bitwise-identical.  Incompatible with ``inplace_activations``
        (the plan was simulated against the default accounting).
    tracer:
        An :class:`repro.obs.Tracer` to record per-node spans, the
        ``memory`` counter track, and allocator alloc/free events into.
        Defaults to the ambient tracer (:func:`repro.obs.get_tracer`),
        which is a no-op unless one was installed — a disabled tracer
        gets no observer, so it is never invoked on the hot path.
    """
    schedule = graph if isinstance(graph, Schedule) else Schedule(graph)
    graph = schedule.graph
    if tracer is None:
        tracer = get_tracer()
    env: dict[str, np.ndarray] = {}
    allocator = TensorAllocator()
    profile = MemoryProfile(weight_bytes=schedule.weight_bytes,
                            peak_scratch_bytes=schedule.peak_scratch_bytes)
    observers: list[RunObserver] = []
    now_us = NOOP_TRACER.now_us
    if check_finite:
        observers.append(_FiniteCheck())
    if record_ledger:
        profile.ledger = []
        allocator.sinks.append(profile.ledger.append)
    if tracer.enabled:
        now_us = tracer.now_us
        observers.append(_TraceObserver(tracer, allocator,
                                        inplace_activations))
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
        observers.append(PlanEnforcer(plan, allocator, env, tracer))

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
        if v in schedule.unused_inputs:
            # freed at once (still counted as allocated once)
            allocator.free(v)
            del env[v.name]
    for observer in observers:
        observer.after_node(-1)

    for step in schedule.steps:
        node = step.node
        allocator.node_index = step.index
        for observer in observers:
            observer.before_node(step)
        in_arrays = [env[v.name] for v in node.inputs]
        start_us = now_us()
        out_array = step.kernel(in_arrays)
        end_us = now_us()
        if out_array.shape != node.output.shape:
            raise kernels.output_shape_error(node, out_array)

        # in-place elementwise: release the dying input before
        # charging the output, so the pair never coexists in the
        # accounting
        dying = step.dying
        if inplace_activations and step.overwrites_input:
            v, dying = dying[0], dying[1:]  # a unary op: its input leads
            allocator.free(v)
            del env[v.name]
        allocator.alloc(node.output, nbytes=step.out_bytes)
        env[node.output.name] = out_array
        if count_fused_scratch:
            allocator.charge_scratch(step.scratch_bytes)
        profile.events.append(allocator.current_bytes)
        for observer in observers:
            observer.node_done(step, in_arrays, out_array, start_us, end_us)

        # inputs whose last use just ran, and a dead-end output (no
        # consumers, not a graph output) as soon as its layer finishes
        for v in dying:
            allocator.free(v)
            del env[v.name]
        for observer in observers:
            observer.after_node(step.index)

    profile.peak_internal_bytes = allocator.peak_bytes
    profile.peak_live_set = allocator.peak_live_set
    profile.total_allocated_bytes = allocator.total_allocated_bytes
    profile.num_allocations = allocator.num_allocations
    for observer in observers:
        observer.finish(profile)
    allocator.assert_empty(keep={v.name for v in graph.outputs})
    return ExecutionResult(
        outputs={v.name: env[v.name] for v in graph.outputs}, memory=profile)
