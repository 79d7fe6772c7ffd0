"""Runtime enforcement of a :class:`~repro.plan.MemoryPlan`.

The executor stays the single execution loop; :class:`PlanEnforcer` is
the :class:`~repro.runtime.executor.RunObserver` it attaches to a
budgeted run, acting at the node boundaries:

- ``after_node(i)``   — spill writes and remat drops scheduled after
  node ``i``'s frees (``-1``: right after input binding);
- ``before_node(step)`` — prefetch charges issued for the node, arrays
  bound for its consumers, remat chains replayed for it (through the
  kernels the run's :class:`~repro.runtime.executor.Schedule` bound);
- ``node_done(...)``  — the ``plan`` counter sample (planned vs live);
- ``finish(profile)`` — restore graph outputs spilled past their last
  use, hand ``plan_stats`` to the profile, emit the ``plan.*`` metrics;
- ``close()``         — stop the prefetch worker and clear the spill
  store; the executor calls it when the run ends *or raises*, so an
  abandoned run leaves neither a thread nor spilled tensors behind.

Within one boundary the actions run in the order
:func:`~repro.plan.bucket_actions` fixes — the same order the planner
priced them in.  Every byte movement goes through the
:class:`~repro.runtime.allocator.TensorAllocator` with the tagged
``spill`` / ``prefetch`` / ``remat`` actions, so an enforced run's
ledger is exactly the event list ``simulate(graph, actions=plan.buckets)``
predicts — the invariant `repro memcheck --budget` checks.

Failure semantics: a failed spill write falls back to keep-resident
(the request stays correct, the budget becomes best-effort); a failed
async prefetch is retried once synchronously and only then surfaces a
:class:`~repro.plan.store.SpillStoreError`.
"""

from __future__ import annotations

import logging
from typing import Mapping

import numpy as np

from ..kernels import Kernel
from ..plan.planner import MemoryPlan, RematAction, SpillAction
from ..plan.store import PrefetchWorker, SpillStore, SpillStoreError
from .allocator import TensorAllocator
from .executor import RunObserver
from .memory_profile import PlanStats

logger = logging.getLogger(__name__)

__all__ = ["PlanEnforcer"]


class PlanEnforcer(RunObserver):
    """Applies one plan's actions to one running inference."""

    def __init__(self, plan: MemoryPlan, allocator: TensorAllocator,
                 env: dict[str, np.ndarray], store: SpillStore | None,
                 tracer, kernels: Mapping[str, Kernel]) -> None:
        self.plan = plan
        self.allocator = allocator
        self.env = env
        self.tracer = tracer
        #: node name -> the run's bound kernel (the schedule's): a remat
        #: chain replays graph nodes
        self.kernels = kernels
        self.stats = PlanStats(budget_bytes=plan.budget_bytes,
                               planned_peak_bytes=plan.planned_peak_bytes)
        self._at = plan.buckets
        needs_store = bool(self._at.spill_at)
        self.store = store if store is not None else (
            SpillStore() if needs_store else None)
        self._worker = PrefetchWorker(self.store) if needs_store else None
        #: values whose spill write failed — kept resident instead
        self._failed: set[str] = set()

    # -- boundary hooks (called by the executor) ------------------------

    def before_node(self, step) -> None:
        index = step.index
        for a in self._at.issue_at.get(index, ()):
            self._issue(a)
        for a in self._at.bind_at.get(index, ()):
            self._bind(a)
        for a in self._at.remat_at.get(index, ()):
            self._remat(a)

    def node_done(self, step, in_arrays, out_array, start_us, end_us) -> None:
        if self.tracer.enabled:
            self.tracer.counter(
                "plan", planned_bytes=self.plan.planned_live[step.index],
                live_bytes=self.allocator.current_bytes)

    def after_node(self, index: int) -> None:
        for a in self._at.spill_at.get(index, ()):
            self._spill(a)
        for a in self._at.drop_at.get(index, ()):
            self._drop(a)

    def finish(self, profile) -> None:
        """Bind spilled graph outputs (sentinel ``next_use ==
        num_nodes``) and report what the plan did."""
        for a in self._at.bind_at.get(self.plan.num_nodes, ()):
            self._bind(a)
        profile.plan_stats = self.stats
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            metrics.inc("plan.spilled_bytes", self.stats.spilled_bytes)
            metrics.inc("plan.remat", self.stats.remats)
            metrics.gauge("plan.planned_peak_bytes",
                          self.plan.planned_peak_bytes)

    def close(self) -> None:
        if self._worker is not None:
            self._worker.close()
        if self.store is not None:
            self.store.clear()

    # -- the actions -----------------------------------------------------

    def _spill(self, a: SpillAction) -> None:
        name = a.value.name
        array = self.env[name]
        start = self.tracer.now_us()
        try:
            self.store.put(name, array)
        except SpillStoreError as exc:
            # graceful fallback: keep the tensor resident; the matching
            # prefetch is skipped and the request stays correct
            self._failed.add(name)
            self.stats.spill_failures += 1
            logger.warning("spill of %s failed, keeping resident: %s",
                           name, exc)
            self.tracer.instant("plan.spill_failed", category="plan",
                                value=name, bytes=a.nbytes, error=str(exc))
            self.tracer.metrics.inc("plan.spill_failures")
            return
        self.tracer.complete("plan.spill", start,
                             self.tracer.now_us() - start, category="plan",
                             value=name, bytes=a.nbytes,
                             spill_after=a.spill_after, next_use=a.next_use)
        self.allocator.free(a.value, action="spill")
        del self.env[name]
        self.stats.spills += 1
        self.stats.spilled_bytes += a.nbytes

    def _issue(self, a: SpillAction) -> None:
        name = a.value.name
        if name in self._failed:
            return  # never left residence
        # the bytes are charged when the transfer starts, not when it
        # lands — the conservative double-buffer accounting the planner
        # simulates
        self.allocator.alloc(a.value, action="prefetch")
        self._worker.issue(name)

    def _bind(self, a: SpillAction) -> None:
        name = a.value.name
        if name in self._failed:
            return
        start = self.tracer.now_us()
        try:
            array = self._worker.wait(name)
        except SpillStoreError:
            # one synchronous retry covers transient I/O; a second
            # failure means the data is gone and must surface
            self.stats.fetch_retries += 1
            self.tracer.metrics.inc("plan.fetch_retries")
            array = self.store.fetch(name)
        # the span duration is the prefetch *stall*: zero when the
        # transfer fully overlapped the preceding node's compute
        self.tracer.complete("plan.prefetch", start,
                             self.tracer.now_us() - start, category="plan",
                             value=name, bytes=a.nbytes,
                             issued_at=a.prefetch_issue)
        self.env[name] = array
        self.store.discard(name)
        self.stats.prefetches += 1
        self.stats.prefetched_bytes += a.nbytes

    def _remat(self, a: RematAction) -> None:
        start = self.tracer.now_us()
        target = a.value.name
        for cnode in a.chain:
            in_arrays = [self.env[v.name] for v in cnode.inputs]
            out_array = self.kernels[cnode.name](in_arrays)
            self.allocator.alloc(
                cnode.output,
                action="remat" if cnode.output.name == target else "alloc")
            self.env[cnode.output.name] = out_array
        for cnode in a.chain:
            if cnode.output.name != target:
                self.allocator.free(cnode.output)
                del self.env[cnode.output.name]
        self.tracer.complete("plan.remat", start,
                             self.tracer.now_us() - start, category="plan",
                             value=target, bytes=a.nbytes,
                             chain=[n.name for n in a.chain],
                             flops=a.recompute_flops)
        self.stats.remats += 1
        self.stats.remat_flops += a.recompute_flops

    def _drop(self, a: RematAction) -> None:
        # dropping ahead of a remat is an ordinary free: the bytes are
        # simply returned, nothing moves anywhere
        self.allocator.free(a.value)
        del self.env[a.value.name]
