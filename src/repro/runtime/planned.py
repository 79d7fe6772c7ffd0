"""Runtime enforcement of a :class:`~repro.plan.MemoryPlan`.

The executor stays the single execution loop; :class:`PlanEnforcer` is
the :class:`~repro.runtime.executor.RunObserver` it attaches to a
budgeted run, acting at the node boundaries:

- ``after_node(i)``   — spill writes scheduled after node ``i``'s frees
  (``-1``: right after input binding);
- ``before_node(step)`` — prefetch charges issued for the node, then
  arrays bound for its consumers;
- ``node_done(...)``  — the ``plan`` counter sample (planned vs live);
- ``finish(profile)`` — restore graph outputs spilled past their last
  use, hand ``plan_stats`` to the profile, emit the ``plan.*`` metrics.

A spilled array is parked in a dict the enforcer owns, the simulated
analogue of pinned host RAM; the enforcer is built per run, so a run
shares no spill state with any other and an abandoned run's spilled
arrays go with it.  It runs no node: every node runs once, in the
executor loop.

Within one boundary the actions run in the order
:func:`~repro.plan.bucket_actions` fixes — the same order the planner
simulated them in.  Every byte movement goes through the
:class:`~repro.runtime.allocator.TensorAllocator` with the tagged
``spill`` / ``prefetch`` actions, so an enforced run's
ledger is exactly the event list ``simulate(graph, actions=plan.buckets)``
predicts — the invariant `repro memcheck --budget` checks.
"""

from __future__ import annotations

import numpy as np

from ..plan.planner import MemoryPlan, SpillAction
from .allocator import TensorAllocator
from .executor import RunObserver
from .memory_profile import PlanStats

__all__ = ["PlanEnforcer"]


class PlanEnforcer(RunObserver):
    """Applies one plan's actions to one running inference."""

    def __init__(self, plan: MemoryPlan, allocator: TensorAllocator,
                 env: dict[str, np.ndarray], tracer) -> None:
        self.plan = plan
        self.allocator = allocator
        self.env = env
        self.tracer = tracer
        self.stats = PlanStats(budget_bytes=plan.budget_bytes,
                               planned_peak_bytes=plan.planned_peak_bytes)
        self._at = plan.buckets
        #: value name -> array spilled out of ``env``, until it is bound
        self.spilled: dict[str, np.ndarray] = {}

    # -- boundary hooks (called by the executor) ------------------------

    def before_node(self, step) -> None:
        index = step.index
        for a in self._at.issue_at.get(index, ()):
            self._issue(a)
        for a in self._at.bind_at.get(index, ()):
            self._bind(a)

    def node_done(self, step, in_arrays, out_array, start_us, end_us) -> None:
        if self.tracer.enabled:
            self.tracer.counter(
                "plan", planned_bytes=self.plan.planned_live[step.index],
                live_bytes=self.allocator.current_bytes)

    def after_node(self, index: int) -> None:
        for a in self._at.spill_at.get(index, ()):
            self._spill(a)

    def finish(self, profile) -> None:
        """Bind spilled graph outputs (sentinel ``next_use ==
        num_nodes``) and report what the plan did."""
        for a in self._at.bind_at.get(self.plan.num_nodes, ()):
            self._bind(a)
        profile.plan_stats = self.stats
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            metrics.inc("plan.spilled_bytes", self.stats.spilled_bytes)
            metrics.gauge("plan.planned_peak_bytes",
                          self.plan.planned_peak_bytes)

    # -- the actions -----------------------------------------------------

    def _spill(self, a: SpillAction) -> None:
        name = a.value.name
        start = self.tracer.now_us()
        self.spilled[name] = self.env.pop(name)
        self.tracer.complete("plan.spill", start,
                             self.tracer.now_us() - start, category="plan",
                             value=name, bytes=a.nbytes,
                             spill_after=a.spill_after, next_use=a.next_use)
        self.allocator.free(a.value, action="spill")
        self.stats.spills += 1
        self.stats.spilled_bytes += a.nbytes

    def _issue(self, a: SpillAction) -> None:
        # the bytes are charged when the transfer starts, not when it
        # lands — the conservative double-buffer accounting the planner
        # simulates
        self.allocator.alloc(a.value, action="prefetch")

    def _bind(self, a: SpillAction) -> None:
        name = a.value.name
        start = self.tracer.now_us()
        self.env[name] = self.spilled.pop(name)
        # the span duration is the prefetch *stall*: zero when the
        # transfer fully overlapped the preceding node's compute
        self.tracer.complete("plan.prefetch", start,
                             self.tracer.now_us() - start, category="plan",
                             value=name, bytes=a.nbytes,
                             issued_at=a.prefetch_issue)
        self.stats.prefetches += 1
        self.stats.prefetched_bytes += a.nbytes
