"""repro.plan: budget-constrained memory planning.

A new layer between compilation and execution: given an optimized
graph and a byte budget, :func:`plan_memory` chooses which tensors to
spill across their liveness gaps (the rest are recorded as ``keep``),
and the runtime enforces those spills at node boundaries (see
:mod:`repro.runtime.planned`), trading host-link transfers for resident
bytes as a user-facing contract.
"""

from .budget import BudgetSyntaxError, format_bytes, parse_budget
from .planner import (ActionBuckets, InfeasibleBudget, KeepAction, MemoryPlan,
                      PlanAction, SpillAction, bucket_actions, plan_memory)

__all__ = [
    "BudgetSyntaxError",
    "parse_budget",
    "format_bytes",
    "KeepAction",
    "SpillAction",
    "PlanAction",
    "MemoryPlan",
    "InfeasibleBudget",
    "plan_memory",
    "ActionBuckets",
    "bucket_actions",
]
