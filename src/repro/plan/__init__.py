"""repro.plan: budget-constrained memory planning.

A new layer between compilation and execution: given an optimized
graph and a byte budget, :func:`plan_memory` chooses per-tensor
``keep`` / ``spill`` / ``remat`` actions that the runtime enforces at
node boundaries (see :mod:`repro.runtime.planned`), trading compute
and host-link transfers for resident bytes — the paper's core trade,
promoted to a user-facing contract.
"""

from .budget import BudgetSyntaxError, format_bytes, parse_budget
from .planner import (ActionBuckets, InfeasibleBudget, KeepAction, MemoryPlan,
                      PlanAction, PlanCostModel, RematAction, SpillAction,
                      bucket_actions, plan_memory)

__all__ = [
    "BudgetSyntaxError",
    "parse_budget",
    "format_bytes",
    "PlanCostModel",
    "KeepAction",
    "SpillAction",
    "RematAction",
    "PlanAction",
    "MemoryPlan",
    "InfeasibleBudget",
    "plan_memory",
    "ActionBuckets",
    "bucket_actions",
]
