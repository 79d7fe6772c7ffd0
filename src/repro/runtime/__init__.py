"""Execution runtime: allocator, executor, sessions."""

from .allocator import AllocationError, TensorAllocator
from .arena import ArenaPlan, ArenaSlot, plan_arena
from .engine import InferenceSession, TimingResult
from .executor import ExecutionResult, execute
from .ledger import AllocationLedger, LedgerEvent, TensorLifetime
from .memory_profile import MemoryEvent, MemoryProfile, PlanStats
from .planned import PlanEnforcer
from .report import metrics_markdown, profile_markdown, timeline_csv

__all__ = [
    "AllocationError",
    "TensorAllocator",
    "ArenaPlan",
    "ArenaSlot",
    "plan_arena",
    "InferenceSession",
    "TimingResult",
    "ExecutionResult",
    "execute",
    "AllocationLedger",
    "LedgerEvent",
    "TensorLifetime",
    "MemoryEvent",
    "MemoryProfile",
    "PlanStats",
    "PlanEnforcer",
    "timeline_csv",
    "metrics_markdown",
    "profile_markdown",
]
