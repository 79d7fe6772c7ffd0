"""Execution runtime: allocator, executor, sessions, parallel engine."""

from .allocator import AllocationError, TensorAllocator
from .arena import ArenaPlan, ArenaSlot, plan_arena
from .engine import InferenceSession, TimingResult
from .executor import ExecutionResult, execute
from .ledger import AllocationLedger, LedgerEvent, TensorLifetime
from .memory_profile import MemoryEvent, MemoryProfile, PlanStats
from .parallel import ParallelRunner, shard_batch
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
    "ParallelRunner",
    "shard_batch",
    "timeline_csv",
    "metrics_markdown",
    "profile_markdown",
]
