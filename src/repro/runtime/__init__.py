"""Execution runtime: allocator, executor, sessions."""

from .allocator import AllocationError, TensorAllocator
from .engine import InferenceSession, TimingResult
from .executor import ExecutionResult, execute
from ..core.liveness import LedgerEvent
from .memory_profile import MemoryProfile, PlanStats
from .planned import PlanEnforcer
from .report import metrics_markdown, profile_markdown, timeline_csv

__all__ = [
    "AllocationError",
    "TensorAllocator",
    "InferenceSession",
    "TimingResult",
    "ExecutionResult",
    "execute",
    "LedgerEvent",
    "MemoryProfile",
    "PlanStats",
    "PlanEnforcer",
    "timeline_csv",
    "metrics_markdown",
    "profile_markdown",
]
