"""Memory profile data structures produced by the executor.

A :class:`MemoryProfile` is the measured counterpart of the paper's
Figures 4 and 10: a per-layer timeline of live internal-tensor bytes
plus the weight total and the composition of the live set at the peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.liveness import LedgerEvent

__all__ = ["MemoryProfile", "PlanStats"]


@dataclass
class PlanStats:
    """What a memory plan actually did during one enforced inference.

    Filled in by :class:`~repro.runtime.planned.PlanEnforcer`; the
    serving layer folds these into its metrics registry so the numbers
    surface as ``repro_plan_*`` series on ``/metrics``.
    """

    budget_bytes: int | None = None
    planned_peak_bytes: int = 0
    spills: int = 0
    spilled_bytes: int = 0
    prefetches: int = 0
    prefetched_bytes: int = 0
    remats: int = 0
    remat_flops: int = 0

    def to_dict(self) -> dict:
        return {
            "budget_bytes": self.budget_bytes,
            "planned_peak_bytes": self.planned_peak_bytes,
            "spills": self.spills,
            "spilled_bytes": self.spilled_bytes,
            "prefetches": self.prefetches,
            "prefetched_bytes": self.prefetched_bytes,
            "remats": self.remats,
            "remat_flops": self.remat_flops,
        }


@dataclass
class MemoryProfile:
    """Full memory account of one inference."""

    #: live internal bytes sampled at each node, once its output is
    #: charged and before anything is freed — ``events[i]`` includes
    #: node ``i``'s inputs, its output and every still-live long-range
    #: tensor, the max-of-sums quantity of the paper's Eq. 3/4 and the
    #: measured twin of :attr:`~repro.core.liveness.MemorySchedule.live`
    events: list[int] = field(default_factory=list)
    peak_internal_bytes: int = 0
    weight_bytes: int = 0
    #: live set (value name -> bytes) captured at the peak event
    peak_live_set: dict[str, int] = field(default_factory=dict)
    #: cumulative allocation traffic
    total_allocated_bytes: int = 0
    num_allocations: int = 0
    #: peak transient scratch of fused kernels (reported separately)
    peak_scratch_bytes: int = 0
    #: every allocator event, recorded when the executor ran with
    #: ``record_ledger=True`` — what :func:`~repro.core.liveness.simulate`
    #: predicts, event for event
    ledger: list[LedgerEvent] | None = None
    #: spill/prefetch/remat accounting of the enforced memory plan, when
    #: the executor ran with ``plan=`` (see :mod:`repro.runtime.planned`)
    plan_stats: PlanStats | None = None

    @property
    def peak_total_bytes(self) -> int:
        """Weights + internal peak — the bar height in Figure 10."""
        return self.weight_bytes + self.peak_internal_bytes

    def live_bytes_by_value(self, names: set[str]) -> int:
        """Bytes of the peak live set attributable to ``names``."""
        return sum(b for n, b in self.peak_live_set.items() if n in names)

    def summary(self) -> str:
        mib = 1024 * 1024
        return (f"peak internal {self.peak_internal_bytes / mib:.2f} MiB, "
                f"weights {self.weight_bytes / mib:.2f} MiB, "
                f"scratch {self.peak_scratch_bytes / mib:.2f} MiB, "
                f"{self.num_allocations} allocations / "
                f"{self.total_allocated_bytes / mib:.2f} MiB traffic")
