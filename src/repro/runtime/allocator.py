"""Simulated dynamic tensor allocator.

Reproduces the framework memory policy the paper's analysis assumes
(§2.2): *"the frameworks allocate only the internal tensors required by
the currently running layer and free the tensors that will not be used
in future inference"*.  The executor drives it with reference counts
derived from the schedule; the allocator's job is exact byte
accounting — current footprint, peak footprint, and the live-set
snapshot at the peak (used by the Figure-4 breakdown of how much of the
peak is skip connections).

Every event — a charge (``alloc``, or a plan's ``prefetch``),
a release (``free``, or a plan's ``spill``) and a transient ``scratch``
charge — leaves through one emit path as one
:class:`~repro.core.liveness.LedgerEvent`, the tuple
:func:`~repro.core.liveness.simulate` predicts, to the subscribed
``sinks``; the allocation ledger and the tracer's allocator instants
are two such sinks, so they cannot disagree about what happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.liveness import LedgerEvent
from ..ir.value import Value

__all__ = ["TensorAllocator", "AllocationError"]


class AllocationError(RuntimeError):
    """Raised on double-alloc / double-free — invariant violations."""


@dataclass
class TensorAllocator:
    """Byte-accurate tracker of live internal tensors."""

    current_bytes: int = 0
    peak_bytes: int = 0
    #: live-set snapshot (value name -> bytes) captured when peak_bytes last grew
    peak_live_set: dict[str, int] = field(default_factory=dict)
    #: currently live values
    _live: dict[str, int] = field(default_factory=dict)
    #: cumulative bytes ever allocated (allocation traffic)
    total_allocated_bytes: int = 0
    num_allocations: int = 0
    #: schedule index stamped on every event; the executor sets it once
    #: per step (-1 while graph inputs are bound)
    node_index: int = -1
    #: callables told of every :class:`LedgerEvent`, in order — the
    #: ledger's ``append`` and the tracer's allocator instants subscribe
    #: here; with none subscribed no event is built
    sinks: list[Callable[[LedgerEvent], None]] = field(
        default_factory=list, repr=False, compare=False)

    def alloc(self, value: Value, action: str = "alloc",
              nbytes: int | None = None) -> None:
        """Charge ``value``.  ``action`` is the event's tag: ``"alloc"``,
        or ``"prefetch"``, a memory plan staging a spilled tensor back
        from the host side.
        ``nbytes`` is ``value.nbytes``, passed by a caller that has it
        precomputed."""
        if value.name in self._live:
            raise AllocationError(f"value {value.name!r} allocated twice")
        if nbytes is None:
            nbytes = value.nbytes
        self._live[value.name] = nbytes
        self.current_bytes += nbytes
        self.total_allocated_bytes += nbytes
        self.num_allocations += 1
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes
            self.peak_live_set = dict(self._live)
        self._emit(action, value.name, nbytes, self.current_bytes)

    def free(self, value: Value, action: str = "free") -> None:
        """Release ``value``.  ``action="spill"`` tags a planned move to
        the host-side store, so the auditor can tell evictions from
        lifetime-end frees."""
        try:
            nbytes = self._live.pop(value.name)
        except KeyError as exc:
            raise AllocationError(f"value {value.name!r} freed but not live") from exc
        self.current_bytes -= nbytes
        if self.current_bytes < 0:  # pragma: no cover - defensive
            raise AllocationError("negative live bytes: accounting bug")
        self._emit(action, value.name, nbytes, self.current_bytes)

    def charge_scratch(self, nbytes: int) -> None:
        """Transient workspace charge: bumps the peak if the current live
        set plus this scratch exceeds it, without staying resident."""
        if nbytes <= 0:
            return
        candidate = self.current_bytes + int(nbytes)
        if candidate > self.peak_bytes:
            self.peak_bytes = candidate
            self.peak_live_set = dict(self._live)
            self.peak_live_set["<scratch>"] = int(nbytes)
        self._emit("scratch", "<scratch>", int(nbytes), candidate)

    def _emit(self, action: str, name: str, nbytes: int,
              live_after: int) -> None:
        if self.sinks:
            event = LedgerEvent(self.node_index, action, name, nbytes,
                                live_after)
            for sink in self.sinks:
                sink(event)

    def assert_empty(self, keep: set[str] = frozenset()) -> None:
        """Check everything except ``keep`` has been freed (leak check)."""
        leaked = set(self._live) - set(keep)
        if leaked:
            raise AllocationError(f"leaked internal tensors: {sorted(leaked)}")
