"""Deterministic fault injection for fleet failover testing.

A :class:`FaultPolicy` arms exactly one fault against one replica:
when the router has routed ``after`` requests to that replica, the
fault fires.  Determinism is the point — the CI failover smoke and
the fleet tests assert *zero* client-visible errors while a replica
crashes mid-run, which is only a meaningful assertion if the crash
happens at a known request count rather than "sometime, maybe".

Kinds:

- ``kill`` — the replica's server closes abruptly (queued requests
  rejected, the in-flight batch finishes).  The router sees
  :class:`~repro.serve.ServerClosed` on the next submit/result and
  retries on a sibling; the pool's health loop ejects the corpse and
  re-admits a fresh server after backoff.
- ``stall`` — the replica black-holes new requests (submits are
  accepted but never complete), modelling a wedged process.  Hedged
  retries rescue the stuck requests; accumulated failures get the
  replica ejected and restarted — at which point (as when the pool
  closes) what it swallowed is rejected, like connections reset by a
  killed process, so no attempt stays unsettled forever.
- ``slow`` — every subsequent request to the replica is delayed by
  ``slow_s`` before submission, modelling a degraded-but-alive
  replica.  Latency-sensitive traffic hedges around it.

Faults fire once, on the replica's first *generation* only: after the
pool restarts the replica (re-admission or rolling reload) the fresh
server is healthy — so a test run converges instead of crash-looping.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FaultPolicy", "FAULT_KINDS"]

FAULT_KINDS = ("kill", "stall", "slow")


@dataclass(frozen=True)
class FaultPolicy:
    """Kill/stall/slow ``replica`` once it has been routed ``after``
    requests (1-based: ``after=5`` fires on the 5th routed request,
    before that request is submitted)."""

    replica: int
    kind: str
    after: int
    #: per-request delay once a ``slow`` fault has fired
    slow_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"bad fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}")
        if self.replica < 0:
            raise ValueError(f"replica must be >= 0, got {self.replica}")
        if self.after < 1:
            raise ValueError(f"after must be >= 1, got {self.after}")
        if self.slow_s <= 0:
            raise ValueError(f"slow_s must be > 0, got {self.slow_s}")

    @classmethod
    def parse(cls, spec: str) -> "FaultPolicy":
        """Parse the CLI grammar ``REPLICA:KIND:AFTER[:SLOW_MS]``,
        e.g. ``1:kill:5`` or ``0:slow:3:40``."""
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"bad fault spec {spec!r}; expected "
                f"REPLICA:KIND:AFTER[:SLOW_MS]")
        try:
            replica, after = int(parts[0]), int(parts[2])
            slow_s = float(parts[3]) / 1e3 if len(parts) == 4 else 0.05
        except ValueError as exc:
            raise ValueError(f"bad fault spec {spec!r}: {exc}") from None
        return cls(replica=replica, kind=parts[1], after=after,
                   slow_s=slow_s)

    def describe(self) -> str:
        extra = (f" by {self.slow_s * 1e3:.0f} ms"
                 if self.kind == "slow" else "")
        return (f"{self.kind} replica {self.replica} after "
                f"{self.after} routed request(s){extra}")
