"""Fleet serving: a multi-replica control plane over one host budget.

TeMCO-style memory reduction is only half the serving story — the
other half is *what to do with the freed memory*.  This package spends
it on replication: ``K`` :class:`~repro.serve.InferenceServer`
replicas of one compiled graph share a single host budget (each
planned to ``host_budget / K`` by :func:`repro.plan.plan_memory`),
fronted by a router that makes the fleet look like one very reliable
server.

- :mod:`repro.fleet.pool` — :class:`ReplicaPool`: replica lifecycle,
  liveness/readiness health checks, outlier ejection with
  exponential-backoff re-admission, graceful per-replica drain,
- :mod:`repro.fleet.router` — :class:`Router`: least-outstanding
  balancing, deadline-aware hedged retries (first response wins),
  bounded retry-with-backoff, zero-downtime rolling reload.  A
  :class:`Router` is a :class:`~repro.serve.Servable`:
  :func:`repro.serve.serve_http` and :func:`repro.serve.run_loadgen`
  drive it exactly like a single server,
- :mod:`repro.fleet.faults` — :class:`FaultPolicy`: deterministic
  kill/stall/slow fault injection for failover testing (the CI smoke
  kills a replica mid-run and asserts zero client-visible errors).

Quick use::

    from repro.fleet import PoolConfig, ReplicaPool, Router

    pool = ReplicaPool(graph, PoolConfig(replicas=3, host_budget="80%"))
    with Router(pool) as fleet:
        outputs = fleet.infer({"x": one_sample}, timeout=10.0)

See ``docs/fleet.md`` for the architecture, the hedging timeline and
the rolling-reload sequence, and ``repro fleet`` / ``repro loadgen
--fleet`` on the CLI.
"""

from .faults import FAULT_KINDS, FaultPolicy
from .pool import (PoolConfig, Replica, ReplicaPool, ReplicaSpec,
                   ReplicaState, split_host_budget)
from .router import FleetFuture, Router

__all__ = [
    "FAULT_KINDS",
    "FaultPolicy",
    "ReplicaState",
    "ReplicaSpec",
    "Replica",
    "PoolConfig",
    "ReplicaPool",
    "split_host_budget",
    "FleetFuture",
    "Router",
]
