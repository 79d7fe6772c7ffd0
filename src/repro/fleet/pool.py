"""The replica pool: N warm servers packed under one host budget.

TeMCO's memory reductions (and PR 6's budget planner) create the
headroom; the pool converts it into capacity by running ``K``
:class:`~repro.serve.InferenceServer` replicas of the same compiled
graph on one host.  Each replica is planned against ``host_budget /
K`` via :func:`repro.plan.plan_memory`, so the *fleet's* resident
internal-tensor footprint stays under the host budget no matter which
replicas are busy.

The pool owns replica *lifecycle*, not routing (that's
:class:`~repro.fleet.router.Router`):

- **liveness/readiness** — a background health loop polls each
  replica's :meth:`~repro.serve.InferenceServer.healthy` (the same
  predicate ``GET /healthz`` serves) every :data:`HEALTH_INTERVAL_S`,
- **outlier ejection** — a replica that fails consecutive requests
  (router-reported) or goes unhealthy is ejected: taken out of the
  routable set and scheduled for re-admission after an exponential
  backoff (``READMIT_BACKOFF_S * 2^(ejections-1)``, capped),
- **re-admission** — an ejected replica is *restarted* (a fresh
  server built from its spec) once its backoff expires, so a crashed
  process costs capacity temporarily, not permanently,
- **drain / reload** — :meth:`drain_replica` stops routing to one
  replica and gracefully drains its in-flight work
  (:meth:`~repro.serve.InferenceServer.drain`); :meth:`reload_replica`
  then swaps in a replacement spec (new graph / tuned plan / budget)
  — the router's rolling reload walks the pool one replica at a time
  so readiness never drops below ``K - 1``.

Every state transition lands on the shared fleet metrics registry
under replica-labeled names (``fleet.replica_up.replica.<id>`` →
``repro_fleet_replica_up{replica="<id>"}`` on ``/metrics``).
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property

from ..core import estimate_peak_internal
from ..ir.graph import Graph
from ..obs import MetricsRegistry, get_tracer
from ..plan import MemoryPlan, parse_budget, plan_memory
from ..serve.batcher import Buckets, derive_buckets
from ..serve.servable import ServeError, ServeFuture, ServerClosed
from ..serve.server import InferenceServer, ServerConfig
from .faults import FaultPolicy

logger = logging.getLogger(__name__)

__all__ = ["ReplicaState", "ReplicaSpec", "Replica", "PoolConfig",
           "ReplicaPool", "split_host_budget"]

#: consecutive router-reported failures before ejection
EJECT_AFTER_FAILURES = 3
#: first re-admission backoff; doubles per ejection up to the max
READMIT_BACKOFF_S = 0.25
READMIT_BACKOFF_MAX_S = 5.0
#: period of the health loop's readiness poll
HEALTH_INTERVAL_S = 0.05


class ReplicaState:
    """Lifecycle states (plain strings: they land in metrics/JSON)."""

    READY = "ready"        #: routable
    DRAINING = "draining"  #: finishing in-flight, not routable
    EJECTED = "ejected"    #: outlier, waiting out its backoff
    STOPPED = "stopped"    #: drained and closed (mid-reload)


@dataclass
class ReplicaSpec:
    """Everything needed to (re)build one replica's server."""

    graph: Graph
    server_config: ServerConfig = field(default_factory=ServerConfig)
    memory_plan: MemoryPlan | None = None

    @cached_property
    def buckets(self) -> Buckets:
        """The batch buckets of this spec, derived and probed once and
        shared by every replica (and every restart) built from it."""
        return derive_buckets(self.graph, self.memory_plan)


class Replica:
    """One managed server plus its routing/health bookkeeping.

    Mutable counters (``outstanding``, ``routed``,
    ``consecutive_failures``) are guarded by the owning pool's lock;
    the fault-injection state by the replica's own.
    """

    def __init__(self, replica_id: int, spec: ReplicaSpec) -> None:
        self.id = replica_id
        self.spec = spec
        self.server: InferenceServer | None = None
        self.state = ReplicaState.STOPPED
        #: restarts so far; faults fire on generation 0 only
        self.generation = 0
        #: requests the router has sent here (drives FaultPolicy.after)
        self.routed = 0
        #: requests submitted here and not yet settled (the
        #: least-outstanding balancing signal)
        self.outstanding = 0
        self.consecutive_failures = 0
        self.ejections = 0
        #: monotonic time an ejected replica becomes re-admittable
        self.readmit_at = 0.0
        #: fault-injection modes (see repro.fleet.faults)
        self.stalled = False
        self.slow_s = 0.0
        #: futures a ``stall`` fault swallowed; rejected when the
        #: replica restarts, the way a killed process resets its
        #: connections, so no attempt stays unsettled forever
        self._black_hole: list[ServeFuture] = []
        self._fault_lock = threading.Lock()

    @property
    def ready(self) -> bool:
        return (self.state == ReplicaState.READY
                and self.server is not None and self.server.healthy())

    def submit(self, inputs, *, deadline_s: float | None = None,
               trace_id: str | None = None) -> ServeFuture:
        """Submit through this replica, honouring injected faults."""
        with self._fault_lock:
            if self.stalled:
                # black hole: accepted, never resolved — the router's
                # hedging or attempt timeout rescues the request
                future = ServeFuture(request_id=-1, samples=0)
                self._black_hole.append(future)
                return future
        if self.slow_s > 0:
            return self._submit_slowly(inputs, deadline_s, trace_id)
        return self._submit_now(inputs, deadline_s, trace_id)

    def _submit_now(self, inputs, deadline_s: float | None,
                    trace_id: str | None) -> ServeFuture:
        server = self.server
        if server is None:
            raise ServerClosed(f"replica {self.id} has no running server")
        return server.submit(inputs, deadline_s=deadline_s,
                             trace_id=trace_id)

    def _submit_slowly(self, inputs, deadline_s: float | None,
                       trace_id: str | None) -> ServeFuture:
        # a slow replica delays its *response*, not the caller's submit:
        # a timer submits late and a callback relays the outcome into a
        # proxy future, so the router stays free to hedge meanwhile
        proxy = ServeFuture(request_id=-1, samples=0)
        delay = self.slow_s

        def relay(inner: ServeFuture) -> None:
            try:
                proxy._resolve(inner.result(0), delay + inner.latency_s)
            except ServeError as error:
                proxy._reject(error)

        def submit_late() -> None:
            try:
                self._submit_now(inputs, deadline_s,
                                 trace_id).add_done_callback(relay)
            except ServeError as error:
                proxy._reject(error)

        timer = threading.Timer(delay, submit_late)
        timer.name = f"repro-fleet-delay-{self.id}"
        timer.daemon = True
        timer.start()
        return proxy

    def clear_faults(self) -> None:
        """Back to a healthy replica: faults off, swallowed requests
        rejected (their routers retry elsewhere or have moved on)."""
        with self._fault_lock:
            self.stalled = False
            self.slow_s = 0.0
            swallowed, self._black_hole = self._black_hole, []
        for future in swallowed:
            future._reject(ServerClosed(f"replica {self.id} restarted"))

    def describe(self) -> dict:
        return {"id": self.id, "state": self.state,
                "generation": self.generation, "routed": self.routed,
                "outstanding": self.outstanding,
                "ejections": self.ejections}


def split_host_budget(graph: Graph, host_budget: str | int,
                      replicas: int) -> tuple[MemoryPlan, int]:
    """Split one host budget across ``replicas`` equal shares.

    ``host_budget`` uses the :func:`repro.plan.parse_budget` grammar;
    a percentage is relative to ``replicas ×`` the graph's unplanned
    predicted peak, so ``"60%"`` plans every replica to 60% of its own
    peak and ``"100%"`` packs exactly ``replicas`` unplanned copies.
    Returns ``(per_replica_plan, host_budget_bytes)``; raises
    :class:`~repro.plan.InfeasibleBudget` when a share is below the
    graph's working-set floor.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    reference = estimate_peak_internal(graph) * replicas
    host_bytes = (host_budget if isinstance(host_budget, int)
                  else parse_budget(host_budget, reference=reference))
    per_replica = host_bytes // replicas
    return plan_memory(graph, per_replica), host_bytes


@dataclass(frozen=True)
class PoolConfig:
    """Replica-count and budget knobs of one pool."""

    replicas: int = 2
    #: shared host budget (parse_budget grammar) split evenly across
    #: replicas; None serves unplanned
    host_budget: str | None = None
    #: per-replica server knobs
    server: ServerConfig = field(default_factory=ServerConfig)

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")


class ReplicaPool:
    """Build, watch, eject, re-admit and reload N replicas."""

    def __init__(self, graph: Graph, config: PoolConfig | None = None, *,
                 metrics: MetricsRegistry | None = None,
                 tracer=None) -> None:
        graph.validate()
        self.graph = graph
        self.config = config or PoolConfig()
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._lock = threading.RLock()
        self._closed = False
        self._health_thread: threading.Thread | None = None
        self._health_stop = threading.Event()
        self.memory_plan: MemoryPlan | None = None
        self.host_budget_bytes: int | None = None
        if self.config.host_budget is not None:
            self.memory_plan, self.host_budget_bytes = split_host_budget(
                graph, self.config.host_budget, self.config.replicas)
            self.metrics.gauge("fleet.host_budget_bytes",
                               float(self.host_budget_bytes))
            self.metrics.gauge(
                "fleet.replica_budget_bytes",
                float(self.memory_plan.budget_bytes or 0))
        spec = ReplicaSpec(graph=graph, server_config=self.config.server,
                           memory_plan=self.memory_plan)
        self.replicas = [Replica(i, spec)
                         for i in range(self.config.replicas)]
        self.metrics.gauge("fleet.replicas", float(self.config.replicas))

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ReplicaPool":
        for replica in self.replicas:
            replica.spec.buckets  # derive + probe outside the lock
        with self._lock:
            if self._closed:
                raise ServerClosed("pool already closed")
            for replica in self.replicas:
                if replica.server is None:
                    self._start_replica(replica)
        if self._health_thread is None:
            self._health_thread = threading.Thread(
                target=self._health_loop, name="repro-fleet-health",
                daemon=True)
            self._health_thread.start()
        logger.info("fleet pool up: %d replica(s) of %s, %s%s",
                    len(self.replicas), self.graph.name,
                    self.buckets.describe(),
                    "" if self.memory_plan is None else
                    f", {self.memory_plan.summary()} per replica")
        return self

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(5.0)
            self._health_thread = None
        for replica in self.replicas:
            server, replica.server = replica.server, None
            replica.state = ReplicaState.STOPPED
            self._gauge_up(replica)
            replica.clear_faults()
            if server is not None:
                server.close()

    def __enter__(self) -> "ReplicaPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _start_replica(self, replica: Replica) -> None:
        """Build and start one server from the replica's spec.  Called
        under the pool lock, so it must stay cheap: callers that bring
        a new spec touch ``spec.buckets`` (a start-up probe: forward
        runs of the graph) *before* taking the lock, which leaves
        session building and thread spawning here."""
        replica.server = InferenceServer(
            replica.spec.graph, replica.spec.server_config,
            tracer=self.tracer.tagged(replica=replica.id),
            memory_plan=replica.spec.memory_plan,
            buckets=replica.spec.buckets).start()
        replica.state = ReplicaState.READY
        replica.clear_faults()
        replica.consecutive_failures = 0
        self._gauge_up(replica)

    # -- routing surface (called by the Router, under our lock) --------

    def pick(self, exclude: frozenset[int] | set[int] = frozenset()
             ) -> Replica | None:
        """The ready replica with the fewest outstanding requests
        (ties break toward the lowest id), or None."""
        with self._lock:
            candidates = [r for r in self.replicas
                          if r.id not in exclude and r.ready]
            if not candidates:
                return None
            return min(candidates, key=lambda r: (r.outstanding, r.id))

    def note_submit(self, replica: Replica) -> None:
        with self._lock:
            replica.routed += 1
            replica.outstanding += 1
            self.metrics.inc(f"fleet.routed.replica.{replica.id}")

    def note_settle(self, replica: Replica) -> None:
        with self._lock:
            replica.outstanding = max(0, replica.outstanding - 1)

    def record_success(self, replica: Replica) -> None:
        with self._lock:
            replica.consecutive_failures = 0

    def record_failure(self, replica: Replica, reason: str) -> None:
        """Router-reported request failure; ejects on a streak."""
        with self._lock:
            replica.consecutive_failures += 1
            if (replica.state == ReplicaState.READY
                    and replica.consecutive_failures
                    >= EJECT_AFTER_FAILURES):
                self._eject(replica, reason)

    # -- ejection / re-admission ---------------------------------------

    def eject(self, replica: Replica, reason: str) -> None:
        with self._lock:
            if replica.state == ReplicaState.READY:
                self._eject(replica, reason)

    def _eject(self, replica: Replica, reason: str) -> None:
        replica.state = ReplicaState.EJECTED
        replica.ejections += 1
        backoff = min(READMIT_BACKOFF_S * 2 ** (replica.ejections - 1),
                      READMIT_BACKOFF_MAX_S)
        replica.readmit_at = time.monotonic() + backoff
        self.metrics.inc(f"fleet.ejections.reason.{reason}")
        self._gauge_up(replica)
        logger.warning("ejected replica %d (%s); re-admission in %.2f s",
                       replica.id, reason, backoff)

    def _readmit(self, replica: Replica) -> None:
        old, replica.server = replica.server, None
        if old is not None:
            old.close(timeout=1.0)
        replica.generation += 1
        self._start_replica(replica)
        self.metrics.inc("fleet.readmissions")
        logger.info("re-admitted replica %d (generation %d)",
                    replica.id, replica.generation)

    def _health_loop(self) -> None:
        while not self._health_stop.wait(HEALTH_INTERVAL_S):
            with self._lock:
                if self._closed:
                    return
                now = time.monotonic()
                for replica in self.replicas:
                    if (replica.state == ReplicaState.READY
                            and (replica.server is None
                                 or not replica.server.healthy())):
                        self._eject(replica, "unhealthy")
                    elif (replica.state == ReplicaState.EJECTED
                          and now >= replica.readmit_at):
                        self._readmit(replica)

    # -- drain / reload -------------------------------------------------

    def drain_replica(self, replica: Replica,
                      timeout: float | None = 30.0) -> bool:
        """Stop routing to ``replica``, drain its in-flight work, stop
        it.  Returns False when the drain timed out (the server closed
        anyway)."""
        with self._lock:
            if replica.state not in (ReplicaState.READY,
                                     ReplicaState.EJECTED):
                return True
            replica.state = ReplicaState.DRAINING
            self._gauge_up(replica)
            server = replica.server
        drained = server.drain(timeout) if server is not None else True
        with self._lock:
            replica.server = None
            replica.state = ReplicaState.STOPPED
        return drained

    def reload_replica(self, replica: Replica, spec: ReplicaSpec,
                       timeout: float | None = 30.0) -> bool:
        """Drain ``replica`` then restart it from ``spec`` — one step
        of a rolling reload.  Returns the drain verdict."""
        drained = self.drain_replica(replica, timeout)
        spec.buckets  # derive + probe while pick() can still route
        with self._lock:
            replica.spec = spec
            replica.generation += 1
            self._start_replica(replica)
        self.metrics.inc("fleet.reloads")
        return drained

    # -- fault injection -------------------------------------------------

    def apply_fault(self, replica: Replica, fault: FaultPolicy) -> None:
        """Fire ``fault`` against ``replica`` (router-triggered at the
        armed request count)."""
        self.metrics.inc(f"fleet.faults.reason.{fault.kind}")
        logger.warning("fault injected: %s", fault.describe())
        if fault.kind == "kill":
            server = replica.server
            if server is not None:
                server.close(timeout=1.0)
        elif fault.kind == "stall":
            replica.stalled = True
        else:  # slow
            replica.slow_s = fault.slow_s

    # -- introspection ---------------------------------------------------

    @property
    def buckets(self) -> Buckets:
        """The batch buckets the replicas run at (replica 0's spec:
        specs differ only while a rolling reload is under way)."""
        return self.replicas[0].spec.buckets

    def ready_count(self) -> int:
        with self._lock:
            return sum(1 for r in self.replicas if r.ready)

    def _gauge_up(self, replica: Replica) -> None:
        self.metrics.gauge(f"fleet.replica_up.replica.{replica.id}",
                           1.0 if replica.state == ReplicaState.READY
                           else 0.0)

    def describe(self) -> list[dict]:
        with self._lock:
            return [replica.describe() for replica in self.replicas]
