"""The fleet router: least-outstanding balancing, hedges, retries.

:class:`Router` sits in front of a :class:`~repro.fleet.pool.ReplicaPool`
and is a :class:`~repro.serve.Servable` like a single
:class:`~repro.serve.InferenceServer`, so the HTTP frontend
(:func:`repro.serve.serve_http`) and the load generator
(:func:`repro.serve.run_loadgen`) drive a whole fleet unchanged.

Per request the router runs a small orchestration (one daemon thread,
resolved through a :class:`FleetFuture`).  The thread never polls: it
sleeps on one event until an attempt settles (a completion callback
sets it) or the next timer is due — hedge, deadline, attempt timeout:

- **balancing** — route to the ready replica with the fewest
  outstanding requests,
- **hedged retries** — if the primary attempt hasn't resolved after a
  hedge delay, launch the same request on a sibling and take
  whichever responds first (the loser's outstanding count settles
  from its own completion callback).  With a deadline, the hedge
  delay is ``remaining − p95`` (projected from the fleet latency
  histogram, clamped): hedge exactly when waiting out the primary
  would likely bust the deadline,
- **bounded retry with backoff** — a failed attempt (replica crashed,
  draining, queue full, worker error) is retried on a sibling up to
  :data:`MAX_ATTEMPTS` times with doubling backoff; replica
  failures also feed the pool's outlier ejection.  A crashed replica
  therefore costs the client *latency*, never an error, as long as a
  sibling is up,
- **deadlines** — the request's deadline caps the whole orchestration;
  expiry resolves the future with
  :class:`~repro.serve.DeadlineExceeded` exactly as a single server
  would.

Zero-downtime operations: :meth:`Router.drain` stops admissions and
gracefully drains every replica; :meth:`Router.rolling_reload` swaps
replicas one at a time (drain → new spec → restart), so readiness
never drops below ``K − 1`` while the fleet keeps serving.

Everything lands on the pool's shared metrics registry
(``fleet.hedges``, ``fleet.retries.reason.*`` → the labeled
``repro_fleet_retries_total`` family, …) and — when tracing — as
``fleet.*`` spans/instants stitched to the request's ``trace_id``.
"""

from __future__ import annotations

import logging
import threading
import time

from ..obs import SLOMonitor
from ..serve.servable import (DeadlineExceeded, Overloaded, Servable,
                              ServeError, ServeFuture, ServerClosed)
from .faults import FaultPolicy
from .pool import Replica, ReplicaPool, ReplicaSpec

logger = logging.getLogger(__name__)

__all__ = ["FleetFuture", "Router"]

#: total submission attempts per request (primary + retries); hedges
#: don't consume attempts
MAX_ATTEMPTS = 4
#: backoff before a retry; doubles per retry, capped at
#: :data:`RETRY_BACKOFF_MAX_S`
RETRY_BACKOFF_S = 0.005
#: ceiling of the doubling retry backoff
RETRY_BACKOFF_MAX_S = 0.1
#: hedge delay without a deadline (and the clamp ceiling with one)
HEDGE_DELAY_S = 0.05
#: clamp floor for the deadline-aware hedge delay
HEDGE_MIN_DELAY_S = 0.002
#: per-attempt cap: an attempt silent this long is abandoned as stalled
#: and retried (rescues black-holed replicas)
ATTEMPT_TIMEOUT_S = 10.0


class FleetFuture(ServeFuture):
    """Completion handle for one routed request.

    Same contract as :class:`~repro.serve.ServeFuture` (it *is* one),
    plus attempt bookkeeping: resolution may come from any replica,
    after any number of retries/hedges."""

    def __init__(self, request_id: int, samples: int,
                 trace_id: str = "") -> None:
        super().__init__(request_id, samples, trace_id)
        #: submission attempts made (primary + retries + hedges)
        self.attempts = 0
        #: id of the replica whose response won, or None on failure
        self.served_by: int | None = None


def _failure_reason(error: BaseException | None) -> str:
    """The metrics label for one failed attempt — the ``reason`` on
    the ``repro_fleet_retries_total`` / ``repro_fleet_ejections_total``
    Prometheus families."""
    if isinstance(error, DeadlineExceeded):
        return "deadline"
    if isinstance(error, ServerClosed):  # includes ServerDraining
        return "replica_closed"
    if isinstance(error, Overloaded):
        return "overloaded"
    return "worker_error"


class _Attempt:
    """One in-flight submission of a request to one replica."""

    def __init__(self, future: ServeFuture, replica: Replica,
                 started_at: float, hedged: bool) -> None:
        self.future = future
        self.replica = replica
        self.started_at = started_at
        self.hedged = hedged


class _Routed:
    """One admitted request's routing state; only its orchestration
    thread touches it, except ``wake`` — set by whichever thread
    settles one of the request's attempts."""

    def __init__(self, future: FleetFuture, inputs,
                 deadline_s: float | None) -> None:
        self.future = future
        self.inputs = inputs
        self.deadline_s = deadline_s
        self.admitted_at = time.monotonic()
        self.deadline_at = (None if deadline_s is None
                            else self.admitted_at + deadline_s)
        #: replicas that already failed this request
        self.failed: set[int] = set()
        self.wake = threading.Event()


class Router(Servable):
    """Route requests across a replica pool; never hang, rarely fail."""

    family = "fleet"
    _noun = "fleet router"

    def __init__(self, pool: ReplicaPool, *, slo: SLOMonitor | None = None,
                 fault: FaultPolicy | None = None) -> None:
        super().__init__(pool.graph, metrics=pool.metrics, tracer=pool.tracer,
                         slo=slo, memory_plan=pool.memory_plan)
        self.pool = pool
        self.fault = fault
        self._fault_fired = False

    # -- the Servable hooks ---------------------------------------------

    def _start(self) -> None:
        self.pool.start()

    def _close(self, timeout: float | None) -> None:
        self.pool.close()

    def _drain_parts(self, deadline: float | None) -> bool:
        """Gracefully drain every replica (lapped hedge attempts may
        still be running on them)."""
        drained = True
        for replica in self.pool.replicas:
            remaining = (None if deadline is None
                         else max(0.1, deadline - time.monotonic()))
            if not self.pool.drain_replica(replica, remaining):
                drained = False
        return drained

    def healthy(self) -> bool:
        """Routable: at least one ready replica and admitting work."""
        return (not self._closed and not self._draining
                and self.pool.ready_count() > 0)

    def _health_fields(self, status: str) -> dict:
        replicas = self.pool.describe()
        return {"model": self.graph.name, "replicas": replicas,
                "ready": sum(1 for r in replicas if r["state"] == "ready"),
                **self.pool.buckets.health_fields()}

    def _gauges(self) -> dict[str, float]:
        return {"fleet.ready_replicas": float(self.pool.ready_count()),
                "fleet.in_flight": float(self._in_flight)}

    def replicas(self) -> list[tuple[str, dict, Servable | None]]:
        return [(str(r.id), r.describe(), r.server)
                for r in self.pool.replicas]

    def _admit_locked(self, request_id: int, inputs, samples: int,
                      deadline_s: float | None, trace_id: str,
                      admitted_us: float) -> FleetFuture:
        return FleetFuture(request_id, samples, trace_id)

    def _dispatch(self, future: FleetFuture, inputs,
                  deadline_s: float | None) -> None:
        """Routing, hedging and retries run on a per-request thread, so
        ``submit`` never blocks on replica work; every downstream
        failure arrives through the future as the same typed errors a
        single server raises."""
        threading.Thread(
            target=self._orchestrate,
            args=(_Routed(future, inputs, deadline_s),),
            name=f"repro-fleet-req-{future.request_id}", daemon=True).start()

    # -- zero-downtime reload ------------------------------------------

    def rolling_reload(self, spec: ReplicaSpec | None = None, *,
                       timeout: float | None = 30.0) -> bool:
        """Swap every replica to ``spec`` (default: its current spec,
        i.e. a rolling restart) one at a time: drain → rebuild.  At
        most one replica is ever out of rotation, so a ``K``-replica
        fleet keeps at least ``K − 1`` ready throughout.  Returns
        False when any replica's drain timed out or the rebuilt
        replica did not come back ready."""
        ok = True
        for replica in self.pool.replicas:
            if not self.pool.reload_replica(replica, spec or replica.spec,
                                            timeout) or not replica.ready:
                ok = False
        return ok

    # -- orchestration (per-request thread) -----------------------------

    def _orchestrate(self, routed: _Routed) -> None:
        try:
            self._route(routed)
        except Exception as exc:  # noqa: BLE001 — never lose a future
            logger.exception("fleet orchestration failed")
            self._finish_error(routed.future, ServeError(
                f"fleet orchestration failed: {exc!r}"))

    def _route(self, routed: _Routed) -> None:
        future = routed.future
        reasons: list[str] = []
        last_error: BaseException | None = None
        backoff = RETRY_BACKOFF_S
        for attempt_index in range(MAX_ATTEMPTS):
            if (routed.deadline_at is not None
                    and time.monotonic() > routed.deadline_at):
                self._finish_error(future, DeadlineExceeded(
                    f"request {future.request_id} expired after "
                    f"{len(reasons)} attempt(s)"))
                return
            if attempt_index > 0:
                reason = reasons[-1] if reasons else "unknown"
                self.metrics.inc(f"fleet.retries.reason.{reason}")
                if self.tracer.enabled:
                    self.tracer.instant(
                        "fleet.retry", category="fleet",
                        request_id=future.request_id,
                        trace_id=future.trace_id, reason=reason,
                        attempt=attempt_index)
                time.sleep(backoff)
                backoff = min(backoff * 2, RETRY_BACKOFF_MAX_S)
            replica = self.pool.pick(routed.failed) or self.pool.pick()
            if replica is None:
                reasons.append("no_ready_replica")
                last_error = Overloaded(
                    "no ready replica in the fleet; retry with backoff")
                continue
            attempt, submit_error = self._submit_attempt(
                routed, replica, hedged=False)
            if attempt is None:
                routed.failed.add(replica.id)
                reasons.append(_failure_reason(submit_error))
                last_error = submit_error
                continue
            resolved, last_error, reason = self._await_attempts(
                routed, attempt)
            if resolved:
                return
            if isinstance(last_error, DeadlineExceeded):
                self._finish_error(future, last_error)
                return
            reasons.append(reason)
        # attempts exhausted: surface the last typed error
        final = last_error or ServeError(
            f"request {future.request_id} failed after "
            f"{MAX_ATTEMPTS} attempt(s)")
        if all(r in ("no_ready_replica", "overloaded") for r in reasons) \
                and not isinstance(final, Overloaded):
            final = Overloaded(str(final))
        self._finish_error(future, final)

    def _submit_attempt(self, routed: _Routed, replica: Replica, *,
                        hedged: bool
                        ) -> tuple[_Attempt | None, BaseException | None]:
        """Fire the armed fault if due, then submit to ``replica``.
        Returns ``(attempt, None)``, or ``(None, error)`` when
        admission failed."""
        future = routed.future
        self._maybe_fire_fault(replica)
        self.pool.note_submit(replica)
        future.attempts += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "fleet.hedge" if hedged else "fleet.attempt",
                category="fleet", request_id=future.request_id,
                trace_id=future.trace_id, replica=replica.id,
                attempt=future.attempts)
        try:
            inner = replica.submit(routed.inputs,
                                   deadline_s=routed.deadline_s,
                                   trace_id=future.trace_id)
        except ServeError as exc:
            self.pool.note_settle(replica)
            self.pool.record_failure(replica, _failure_reason(exc))
            return None, exc
        wake = routed.wake  # the callback must not pin the payload
        inner.add_done_callback(lambda _inner: wake.set())
        return _Attempt(inner, replica, time.monotonic(), hedged), None

    def _await_attempts(self, routed: _Routed, primary: _Attempt
                        ) -> tuple[bool, BaseException | None, str]:
        """Sleep on ``routed.wake`` until the primary (or its one
        hedge) responds, every attempt failed, the deadline passed, or
        everything stalled.  Returns ``(resolved, last_error,
        reason)``."""
        future = routed.future
        pending = [primary]
        #: None once the hedge is launched
        hedge_at = time.monotonic() + self._hedge_delay(routed.deadline_at)
        last_error: BaseException | None = None
        reason = "stalled"
        while True:
            # clear before looking: a completion from here on re-sets
            # the event, so the wait below cannot miss it
            routed.wake.clear()
            for attempt in [a for a in pending if a.future.done()]:
                pending.remove(attempt)
                self._observe_attempt(attempt)
                try:
                    outputs = attempt.future.result(0)
                except ServeError as exc:
                    self.pool.note_settle(attempt.replica)
                    failure_reason = _failure_reason(exc)
                    if not isinstance(exc, DeadlineExceeded):
                        self.pool.record_failure(attempt.replica,
                                                 failure_reason)
                        routed.failed.add(attempt.replica.id)
                    last_error, reason = exc, failure_reason
                    continue
                self._finish_success(routed, attempt, outputs, pending)
                return True, None, "ok"
            if not pending:
                return False, last_error, reason
            now = time.monotonic()
            if routed.deadline_at is not None and now >= routed.deadline_at:
                self._abandon(pending)
                return False, DeadlineExceeded(
                    f"request {future.request_id} expired in flight"), \
                    "deadline"
            if hedge_at is not None and now >= hedge_at:
                hedge_at = None
                sibling = self.pool.pick(
                    routed.failed | {a.replica.id for a in pending})
                if sibling is not None:
                    self.metrics.inc("fleet.hedges")
                    hedge, _ = self._submit_attempt(routed, sibling,
                                                    hedged=True)
                    if hedge is not None:
                        pending.append(hedge)
            stalled_at = (max(a.started_at for a in pending)
                          + ATTEMPT_TIMEOUT_S)
            if now >= stalled_at:
                self._abandon(pending)
                for attempt in pending:
                    self.pool.record_failure(attempt.replica, "stalled")
                    routed.failed.add(attempt.replica.id)
                return False, ServeError(
                    f"request {future.request_id}: all attempts stalled "
                    f"past {ATTEMPT_TIMEOUT_S} s"), "stalled"
            due = min(t for t in (stalled_at, hedge_at, routed.deadline_at)
                      if t is not None)
            routed.wake.wait(max(0.0, due - now))

    def _finish_success(self, routed: _Routed, winner: _Attempt, outputs,
                        pending: list[_Attempt]) -> None:
        future = routed.future
        latency = time.monotonic() - routed.admitted_at
        future.served_by = winner.replica.id
        self.pool.note_settle(winner.replica)
        self.pool.record_success(winner.replica)
        if winner.hedged:
            self.metrics.inc("fleet.hedge_wins")
        self.metrics.inc("fleet.completed")
        self.metrics.observe("fleet.latency_ms", latency * 1e3)
        if self.slo is not None:
            self.slo.record(latency, ok=True)
        if self.tracer.enabled:
            self.tracer.flow("fleet.request", future.request_id, "finish",
                             ts_us=self.tracer.now_us(),
                             trace_id=future.trace_id)
            self.tracer.instant(
                "fleet.request_done", category="fleet",
                request_id=future.request_id, trace_id=future.trace_id,
                replica=winner.replica.id, hedged=winner.hedged,
                attempts=future.attempts, latency_ms=latency * 1e3)
        self._abandon(pending)
        future._resolve(outputs, latency)

    def _finish_error(self, future: FleetFuture,
                      error: BaseException) -> None:
        if future.done():
            return
        self.metrics.inc("fleet.failed")
        if self.slo is not None:
            self.slo.record(ok=False)
        if self.tracer.enabled:
            self.tracer.instant(
                "fleet.request_failed", category="fleet",
                request_id=future.request_id, trace_id=future.trace_id,
                error=type(error).__name__)
        future._reject(error)

    def _observe_attempt(self, attempt: _Attempt) -> None:
        """Per-replica attempt latency, router-side.

        Measured from submission to settlement *as the router saw
        it*, so a replica whose responses are delayed (the ``slow``
        fault's delayed relay, a saturated queue) shows up here even
        when its own ``serve.latency_ms`` clock looks healthy — the
        replica-outlier anomaly detector reads this family first.
        """
        self.metrics.observe(
            f"fleet.attempt_ms.replica.{attempt.replica.id}",
            (time.monotonic() - attempt.started_at) * 1e3)

    def _abandon(self, attempts: list[_Attempt]) -> None:
        """Lost / lapped attempts: nobody waits for them any more, but
        each still holds a slot in its replica's outstanding count —
        released by a completion callback whenever the attempt
        settles (every attempt does: a closing server rejects what it
        holds, a restarting replica what a fault swallowed)."""
        for attempt in attempts:
            def settle(_inner: ServeFuture, a: _Attempt = attempt) -> None:
                self.pool.note_settle(a.replica)
                self._observe_attempt(a)
            attempt.future.add_done_callback(settle)

    def _hedge_delay(self, deadline_at: float | None) -> float:
        """How long to give the primary before hedging.  With a
        deadline: the slack left after a p95-projected wait, clamped;
        without: the fixed :data:`HEDGE_DELAY_S`."""
        if deadline_at is None:
            return HEDGE_DELAY_S
        remaining = deadline_at - time.monotonic()
        p95_s = self.metrics.quantiles("fleet.latency_ms").get("p95", 0.0) / 1e3
        return min(max(remaining - p95_s, HEDGE_MIN_DELAY_S), HEDGE_DELAY_S)

    def _maybe_fire_fault(self, replica: Replica) -> None:
        fault = self.fault
        if (fault is None or self._fault_fired
                or replica.id != fault.replica or replica.generation != 0
                or replica.routed + 1 < fault.after):
            return
        self._fault_fired = True
        if self.tracer.enabled:
            self.tracer.instant("fleet.fault", category="fleet",
                                replica=replica.id, kind=fault.kind)
        self.pool.apply_fault(replica, fault)
