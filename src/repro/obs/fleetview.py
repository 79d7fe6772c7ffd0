"""The fleet observability plane: history, detectors, one merged view.

The registry / Prometheus layers are point-in-time: every read reports
the state *now*.  Watching a fleet drift — p95 creeping up, measured
peak memory approaching the budget, one replica falling behind its
peers — needs history and a cross-replica comparison.
:class:`FleetView` sits next to any :class:`~repro.serve.Servable`
backend (an :class:`~repro.serve.InferenceServer` or a fleet
:class:`~repro.fleet.Router`) and is the whole plane:

- **history** — a bounded ring of flat snapshots (the backend's stats
  plus every replica server's stats suffixed ``.replica.<id>``), one
  appended every :data:`INTERVAL_S` by one sampler thread,
- **detectors** — four plain functions over that history, run on every
  sample; each distinct :class:`Anomaly` bumps ``anomaly.kind.<kind>``
  in the backend's registry (``repro_anomaly_total{kind=...}`` on
  ``/metrics``) and drops an ``anomaly`` instant on its tracer,
- **fleet doc** — the ``GET /fleetz`` JSON / ``repro top`` frame,
- **merged registry** — per-replica registries folded into one with
  ``replica.<id>`` labels for one fleet-wide Prometheus exposition,
- **stitched trace** — the backend's Chrome trace re-rowed by replica,
  with an arrow for each request that touched more than one.

Every knob is a module constant: no caller has needed a second value.
The view only *reads* the backend; attaching one never changes serving
behaviour (outputs stay bitwise identical to an unobserved server).
"""

from __future__ import annotations

import logging
import statistics
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

from .._version import __version__
from .export import TRACE_PID, to_chrome_trace
from .metrics import MetricsRegistry
from .tracer import Tracer

__all__ = ["Anomaly", "FleetView"]

log = logging.getLogger(__name__)

#: seconds between two samples of the background sampler
INTERVAL_S = 0.25
#: trailing window of the fleet doc's rates (QPS, spill / remat rate)
WINDOW_S = 5.0
#: snapshots kept; older ones are evicted, so memory stays bounded by
#: ``HISTORY_SAMPLES x series`` regardless of uptime
HISTORY_SAMPLES = 512

#: latency-regression: mean of the last ``RECENT_S`` of these p95 series
#: against the mean of the ``BASELINE_S`` before it
LATENCY_SERIES = ("serve.latency_ms.p95", "fleet.latency_ms.p95")
LATENCY_RECENT_S = 5.0
LATENCY_BASELINE_S = 30.0
LATENCY_FACTOR = 2.0
#: absolute floor, so microsecond noise on a fast model pages nobody
LATENCY_MIN_MS = 5.0
#: memory-drift: measured peak past this share of the budget is critical
MEMORY_WATERMARK = 0.9
#: ... and past the planned peak by more than this share is a warning
MEMORY_PLAN_TOLERANCE = 0.05
#: drop-spike: a counter under these prefixes growing ``DROP_MIN`` in a window
_DROP_PREFIX = "serve.dropped.reason."
DROP_PREFIXES = (_DROP_PREFIX, "fleet.failed")
DROP_WINDOW_S = 5.0
DROP_MIN = 3.0
#: replica-outlier: a replica's p95 under these bases above ``FACTOR`` x
#: the median of its peers (router-side ``fleet.attempt_ms`` first: it
#: sees response-proxy slowness the replica's own clock cannot)
OUTLIER_BASES = ("fleet.attempt_ms", "serve.latency_ms")
OUTLIER_FACTOR = 2.0
OUTLIER_MIN_MS = 5.0

#: ``(t, snapshot)`` pairs, oldest first — what the detectors read
History = Sequence[tuple[float, dict[str, float]]]


@dataclass(frozen=True)
class Anomaly:
    """One typed finding: what fired, on what, how bad.

    ``kind`` is the stable machine name (``latency-regression``,
    ``memory-drift``, ``drop-spike``, ``replica-outlier``), ``severity``
    is ``warning`` or ``critical``, ``subject`` names the offending
    series or replica, and ``value``/``threshold`` carry the numbers
    that tripped the rule so the finding is auditable after the fact.
    """

    kind: str
    severity: str
    subject: str
    message: str
    value: float
    threshold: float
    at: float

    def to_dict(self) -> dict:
        return asdict(self)


# -- windowed reads of the history -------------------------------------------

def _window(history: History, name: str, seconds: float,
            now: float) -> list[tuple[float, float]]:
    """``(t, value)`` samples of ``name`` from the trailing window."""
    cutoff = now - seconds
    return [(t, snap[name]) for t, snap in history
            if t >= cutoff and name in snap]


def _growth(history: History, name: str, seconds: float,
            now: float) -> tuple[float, float]:
    """``(increase, elapsed_s)`` of a counter between the first and last
    samples inside the trailing window.  ``(0.0, 0.0)`` with fewer than
    two samples; the increase clamps at 0.0 across a counter reset (a
    replica restart), so nothing downstream sees a negative rate."""
    points = _window(history, name, seconds, now)
    if len(points) < 2:
        return 0.0, 0.0
    (t0, v0), (t1, v1) = points[0], points[-1]
    return max(0.0, v1 - v0), t1 - t0


# -- detectors: (history, now) -> the findings current now -------------------

def latency_regression(history: History, now: float) -> list[Anomaly]:
    """Recent p95 of a latency series vs its own trailing baseline.

    Fires when the recent mean is both :data:`LATENCY_FACTOR` x the
    baseline mean and at least :data:`LATENCY_MIN_MS`; needs two recent
    and four baseline samples before it judges anything.
    """
    findings = []
    split = now - LATENCY_RECENT_S
    for name in LATENCY_SERIES:
        window = _window(history, name,
                         LATENCY_RECENT_S + LATENCY_BASELINE_S, now)
        recent = [v for t, v in window if t >= split]
        baseline = [v for t, v in window if t < split]
        if len(recent) < 2 or len(baseline) < 4:
            continue
        recent_mean = sum(recent) / len(recent)
        base_mean = sum(baseline) / len(baseline)
        threshold = max(base_mean * LATENCY_FACTOR, LATENCY_MIN_MS)
        if recent_mean > threshold:
            findings.append(Anomaly(
                kind="latency-regression", severity="warning", subject=name,
                message=(f"{name} p95 {recent_mean:.2f} ms over the last "
                         f"{LATENCY_RECENT_S:g}s vs trailing baseline "
                         f"{base_mean:.2f} ms"),
                value=recent_mean, threshold=threshold, at=now))
    return findings


def memory_drift(history: History, now: float) -> list[Anomaly]:
    """Measured peak creeping toward the budget or past the plan.

    Two rules over the latest snapshot, per replica suffix: above
    :data:`MEMORY_WATERMARK` of the budget is *critical* (the next
    admission spike can breach it); above the planned peak by more than
    :data:`MEMORY_PLAN_TOLERANCE` is a *warning* (the byte-exact planner
    promise no longer holds — the drift TeMCO-style claims die by).
    """
    latest = history[-1][1]
    measured_name = "serve.measured_peak_bytes"
    findings = []
    for name in sorted(n for n in latest if n.startswith(measured_name)):
        suffix = name[len(measured_name):]
        measured = latest[name]
        if measured <= 0:
            continue
        budget = latest.get(f"plan.budget_bytes{suffix}", 0.0)
        planned = latest.get(f"plan.planned_peak_bytes{suffix}", 0.0)
        if budget > 0 and measured > budget * MEMORY_WATERMARK:
            severity, threshold = "critical", budget * MEMORY_WATERMARK
            message = (f"measured peak {measured:.0f} B is past "
                       f"{MEMORY_WATERMARK:.0%} of the {budget:.0f} B budget")
        elif planned > 0 and measured > planned * (1 + MEMORY_PLAN_TOLERANCE):
            severity = "warning"
            threshold = planned * (1 + MEMORY_PLAN_TOLERANCE)
            message = (f"measured peak {measured:.0f} B exceeds the planned "
                       f"peak {planned:.0f} B by more than "
                       f"{MEMORY_PLAN_TOLERANCE:.0%}")
        else:
            continue
        findings.append(Anomaly(
            kind="memory-drift", severity=severity,
            subject=suffix.lstrip(".") or "server", message=message,
            value=measured, threshold=threshold, at=now))
    return findings


def drop_spike(history: History, now: float) -> list[Anomaly]:
    """A burst of dropped requests: any counter under
    :data:`DROP_PREFIXES` that grew by at least :data:`DROP_MIN` within
    :data:`DROP_WINDOW_S`."""
    findings = []
    for name in sorted(n for n in history[-1][1]
                       if n.startswith(DROP_PREFIXES)):
        grew, _ = _growth(history, name, DROP_WINDOW_S, now)
        if grew >= DROP_MIN:
            findings.append(Anomaly(
                kind="drop-spike", severity="warning", subject=name,
                message=(f"{name} grew by {grew:g} in the last "
                         f"{DROP_WINDOW_S:g}s"),
                value=grew, threshold=DROP_MIN, at=now))
    return findings


def _replica_p95(snapshot: dict[str, float], base: str) -> dict[str, float]:
    """Replica id -> p95 of ``base`` in one snapshot.

    Two naming shapes: the router flattens its histograms as
    ``fleet.attempt_ms.replica.0.p95``, replica-server stats carry the
    view's suffix, ``serve.latency_ms.p95.replica.0``.
    """
    router_side, suffixed = f"{base}.replica.", f"{base}.p95.replica."
    out: dict[str, float] = {}
    for name, value in snapshot.items():
        if name.startswith(router_side) and name.endswith(".p95"):
            out[name[len(router_side):-len(".p95")]] = value
        elif name.startswith(suffixed):
            out.setdefault(name[len(suffixed):], value)
    return out


def replica_outlier(history: History, now: float) -> list[Anomaly]:
    """One replica's p95 far above the median of its peers.

    For each base in :data:`OUTLIER_BASES`, compares every replica's
    latest p95 against the *median of the other replicas'* p95s — so
    with two replicas the sick one is judged against the healthy one,
    not against a median it drags up itself.  Needs live data from two
    replicas; a replica is flagged once even when both bases agree.
    """
    findings = []
    flagged: set[str] = set()
    for base in OUTLIER_BASES:
        values = {rid: v for rid, v
                  in _replica_p95(history[-1][1], base).items() if v > 0}
        if len(values) < 2:
            continue
        for rid, value in sorted(values.items()):
            if rid in flagged:
                continue
            peer_median = statistics.median(
                v for peer, v in values.items() if peer != rid)
            threshold = max(peer_median * OUTLIER_FACTOR, OUTLIER_MIN_MS)
            if value > threshold:
                flagged.add(rid)
                findings.append(Anomaly(
                    kind="replica-outlier", severity="warning",
                    subject=f"replica.{rid}",
                    message=(f"replica {rid} {base} p95 {value:.2f} ms vs "
                             f"peer median {peer_median:.2f} ms"),
                    value=value, threshold=threshold, at=now))
    return findings


#: run, in this order, on every sample
DETECTORS = (latency_regression, memory_drift, drop_spike, replica_outlier)


class FleetView:
    """One merged observability surface over a servable backend.

    ``clock`` (monotonic seconds) stamps the samples and the findings;
    tests inject a fake one, production leaves the default.
    """

    def __init__(self, backend, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.backend = backend
        self._clock = clock
        self._started_at = clock()
        self.scrapes = 0        #: samples taken
        self.scrape_errors = 0  #: failed backend reads + detector errors
        self._history: deque[tuple[float, dict[str, float]]] = deque(
            maxlen=HISTORY_SAMPLES)
        self._findings: dict[tuple[str, str, str], Anomaly] = {}
        self._lock = threading.Lock()  # history, findings, the two counts
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "FleetView":
        """Start the sampler thread (idempotent)."""
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(target=self._run, daemon=True,
                                            name="fleet-view-sampler")
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop and join the sampler, without waiting out the interval."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(INTERVAL_S)

    def __enter__(self) -> "FleetView":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- sampling -------------------------------------------------------

    def _read(self) -> tuple[dict, dict, list[tuple[str, dict, dict]]]:
        """One ``stats()`` call on the backend and on each replica
        server: the flat snapshot, the backend's stats, and ``(suffix,
        descriptor, stats)`` per replica.  A replica's series carry
        ``suffix`` (``.replica.<id>``) in the snapshot; a lone server is
        its own pseudo-replica, with no suffix."""
        stats = self.backend.stats()
        flat = {name: float(value) for name, value in stats.items()}
        replicas = []
        for rid, desc, server in self.backend.replicas():
            if server is self.backend:
                replicas.append(("", desc, stats))
                continue
            suffix = f".replica.{rid}"
            rstats = server.stats() if server is not None else {}
            replicas.append((suffix, desc, rstats))
            for name, value in rstats.items():
                flat[f"{name}{suffix}"] = float(value)
        return flat, stats, replicas

    def snapshot(self) -> dict[str, float]:
        """Backend stats + per-replica server stats suffixed
        ``.replica.<id>`` — the flat dict one sample stores."""
        return self._read()[0]

    def sample(self) -> bool:
        """Take one snapshot into the history and run the detectors on
        it.  A backend that cannot be read is counted and reported as
        ``False``, never raised: a dying replica must not kill the plane."""
        try:
            self._record(self.snapshot())
        except Exception:
            log.warning("fleet view: sample failed", exc_info=True)
            with self._lock:
                self.scrape_errors += 1
            return False
        return True

    def _record(self, snapshot: dict[str, float]) -> float:
        """Append one snapshot to the history and run the detectors on
        it; returns the sample's timestamp."""
        now = self._clock()
        with self._lock:
            self._history.append((now, snapshot))
            self.scrapes += 1
            self._detect(now)
        return now

    def _detect(self, now: float) -> None:
        """Run every detector (lock held); book each finding not seen
        before under its ``(kind, subject, severity)``."""
        metrics, tracer = self.backend.metrics, self.backend.tracer
        for detector in DETECTORS:
            try:
                current = detector(self._history, now)
            except Exception:
                log.warning("fleet view: detector %s failed",
                            detector.__name__, exc_info=True)
                self.scrape_errors += 1
                metrics.inc("anomaly.detector_errors")
                continue
            for finding in current:
                key = (finding.kind, finding.subject, finding.severity)
                fresh = key not in self._findings
                self._findings[key] = finding  # keep the latest numbers
                if fresh:
                    metrics.inc(f"anomaly.kind.{finding.kind}")
                    if tracer.enabled:
                        tracer.instant(
                            "anomaly", kind=finding.kind,
                            severity=finding.severity,
                            subject=finding.subject, message=finding.message)

    def findings(self) -> list[Anomaly]:
        """Every distinct finding seen so far (latest numbers)."""
        with self._lock:
            return sorted(self._findings.values(),
                          key=lambda a: (a.kind, a.subject))

    def timeseries(self) -> dict:
        """JSON-ready dump of the history, one ``[[t, value], ...]``
        list per series (``t`` on the view's monotonic clock) — the
        ``timeseries.json`` member of a ``repro diag`` bundle."""
        with self._lock:
            history = list(self._history)
        series: dict[str, list[list[float]]] = {}
        for t, snap in history:
            for name, value in snap.items():
                series.setdefault(name, []).append([t, value])
        return {"max_samples": HISTORY_SAMPLES,
                "captured_at": self._clock(),
                "series": dict(sorted(series.items()))}

    def merged_registry(self) -> MetricsRegistry:
        """Every replica registry folded into a fresh one under
        ``replica.<id>`` labels, plus the backend's own unlabeled — what
        a fleet-wide Prometheus exposition renders from."""
        out = MetricsRegistry()
        out.merge(self.backend.metrics)
        for rid, _desc, server in self.backend.replicas():
            if server is not None and server is not self.backend:
                out.merge(server.metrics, label=f"replica.{rid}")
        return out

    # -- the operator document ------------------------------------------

    def fleet_doc(self) -> dict:
        """The ``GET /fleetz`` body / one ``repro top`` frame.

        Takes a fresh sample first (so a cold view still reports live
        numbers) and computes the document from it: point-in-time fields
        from that one read, rates from the history it just joined.
        """
        snapshot, stats, replica_stats = self._read()
        now = self._record(snapshot)
        with self._lock:
            history = list(self._history)
            scrapes, scrape_errors = self.scrapes, self.scrape_errors

        def rate(name: str) -> float:
            # a flat window rates as 0: QPS is non-zero only while
            # completions overlap the history
            grew, elapsed = _growth(history, name, WINDOW_S, now)
            return grew / elapsed if elapsed > 0 else 0.0

        def quantiles(source: dict, family: str) -> dict:
            return {q: source.get(f"{family}.latency_ms.{q}", 0.0)
                    for q in ("p50", "p95", "p99")}

        backend = self.backend
        family = backend.family  # "serve" or "fleet"
        replicas = []
        for suffix, desc, rstats in replica_stats:
            replicas.append({
                "id": desc["id"],
                "state": desc["state"],
                "generation": desc["generation"],
                "outstanding": desc["outstanding"],
                "qps": rate(f"serve.completed{suffix}"),
                "latency_ms": quantiles(rstats, "serve"),
                "attempt_p95_ms": stats.get(
                    f"fleet.attempt_ms{suffix}.p95", 0.0),
                "queue_depth": rstats.get("serve.queue_depth", 0.0),
                "completed": rstats.get("serve.completed", 0.0),
                "drops": {name[len(_DROP_PREFIX):]: value
                          for name, value in rstats.items()
                          if name.startswith(_DROP_PREFIX)},
                "planned_peak_bytes": rstats.get(
                    "plan.planned_peak_bytes", 0.0),
                "measured_peak_bytes": rstats.get(
                    "serve.measured_peak_bytes", 0.0),
                "budget_bytes": rstats.get("plan.budget_bytes", 0.0),
                "spill_rate": rate(f"plan.spilled_bytes{suffix}"),
                "remat_rate": rate(f"plan.remat{suffix}"),
            })
        slo = backend.slo
        return {
            "model": backend.graph.name,
            "version": __version__,
            "status": backend.health_doc()["status"],
            "uptime_s": now - self._started_at,
            "fleet": {
                "replicas": len(replicas),
                "ready": sum(1 for r in replicas if r["state"] == "ready"),
                "qps": rate(f"{family}.completed"),
                "completed": stats.get(f"{family}.completed", 0.0),
                "failed": stats.get(f"{family}.failed", 0.0),
                "in_flight": stats.get(f"{family}.in_flight", 0.0),
                "hedges": stats.get("fleet.hedges", 0.0),
                "retries": sum(v for k, v in stats.items()
                               if k.startswith("fleet.retries.reason.")),
                "latency_ms": quantiles(stats, family),
            },
            "replicas": replicas,
            "slo": ([status.to_dict() for status in slo.evaluate()]
                    if slo is not None else []),
            "anomalies": [a.to_dict() for a in self.findings()],
            "ts": {
                "series": len(set().union(*(snap for _, snap in history))),
                "scrapes": scrapes,
                "scrape_errors": scrape_errors,
                "interval_s": INTERVAL_S,
                "window_s": WINDOW_S,
            },
        }

    # -- the stitched trace ----------------------------------------------

    def stitched_trace(self) -> dict | None:
        """The backend's Chrome trace, regrouped by replica.

        The fleet shares one tracer (the pool tags replica records
        ``replica=<id>``).  This is the exporter's own event list — every
        record kind the backend's trace file has — with spans and flow
        endpoints moved onto labeled rows: ``fleet`` (tid 0) for router /
        admission events, ``replica-N`` per replica, plus a
        ``fleet.cross_replica`` arrow between replica rows for every
        request whose attempts touched more than one (hedges, retries).
        None when the backend traced nothing (no recording tracer).
        """
        source = self.backend.tracer
        if not isinstance(source, Tracer):
            return None
        trace = to_chrome_trace(source, process_name="repro-fleet")
        # the per-worker lane names make way for the replica rows
        events = trace["traceEvents"] = [
            e for e in trace["traceEvents"]
            if e["ph"] != "M" or e["name"] == "process_name"]
        rows = {None: 0}  # replica id -> tid, in order of appearance

        def row(replica) -> int:
            return rows.setdefault(replica, len(rows))

        touches: dict[str, list[tuple[float, object]]] = {}
        for i, event in enumerate(events):
            if event["ph"] in ("X", "s", "f"):
                # a moved copy: the exported events are the tracer's own
                events[i] = {**event,
                             "tid": row(event["args"].get("replica"))}
            elif event["ph"] == "i" and event["name"] in ("fleet.attempt",
                                                          "fleet.hedge"):
                touches.setdefault(event["args"]["trace_id"], []).append(
                    (event["ts"], event["args"]["replica"]))

        # cross-replica arrows: one per extra attempt of any request
        # that was hedged/retried onto a different replica
        flow_id = 0
        for trace_id, attempts in sorted(touches.items()):
            attempts.sort()
            first_ts, first_replica = attempts[0]
            for ts, replica in attempts[1:]:
                if replica == first_replica:
                    continue
                flow_id += 1
                arrow = {"name": "fleet.cross_replica", "cat": "flow",
                         "id": flow_id, "pid": TRACE_PID,
                         "args": {"trace_id": trace_id}}
                events.append({**arrow, "ph": "s", "ts": first_ts,
                               "tid": row(first_replica)})
                # bp "e": bind to the enclosing span, as the exporter does
                events.append({**arrow, "ph": "f", "bp": "e", "ts": ts,
                               "tid": row(replica)})

        for replica, tid in rows.items():
            name = "fleet" if replica is None else f"replica-{replica}"
            events.append({"name": "thread_name", "ph": "M", "pid": TRACE_PID,
                           "tid": tid, "args": {"name": name}})
            events.append({"name": "thread_sort_index", "ph": "M",
                           "pid": TRACE_PID, "tid": tid,
                           "args": {"sort_index": tid}})
        return trace
