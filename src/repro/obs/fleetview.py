"""Cross-replica aggregation: one merged view of a serving fleet.

:class:`FleetView` sits next to any :class:`~repro.serve.Servable`
backend — a single :class:`~repro.serve.InferenceServer` or a fleet
:class:`~repro.fleet.Router` — and produces the fleet-level surfaces
the per-process layers cannot:

- **snapshot** — the backend's stats plus every replica server's
  stats suffixed ``.replica.<id>``, the flat form the
  :class:`~repro.obs.TimeSeriesStore` ingests,
- **merged registry** — per-replica registries folded into one via
  :meth:`MetricsRegistry.merge` with ``replica.<id>`` labels, so one
  Prometheus exposition carries both fleet aggregates and labeled
  per-replica families,
- **fleet doc** — the ``GET /fleetz`` JSON (and the ``repro top``
  frame): per-replica QPS / latency quantiles / queue depth / drops /
  planned-vs-measured peak memory / spill+remat rates, fleet totals,
  SLO burn, current anomaly findings,
- **stitched trace** — every replica's spans re-rowed onto labeled
  ``replica-N`` Chrome-trace rows with cross-replica flow arrows for
  requests that touched more than one replica (hedges, retries),
- a background :class:`~repro.obs.MetricsScraper` feeding the store
  and running the :class:`~repro.obs.AnomalyMonitor` each scrape.

The view only *reads* the backend; attaching one never changes
serving behaviour (outputs stay bitwise identical to an unobserved
server).
"""

from __future__ import annotations

import time

from .._version import __version__
from .anomaly import AnomalyMonitor
from .metrics import MetricsRegistry
from .timeseries import MetricsScraper, TimeSeriesStore
from .tracer import Tracer

__all__ = ["FleetView"]

#: replica-server stat families surfaced per replica in the fleet doc
_DROP_PREFIX = "serve.dropped.reason."


def _latency_quantiles(stats: dict[str, float], family: str) -> dict:
    return {q: stats.get(f"{family}.latency_ms.{q}", 0.0)
            for q in ("p50", "p95", "p99")}


class FleetView:
    """One merged observability surface over a servable backend."""

    def __init__(self, backend, *, store: TimeSeriesStore | None = None,
                 interval_s: float = 0.25, detectors=None,
                 store_samples: int = 512) -> None:
        self.backend = backend
        self.store = store or TimeSeriesStore(store_samples)
        self.interval_s = interval_s
        self._started_at = time.monotonic()
        self.monitor = AnomalyMonitor(
            self.store, detectors, registry=backend.metrics,
            tracer=backend.tracer if backend.tracer.enabled else None)
        self.scraper = MetricsScraper(self.snapshot, self.store,
                                      interval_s=interval_s,
                                      hook=self.monitor.check)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "FleetView":
        self.scraper.start()
        return self

    def stop(self) -> None:
        self.scraper.stop()

    def __enter__(self) -> "FleetView":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the flat scrape ------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Backend stats + per-replica server stats suffixed
        ``.replica.<id>`` — one flat dict per scrape instant."""
        merged = dict(self.backend.stats())
        for rid, _desc, server in self.backend.replicas():
            if server is None or server is self.backend:
                continue
            for name, value in server.stats().items():
                merged[f"{name}.replica.{rid}"] = value
        return merged

    def merged_registry(self) -> MetricsRegistry:
        """Every replica registry folded into a fresh one with
        ``replica.<id>`` labels, plus the backend's own registry
        unlabeled — the registry a fleet-wide Prometheus exposition
        renders from."""
        out = MetricsRegistry()
        out.merge(self.backend.metrics)
        for rid, _desc, server in self.backend.replicas():
            if server is not None and server is not self.backend:
                out.merge(server.metrics, label=f"replica.{rid}")
        return out

    # -- the operator document ------------------------------------------

    def fleet_doc(self, *, window_s: float = 5.0,
                  scrape: bool = True) -> dict:
        """The ``GET /fleetz`` body / one ``repro top`` frame.

        ``scrape=True`` (the default) takes a fresh snapshot into the
        store and runs the anomaly detectors first, so a cold view
        still reports live numbers.
        """
        if scrape:
            self.scraper.scrape_once()
        store = self.store
        stats = self.backend.stats()
        health = self.backend.health_doc()
        family = self.backend.family  # "serve" or "fleet"
        replicas = []
        for rid, desc, server in self.backend.replicas():
            suffix = "" if server is self.backend else f".replica.{rid}"
            rstats = server.stats() if server is not None else {}
            drops = {name[len(_DROP_PREFIX):]: value
                     for name, value in rstats.items()
                     if name.startswith(_DROP_PREFIX)}
            replicas.append({
                "id": desc["id"],
                "state": desc["state"],
                "generation": desc["generation"],
                "outstanding": desc["outstanding"],
                "qps": store.rate(f"serve.completed{suffix}", window_s),
                "latency_ms": _latency_quantiles(rstats, "serve"),
                "attempt_p95_ms": stats.get(
                    f"fleet.attempt_ms.replica.{rid}.p95", 0.0),
                "queue_depth": rstats.get("serve.queue_depth", 0.0),
                "completed": rstats.get("serve.completed", 0.0),
                "drops": drops,
                "planned_peak_bytes": rstats.get(
                    "plan.planned_peak_bytes", 0.0),
                "measured_peak_bytes": rstats.get(
                    "serve.measured_peak_bytes", 0.0),
                "budget_bytes": rstats.get("plan.budget_bytes", 0.0),
                "spill_rate": store.rate(f"plan.spilled_bytes{suffix}",
                                         window_s),
                "remat_rate": store.rate(f"plan.remat{suffix}", window_s),
            })
        slo = self.backend.slo
        return {
            "model": self.backend.graph.name,
            "version": __version__,
            "status": health["status"],
            "uptime_s": time.monotonic() - self._started_at,
            "fleet": {
                "replicas": len(replicas),
                "ready": sum(1 for r in replicas if r["state"] == "ready"),
                "qps": store.rate(f"{family}.completed", window_s),
                "completed": stats.get(f"{family}.completed", 0.0),
                "failed": stats.get(f"{family}.failed", 0.0),
                "in_flight": stats.get(f"{family}.in_flight", 0.0),
                "hedges": stats.get("fleet.hedges", 0.0),
                "retries": sum(v for k, v in stats.items()
                               if k.startswith("fleet.retries.reason.")),
                "latency_ms": _latency_quantiles(stats, family),
            },
            "replicas": replicas,
            "slo": ([status.to_dict() for status in slo.evaluate()]
                    if slo is not None else []),
            "anomalies": [a.to_dict() for a in self.monitor.findings()],
            "ts": {
                "series": len(self.store.names()),
                "scrapes": self.scraper.scrapes,
                "scrape_errors": self.scraper.errors,
                "interval_s": self.interval_s,
                "window_s": window_s,
            },
        }

    # -- the stitched trace ----------------------------------------------

    def stitched_trace(self) -> dict | None:
        """Every replica's records re-rowed into one Chrome trace.

        The fleet shares one tracer (replica spans are tagged
        ``replica=<id>`` by the pool); this regroups that stream onto
        labeled rows — ``fleet`` (tid 0) for router/admission events,
        ``replica-N`` for each replica's serve/executor spans — and
        draws a flow arrow between replica rows for every request
        whose attempts touched more than one replica (hedges,
        retries).  Returns None when the backend traced nothing
        (tracing off or a no-op tracer).
        """
        source = self.backend.tracer
        if not source.enabled or not hasattr(source, "export_records"):
            return None
        from .export import to_chrome_trace

        records = source.export_records()
        out = Tracer()
        # same wall-clock anchor -> absorb shifts by exactly zero, so
        # stitched timestamps match the source timeline
        out.epoch_wall = records["epoch_wall"]

        rows: dict[str, int] = {}

        def row(replica) -> int:
            if replica is None:
                return 0
            key = str(replica)
            if key not in rows:
                rows[key] = len(rows) + 1
                out.name_thread(rows[key], f"replica-{key}")
            return rows[key]

        out.name_thread(0, "fleet")
        groups: dict[int, dict] = {}

        def group(tid: int) -> dict:
            return groups.setdefault(tid, {
                "epoch_wall": records["epoch_wall"],
                "spans": [], "instants": [], "counters": []})

        for kind in ("spans", "instants"):
            for record in records[kind]:
                group(row(record["args"].get("replica")))[kind].append(record)
        if records["counters"]:
            group(0)["counters"].extend(records["counters"])
        for tid, group_records in sorted(groups.items()):
            out.absorb(group_records, tid=tid)

        # cross-replica arrows: one per extra attempt of any request
        # that was hedged/retried onto a different replica
        touches: dict[str, list[tuple[float, object]]] = {}
        for instant in records["instants"]:
            if instant["name"] in ("fleet.attempt", "fleet.hedge"):
                trace_id = instant["args"].get("trace_id")
                replica = instant["args"].get("replica")
                if trace_id is not None and replica is not None:
                    touches.setdefault(trace_id, []).append(
                        (instant["ts_us"], replica))
        flow_id = 0
        for trace_id, attempts in sorted(touches.items()):
            attempts.sort()
            first_ts, first_replica = attempts[0]
            for ts_us, replica in attempts[1:]:
                if replica == first_replica:
                    continue
                flow_id += 1
                out.flow("fleet.cross_replica", flow_id, "start",
                         ts_us=first_ts, tid=row(first_replica),
                         trace_id=trace_id)
                out.flow("fleet.cross_replica", flow_id, "finish",
                         ts_us=ts_us, tid=row(replica), trace_id=trace_id)
        return to_chrome_trace(out, process_name="repro-fleet")
