"""Observability: tracing, decision logging, metrics, trace export.

The subsystem has four moving parts:

- :class:`Tracer` / :class:`NoopTracer` (:mod:`repro.obs.tracer`) —
  nested spans, instant events, counter tracks, and the structured
  *decision event log* every compiler pass writes its accept/reject
  verdicts to, all kept in one list, ``Tracer.events``, as the Chrome
  trace events they export as; ``tracer.tagged(...)`` is a view that
  stamps fixed args onto every record.  The no-op tracer is the ambient
  default, so tracing is zero-cost unless explicitly installed with
  :func:`use_tracer`.
- exporters (:mod:`repro.obs.export`) — Chrome trace-event JSON
  (openable in Perfetto / ``chrome://tracing``) and the same events as
  a JSONL stream.
- :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — counters and
  gauges summarized as Markdown by
  :func:`repro.runtime.report.metrics_markdown`.
- the fleet observability plane — :class:`FleetView`
  (:mod:`repro.obs.fleetview`) keeps a rolling history of a serving
  backend's stats, runs the anomaly detectors over it and merges
  per-replica registries/traces; :func:`render_dashboard` formats its
  document and :func:`write_diag_bundle` (:mod:`repro.obs.diag`)
  snapshots everything into one tarball.
  See ``docs/fleet_observability.md``.

Quick use::

    from repro.obs import Tracer, use_tracer, write_chrome_trace

    tracer = Tracer()
    with use_tracer(tracer):
        optimized, report = optimize(decomposed)
        InferenceSession(optimized).run(x)
    write_chrome_trace(tracer, "trace.json")

See ``docs/observability.md`` for the event taxonomy.
"""

from .dashboard import render_dashboard
from .diag import write_diag_bundle
from .export import (chrome_trace_events, to_chrome_trace, write_chrome_trace,
                     write_jsonl, write_trace)
from .fleetview import Anomaly, FleetView
from .metrics import Histogram, MetricsRegistry
from .profile import (OpStat, ProfileReport, collapsed_stacks, profile_spans,
                      profile_tracer, write_collapsed_stacks)
from .prometheus import prometheus_metric_name, prometheus_text
from .slo import SLObjective, SLOMonitor, SLOStatus, parse_slo, parse_slos
from .tracer import (NOOP_TRACER, NoopTracer, Tracer, configure_logging,
                     get_tracer, new_trace_id, set_tracer, use_tracer)

__all__ = [
    "Anomaly",
    "FleetView",
    "render_dashboard",
    "write_diag_bundle",
    "Histogram",
    "MetricsRegistry",
    "OpStat",
    "ProfileReport",
    "profile_spans",
    "profile_tracer",
    "collapsed_stacks",
    "write_collapsed_stacks",
    "SLObjective",
    "SLOMonitor",
    "SLOStatus",
    "parse_slo",
    "parse_slos",
    "prometheus_text",
    "prometheus_metric_name",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "new_trace_id",
    "configure_logging",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]
