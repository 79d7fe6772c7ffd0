"""Prometheus text exposition (format version 0.0.4) of a registry.

:func:`prometheus_text` renders a
:class:`~repro.obs.metrics.MetricsRegistry` as the plain-text format
Prometheus scrapes, so the serving frontend's ``GET /metrics``
endpoint makes a running :class:`~repro.serve.InferenceServer`
observable by any off-the-shelf Prometheus/Grafana stack — stdlib
only, like the rest of the repo:

- counters render as ``TYPE counter`` with the conventional ``_total``
  suffix,
- counters and gauges following the ``<base>.<label>.<value>`` naming
  convention (for the label keys in :data:`LABEL_KEYS`) collapse into
  one labeled family: ``serve.dropped.reason.queue_full`` and
  ``serve.dropped.reason.deadline_expired`` render as
  ``repro_serve_dropped_total{reason="queue_full"} ...`` — so a single
  PromQL ``sum by (reason)`` breaks overload/shed/expiry apart — and
  the fleet's ``fleet.replica_up.replica.0`` renders as
  ``repro_fleet_replica_up{replica="0"}``, the batcher's
  ``serve.bucket_runs.size.1`` as
  ``repro_serve_bucket_runs_total{size="1"}``,
- gauges render as ``TYPE gauge``,
- when a ``build_info`` version string is passed (the serving
  frontends pass :data:`repro.__version__`), a conventional
  ``repro_build_info{version="..."} 1`` gauge leads the document so
  rollouts are distinguishable scrape-to-scrape,
- histograms render as ``TYPE summary``: the p50/p95/p99 reservoir
  quantiles with ``quantile`` labels plus ``_sum`` / ``_count``, and
  the exact min/max as companion gauges.

Metric names are sanitized to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``): the registry's dotted names
(``serve.latency_ms``) become underscore-joined and namespaced
(``repro_serve_latency_ms``).
"""

from __future__ import annotations

import re

from .metrics import MetricsRegistry

__all__ = ["prometheus_text", "prometheus_metric_name", "CONTENT_TYPE",
           "LABEL_KEYS"]

#: the Content-Type a /metrics response must declare
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")

#: summary quantile label per snapshot key
_QUANTILE_KEYS = (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99"))

#: dotted-name segments that collapse into Prometheus labels:
#: ``<base>.<key>.<value>`` renders as ``<base>{<key>="<value>"}``
LABEL_KEYS = ("reason", "replica", "kind", "size")


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash,
    double quote and newline must be ``\\\\``, ``\\"`` and ``\\n`` —
    drop-reason strings and version tags can carry any of them."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _split_labeled(name: str) -> tuple[str, str, str] | None:
    """``{base}.{key}.{value}`` -> ``(base, key, value)`` for the keys
    in :data:`LABEL_KEYS` (first matching key wins, so one family
    carries one label); ``None`` for plain names."""
    for key in LABEL_KEYS:
        base, sep, label_value = name.partition(f".{key}.")
        if sep and label_value:
            return base, key, label_value
    return None


def _partition_labeled(metrics: dict[str, float]) -> tuple[
        dict[str, float], dict[tuple[str, str], dict[str, float]]]:
    """Split ``{base}.{label}.{value}``-named metrics from plain ones.

    Returns ``(plain, labeled)`` where ``labeled`` maps ``(base,
    label_key)`` to ``{label_value: metric_value}``.
    """
    plain: dict[str, float] = {}
    labeled: dict[tuple[str, str], dict[str, float]] = {}
    for name, value in metrics.items():
        split = _split_labeled(name)
        if split is not None:
            base, key, label_value = split
            labeled.setdefault((base, key), {})[label_value] = value
        else:
            plain[name] = value
    return plain, labeled


def prometheus_metric_name(name: str, namespace: str = "repro") -> str:
    """Sanitize a registry metric name into a valid Prometheus name."""
    flat = _INVALID.sub("_", name)
    full = f"{namespace}_{flat}" if namespace else flat
    if not full or full[0].isdigit():
        full = f"_{full}"
    return full


def _num(value: float) -> str:
    """Exposition number rendering: integers stay exact (no %g
    truncation of byte counts), floats use repr for full precision."""
    value = float(value)
    if value.is_integer() and abs(value) < 2 ** 63:
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry, *, namespace: str = "repro",
                    extra_gauges: dict[str, float] | None = None,
                    build_info: str | None = None) -> str:
    """The registry as one Prometheus text-exposition document.

    ``extra_gauges`` lets a caller append point-in-time values that
    live outside the registry (the server's in-flight count, worker
    count); they render as gauges under the same namespace.
    ``build_info`` (a version string) prepends the conventional
    ``<namespace>_build_info{version="..."} 1`` gauge.
    """
    counters, gauges, histograms = registry.export()
    if extra_gauges:
        gauges = {**gauges, **{k: float(v) for k, v in extra_gauges.items()}}
    lines: list[str] = []

    if build_info is not None:
        metric = prometheus_metric_name("build_info", namespace)
        lines.append(f"# HELP {metric} Package version serving this "
                     f"endpoint (constant 1; the label carries the value).")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(
            f'{metric}{{version="{_escape_label_value(build_info)}"}} 1')

    plain, labeled = _partition_labeled(counters)

    for name in sorted(plain):
        metric = prometheus_metric_name(name, namespace)
        if not metric.endswith("_total"):
            metric += "_total"
        lines.append(f"# HELP {metric} Counter {name!r} from the repro "
                     f"metrics registry.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_num(plain[name])}")

    for base, key in sorted(labeled):
        family = labeled[(base, key)]
        metric = prometheus_metric_name(base, namespace)
        if not metric.endswith("_total"):
            metric += "_total"
        lines.append(f"# HELP {metric} Counter {base!r} from the repro "
                     f"metrics registry, labeled by {key}.")
        lines.append(f"# TYPE {metric} counter")
        for value in sorted(family):
            lines.append(f'{metric}{{{key}="{_escape_label_value(value)}"}} '
                         f"{_num(family[value])}")

    plain_gauges, labeled_gauges = _partition_labeled(gauges)

    for name in sorted(plain_gauges):
        metric = prometheus_metric_name(name, namespace)
        lines.append(f"# HELP {metric} Gauge {name!r} from the repro "
                     f"metrics registry.")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_num(plain_gauges[name])}")

    for base, key in sorted(labeled_gauges):
        family = labeled_gauges[(base, key)]
        metric = prometheus_metric_name(base, namespace)
        lines.append(f"# HELP {metric} Gauge {base!r} from the repro "
                     f"metrics registry, labeled by {key}.")
        lines.append(f"# TYPE {metric} gauge")
        for value in sorted(family):
            lines.append(f'{metric}{{{key}="{_escape_label_value(value)}"}} '
                         f"{_num(family[value])}")

    plain_hists: dict[str, dict[str, float]] = {}
    labeled_hists: dict[tuple[str, str], dict[str, dict[str, float]]] = {}
    for name, snap in histograms.items():
        split = _split_labeled(name)
        if split is not None:
            base, key, label_value = split
            labeled_hists.setdefault((base, key), {})[label_value] = snap
        else:
            plain_hists[name] = snap

    for name in sorted(plain_hists):
        snap = plain_hists[name]
        metric = prometheus_metric_name(name, namespace)
        lines.append(f"# HELP {metric} Distribution {name!r} from the "
                     f"repro metrics registry (reservoir quantiles).")
        lines.append(f"# TYPE {metric} summary")
        for key, quantile in _QUANTILE_KEYS:
            lines.append(f'{metric}{{quantile="{quantile}"}} '
                         f"{_num(snap[key])}")
        lines.append(f"{metric}_sum {_num(snap['sum'])}")
        lines.append(f"{metric}_count {_num(snap['count'])}")
        for stat in ("min", "max"):
            lines.append(f"# TYPE {metric}_{stat} gauge")
            lines.append(f"{metric}_{stat} {_num(snap[stat])}")

    for base, label_key in sorted(labeled_hists):
        family = labeled_hists[(base, label_key)]
        metric = prometheus_metric_name(base, namespace)
        lines.append(f"# HELP {metric} Distribution {base!r} from the "
                     f"repro metrics registry, labeled by {label_key}.")
        lines.append(f"# TYPE {metric} summary")
        for label_value in sorted(family):
            snap = family[label_value]
            tag = f'{label_key}="{_escape_label_value(label_value)}"'
            for key, quantile in _QUANTILE_KEYS:
                lines.append(f'{metric}{{{tag},quantile="{quantile}"}} '
                             f"{_num(snap[key])}")
            lines.append(f"{metric}_sum{{{tag}}} {_num(snap['sum'])}")
            lines.append(f"{metric}_count{{{tag}}} {_num(snap['count'])}")

    return "\n".join(lines) + "\n"
