"""``repro diag``: one tarball capturing a fleet's full state.

A misbehaving fleet is only debuggable after the fact if somebody
captured its state *while* it misbehaved.  :func:`write_diag_bundle`
snapshots everything the observability plane knows into a single
``.tar.gz``:

========================  ============================================
member                    contents
========================  ============================================
``MANIFEST.json``         bundle index: version, model, member list
``fleetz.json``           the merged fleet doc (``GET /fleetz`` body)
``trace.json``            stitched multi-replica Chrome trace (when
                          the backend ran with a recording tracer)
``timeseries.json``       the view's whole sample history, per series
``metrics.prom``          merged Prometheus exposition (fleet
                          aggregates + ``replica``-labeled families)
``slo.json``              SLO statuses (empty list without a monitor)
``anomalies.json``        every anomaly finding seen so far
``memory_plan.json``      the enforced memory plan (when planned)
``audit.json``            fresh budget-conformance audit result
                          (when planned *and* ``audit=True``)
``config.json``           caller-provided run configuration
========================  ============================================

Everything is produced in memory (``tarfile`` over ``BytesIO``
members) — capturing a bundle never perturbs the serving path beyond
one sample of the backend's stats.
"""

from __future__ import annotations

import io
import json
import tarfile
import time
from pathlib import Path

from .._version import __version__
from .prometheus import prometheus_text

__all__ = ["write_diag_bundle"]


def _member(tar: tarfile.TarFile, name: str, payload: str) -> None:
    data = payload.encode("utf-8")
    info = tarfile.TarInfo(name)
    info.size = len(data)
    info.mtime = int(time.time())
    tar.addfile(info, io.BytesIO(data))


def write_diag_bundle(path: str | Path, *, view, config: dict | None = None,
                      audit: bool = False) -> list[str]:
    """Capture ``view``'s backend into a ``.tar.gz`` at ``path``.

    ``view`` is a :class:`~repro.obs.FleetView`; ``config`` is an
    arbitrary JSON-able dict recording how the run was launched
    (model, flags); ``audit=True`` additionally re-runs the budget
    conformance audit (two extra graph executions) when the backend
    serves under a memory plan.  Returns the member names written.
    """
    path = Path(path)
    doc = view.fleet_doc()
    members: dict[str, str] = {}

    def add_json(name: str, payload) -> None:
        members[name] = json.dumps(payload, indent=1, sort_keys=True,
                                   default=str)

    add_json("fleetz.json", doc)
    add_json("timeseries.json", view.timeseries())
    add_json("slo.json", doc.get("slo", []))
    add_json("anomalies.json", doc.get("anomalies", []))
    members["metrics.prom"] = prometheus_text(view.merged_registry(),
                                              build_info=__version__)
    trace = view.stitched_trace()
    if trace is not None:
        add_json("trace.json", trace)

    backend = view.backend
    plan = backend.memory_plan
    if plan is not None:
        add_json("memory_plan.json", plan.to_dict())
        if audit and plan.budget_bytes:
            from .audit import audit_budgeted
            verdict = audit_budgeted(backend.graph, plan.budget_bytes,
                                     model=backend.graph.name)
            add_json("audit.json", verdict.to_dict())

    if config is not None:
        add_json("config.json", config)

    add_json("MANIFEST.json", {
        "version": __version__,
        "model": doc.get("model", ""),
        "captured_at_unix": time.time(),
        "members": sorted(members) + ["MANIFEST.json"],
        "anomaly_count": len(doc.get("anomalies", [])),
    })

    path.parent.mkdir(parents=True, exist_ok=True)
    with tarfile.open(path, "w:gz") as tar:
        for name in sorted(members):
            _member(tar, name, members[name])
    return sorted(members)
