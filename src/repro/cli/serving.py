"""The serving-side commands (``docs/serving.md``, ``docs/fleet.md``,
``docs/fleet_observability.md``).

serve MODEL|FILE.npz
    Run the dynamic-batching inference server behind a JSON/HTTP
    frontend (``POST /infer``, ``GET /healthz``, ``/stats``,
    ``/metrics``, ``/fleetz``, ``/slo``).  SIGTERM/SIGINT trigger a
    graceful drain: ``/healthz`` flips to 503, in-flight requests
    finish, then the process exits 0.
fleet MODEL|FILE.npz
    The same frontend over ``--replicas K`` servers sharing
    ``--host-budget`` (each planned to ``budget/K``), fronted by the
    least-outstanding router with hedged retries and outlier ejection;
    ``--fault REPLICA:KIND:AFTER`` injects a deterministic failure.
loadgen MODEL|FILE.npz
    Drive an in-process server (``--fleet K``: a fleet) with open- or
    closed-loop load; report throughput and p50/p95/p99 latency.
    **Exits non-zero** on errors, on a violated ``--slo SPEC`` and, with
    ``--fail-on-anomaly``, on anomaly findings — the CI gates.

``top`` and ``diag`` are described by their ``--help``.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import threading
import time
from pathlib import Path

from ..bench import format_table
from ..data import random_inputs
from ..fleet import FaultPolicy, PoolConfig, ReplicaPool, Router
from ..ir import Graph
from ..obs import (FleetView, SLOMonitor, Tracer, parse_slos,
                   render_dashboard, use_tracer, write_diag_bundle)
from ..obs.fleetview import INTERVAL_S
from ..plan import InfeasibleBudget, format_bytes
from ..runtime import metrics_markdown
from ..serve import (InferenceServer, LoadgenConfig, Servable, ServerConfig,
                     run_loadgen, serve_http)
from .flags import (_budget_plan, _load_model, _obs_wrap, _print_infeasible,
                    address_flags, common, fleet_flags, frontend_flags,
                    non_negative_float, non_negative_int, obs_flags,
                    positive_float, positive_int, serve_flags, tune_flags,
                    tuned_plan)


def _serve_plan(args) -> Graph:
    """Build the model and swap in the tuned compiled plan if asked."""
    graph = _load_model(args)
    if not args.tuned:
        return graph
    plan, _record, status = tuned_plan(graph, args, tune_on_miss=False)
    print("tune cache hit: serving the cached compiled plan"
          if status == "hit"
          else "tune cache miss: serving the raw graph "
               f"(run `repro tune {args.model}` to populate the cache)")
    return plan


def _deadline_s(args) -> float | None:
    return None if args.deadline_ms is None else args.deadline_ms / 1e3


def _server_config(args) -> ServerConfig:
    return ServerConfig(
        num_workers=args.workers, max_queue=args.max_queue,
        max_wait_s=args.max_wait_ms / 1e3,
        default_deadline_s=_deadline_s(args), batching=not args.no_batching)


def _build_backend(plan: Graph, args, replicas: int | None) -> Servable:
    """The servable the CLI flags describe: one server under
    ``--budget``, or (``replicas`` set) a router over a pool sharing
    ``--host-budget``, with the ``--slo`` objectives attached.  Exits
    (``SystemExit``, which :func:`main` returns) 2 on ``--budget`` with
    a fleet and 1 on a budget with no feasible plan."""
    slo = SLOMonitor(parse_slos(args.slo)) if args.slo else None
    try:
        if replicas is None:
            # stderr: loadgen --json keeps stdout machine-parseable
            mplan = (_budget_plan(plan, args.budget, file=sys.stderr)
                     if args.budget else None)
            return InferenceServer(plan, _server_config(args), slo=slo,
                                   memory_plan=mplan)
        if args.budget:
            print(f"{args.command}: a fleet takes --host-budget (split "
                  f"across replicas) instead of --budget", file=sys.stderr)
            raise SystemExit(2)
        pool = ReplicaPool(plan, PoolConfig(
            replicas=replicas, host_budget=args.host_budget,
            server=_server_config(args)))
        return Router(pool, slo=slo, fault=(
            FaultPolicy.parse(args.fault) if args.fault else None))
    except InfeasibleBudget as exc:
        _print_infeasible(args.command, plan, exc)
        raise SystemExit(1) from None


def _trap_signals(stop: threading.Event) -> dict:
    """Route SIGTERM/SIGINT to a graceful-drain event.  Only touches
    handlers on the main thread (elsewhere — e.g. tests calling
    ``main()`` from a worker — signals stay as they were)."""
    if threading.current_thread() is not threading.main_thread():
        return {}
    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, lambda *_: stop.set())
        except (ValueError, OSError):  # pragma: no cover — exotic platforms
            pass
    return previous


def _wait_for_stop(stop: threading.Event, duration: float | None) -> None:
    """Block until ``stop`` is set or ``duration`` elapses.  Waits in
    short slices: Python-level signal handlers only run when the main
    thread re-enters the interpreter, and a signal delivered on another
    thread never interrupts one long C-level ``Event.wait``."""
    deadline = math.inf if duration is None else time.monotonic() + duration
    while (remaining := deadline - time.monotonic()) > 0:
        if stop.wait(min(0.1, remaining)):
            return


def _attach_view(backend: Servable) -> FleetView:
    """Put a fleet view on ``backend`` — what lights up ``GET /fleetz``,
    ``repro top``, the loadgen anomaly flags and ``repro diag``.  It
    only reads the backend, so serving behaviour is unchanged; the
    caller starts and stops its sampler."""
    backend.view = FleetView(backend)
    return backend.view


def _serve_until_stopped(backend: Servable, args, banner: str) -> int:
    """Serve ``backend`` over HTTP until ``--duration`` runs out or a
    SIGTERM/SIGINT arrives, then drain and print the run's metrics.
    ``banner`` is printed once the socket is bound, with ``{url}``
    replaced by the frontend's address."""
    slo = backend.slo
    stop = threading.Event()
    previous = _trap_signals(stop)
    try:
        with backend:
            with _attach_view(backend), serve_http(
                    backend, host=args.host, port=args.port) as frontend:
                host, port = frontend.address
                print(banner.replace("{url}", f"http://{host}:{port}"))
                print("endpoints: POST /infer, GET /healthz, GET /stats, "
                      "GET /metrics, GET /fleetz"
                      + (", GET /slo" if slo else ""))
                if slo:
                    for objective in slo.objectives:
                        print(f"slo: {objective.describe()}")
                try:
                    _wait_for_stop(stop, args.duration)
                except KeyboardInterrupt:
                    pass
                # drain with the frontend still up: /healthz answers
                # 503 while in-flight requests finish, so a balancer
                # stops sending traffic before the socket goes away
                print("draining: rejecting new requests, finishing "
                      "in-flight work (healthz now 503)", file=sys.stderr)
                if not backend.drain(args.drain_timeout):
                    print(f"drain timed out after {args.drain_timeout} s; "
                          f"leftover requests rejected", file=sys.stderr)
            print(metrics_markdown(
                backend.metrics,
                title=f"{backend.graph.name} serving metrics"))
            if slo:
                for status in slo.evaluate():
                    print(status.summary())
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0


def _cmd_serve(args) -> int:
    plan = _serve_plan(args)
    server = _build_backend(plan, args, None)
    return _serve_until_stopped(
        server, args,
        f"serving {plan.name!r} on {{url}} ({args.workers} worker(s), "
        f"graph batch {server.graph_batch}, {server.buckets.describe()}, "
        f"queue bound {args.max_queue})")


def _cmd_fleet(args) -> int:
    plan = _serve_plan(args)
    router = _build_backend(plan, args, args.replicas)
    pool = router.pool
    banner = (f"fleet serving {plan.name!r} on {{url}} ({args.replicas} "
              f"replica(s) x {args.workers} worker(s), "
              f"{pool.buckets.describe()}")
    if pool.memory_plan is not None:
        banner += (f", host budget {format_bytes(pool.host_budget_bytes)} "
                   f"({format_bytes(pool.memory_plan.budget_bytes or 0)} "
                   f"per replica)")
    banner += ")"
    if router.fault is not None:
        banner += f"\nfault armed: {router.fault.describe()}"
    return _serve_until_stopped(router, args, banner)


def _cmd_loadgen(args) -> int:
    plan = _serve_plan(args)
    config = LoadgenConfig(
        mode=args.mode, requests=args.requests, concurrency=args.concurrency,
        rate=args.rate, samples=args.samples, deadline_s=_deadline_s(args),
        seed=args.seed)
    backend = _build_backend(plan, args, args.fleet or None)
    detect = args.detect_anomalies or args.fail_on_anomaly
    anomalies: list[dict] = []
    with backend:
        if detect:
            # sample while the run happens — the detectors need
            # in-flight history, not just the end-of-run totals
            view = _attach_view(backend).start()
        report = run_loadgen(backend, config)
        if detect:
            view.sample()  # final sample + detector pass
            view.stop()
            anomalies = [a.to_dict() for a in view.findings()]
        stats = backend.stats()
        if args.metrics_out:
            Path(args.metrics_out).write_text(backend.metrics_text())
            print(f"wrote Prometheus metrics to {args.metrics_out}",
                  file=sys.stderr)
    # errors are always fatal; an unhealthy SLO is fatal when asked
    # for, and so are anomaly findings under --fail-on-anomaly
    rc = 1 if report.errors or not report.slo_ok else 0
    if args.fail_on_anomaly and anomalies:
        rc = 1
    if args.json:
        doc = report.to_dict()
        doc["server"] = stats
        if detect:
            doc["anomalies"] = anomalies
        print(json.dumps(doc, indent=2, sort_keys=True))
        return rc
    print(report.summary())
    print()
    rows = [[name, f"{value:g}"] for name, value in stats.items()
            if name.startswith(("serve.", "fleet.", "slo."))]
    print(format_table(["metric", "value"], rows,
                       title=f"{plan.name} server metrics"))
    for a in anomalies:
        print(f"anomaly [{a['severity']}] {a['kind']} {a['subject']}: "
              f"{a['message']}")
    if rc and not report.slo_ok:
        print("\nSLO VIOLATED — failing (see the slo lines above)")
    if args.fail_on_anomaly and anomalies:
        print("\nANOMALY DETECTED — failing (--fail-on-anomaly)")
    return rc


def _cmd_top(args) -> int:
    from urllib.error import URLError
    from urllib.request import urlopen

    url = args.url or f"http://{args.host}:{args.port}/fleetz"
    once = args.once or args.json
    color = sys.stdout.isatty() and not args.no_color
    try:
        while True:
            try:
                with urlopen(url, timeout=args.timeout) as resp:
                    doc = json.loads(resp.read())
            except (URLError, OSError, ValueError) as exc:
                print(f"top: cannot fetch {url}: {exc}", file=sys.stderr)
                return 1
            if args.json:
                print(json.dumps(doc, indent=1, sort_keys=True))
            else:
                if not once:
                    # clear + home: full repaint each frame, no curses
                    sys.stdout.write("\x1b[2J\x1b[H")
                print(render_dashboard(doc, color=color))
                sys.stdout.flush()
            if once:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_diag(args) -> int:
    """``repro diag``: capture a diagnostic snapshot bundle in-process.

    Builds the requested backend (single server, or a fleet with
    ``--replicas``), drives a little traffic under a tracer so the
    view's history / histograms / stitched trace have content, then
    tars up the whole observability surface via
    :func:`repro.obs.write_diag_bundle`.
    """
    plan = _serve_plan(args)
    with use_tracer(Tracer()):
        backend = _build_backend(plan, args, args.replicas or None)
        inputs = random_inputs(backend.graph, args.seed)
        with backend:
            with _attach_view(backend) as view:
                # two waves with a gap so the sampler catches the
                # counters mid-climb (a flat series rates as 0)
                per_wave = max(1, args.requests // 2)
                for wave in range(2):
                    futures = [backend.submit(inputs)
                               for _ in range(per_wave)]
                    for f in futures:
                        f.result()
                    time.sleep(2.5 * INTERVAL_S)
                members = write_diag_bundle(
                    args.output, view=view,
                    config={flag: getattr(args, flag) for flag in (
                        "command", "model", "replicas", "requests",
                        "workers", "budget", "host_budget", "fault")},
                    audit=args.audit)
    print(f"wrote diag bundle to {args.output} "
          f"({len(members)} members):")
    for member in members:
        print(f"  {member}")
    return 0


def _backend_parser(sub, name: str, help: str):
    """A command that builds a servable: model, serving and --tuned flags."""
    p = sub.add_parser(name, help=help)
    common(p)
    serve_flags(p)
    tune_flags(p, no_tune=False)
    return p


def register(sub) -> None:
    p = _backend_parser(sub, "serve", "dynamic-batching inference server "
                                      "with a JSON/HTTP frontend")
    frontend_flags(p)
    obs_flags(p)
    p.set_defaults(fn=_obs_wrap(_cmd_serve))

    p = _backend_parser(sub, "fleet", "multi-replica fleet: shared host "
                                      "budget, least-outstanding routing, "
                                      "hedged retries, one HTTP frontend")
    p.add_argument("--replicas", type=positive_int, default=2,
                   help="replica count (default 2)")
    fleet_flags(p)
    frontend_flags(p)
    obs_flags(p)
    p.set_defaults(fn=_obs_wrap(_cmd_fleet))

    p = _backend_parser(sub, "loadgen", "drive an in-process server with "
                                        "synthetic load; report p50/p95/p99")
    p.add_argument("--mode", choices=("closed", "open"), default="closed",
                   help="closed: fixed concurrency; open: Poisson arrivals")
    p.add_argument("--requests", type=positive_int, default=64)
    p.add_argument("--concurrency", type=positive_int, default=4,
                   help="closed-loop client count (default 4)")
    p.add_argument("--rate", type=positive_float, default=200.0,
                   help="open-loop arrival rate, req/s (default 200)")
    p.add_argument("--samples", type=positive_int, default=1,
                   help="samples per request (default 1)")
    p.add_argument("--fleet", type=non_negative_int, default=0, metavar="K",
                   help="drive a K-replica fleet through the router "
                        "instead of a single server (default 0: single)")
    fleet_flags(p)
    p.add_argument("--metrics-out", type=Path, default=None, metavar="PATH",
                   help="write the end-of-run Prometheus text exposition "
                        "to PATH (scrape-equivalent of GET /metrics)")
    p.add_argument("--detect-anomalies", action="store_true",
                   help="run the fleet anomaly detectors (latency "
                        "regression, memory drift, drop spikes, replica "
                        "outliers) over the run and report findings")
    p.add_argument("--fail-on-anomaly", action="store_true",
                   help="exit non-zero when any anomaly fires (implies "
                        "--detect-anomalies) — the CI outlier gate")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON (for scripts/CI)")
    obs_flags(p)
    p.set_defaults(fn=_obs_wrap(_cmd_loadgen))

    p = sub.add_parser("top", help="live fleet dashboard: poll GET /fleetz "
                                   "and repaint per-replica QPS/latency/"
                                   "memory plus anomalies")
    p.add_argument("--url", default=None, metavar="URL",
                   help="full /fleetz URL (overrides --host/--port)")
    address_flags(p, "port the serve/fleet frontend listens on "
                     "(default 8100)")
    p.add_argument("--interval", type=non_negative_float, default=1.0,
                   help="refresh interval in seconds (default 1)")
    p.add_argument("--timeout", type=positive_float, default=5.0,
                   help="per-poll HTTP timeout in seconds (default 5)")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit instead of repainting")
    p.add_argument("--json", action="store_true",
                   help="print one raw /fleetz document as JSON and exit "
                        "(implies --once; for scripts/CI)")
    p.add_argument("--no-color", action="store_true",
                   help="plain-text frames (no ANSI colors)")
    p.set_defaults(fn=_cmd_top)

    p = _backend_parser(sub, "diag", "capture a diagnostic snapshot bundle: "
                                     "merged trace, time-series dump, "
                                     "metrics, SLO state, anomalies, memory "
                                     "plan, build info")
    p.add_argument("--replicas", type=non_negative_int, default=0,
                   metavar="K",
                   help="snapshot a K-replica fleet instead of a single "
                        "server (default 0: single)")
    fleet_flags(p)
    p.add_argument("--requests", type=non_negative_int, default=8,
                   help="warm-up requests to drive before the snapshot "
                        "(default 8)")
    p.add_argument("--audit", action="store_true",
                   help="with --budget: include a budgeted-run conformance "
                        "audit in the bundle (runs the graph twice more)")
    p.add_argument("-o", "--output", type=Path,
                   default=Path("repro-diag.tar.gz"), metavar="PATH",
                   help="bundle path (default repro-diag.tar.gz)")
    p.set_defaults(fn=_cmd_diag)
