"""Command-line interface: ``python -m repro <command>``.

Commands
--------
models
    List the benchmark zoo.
inspect MODEL|FILE.npz
    Print a model's IR, parameter counts and static memory estimates.
optimize MODEL|FILE.npz [-o OUT.npz]
    Decompose (Tucker/CP/TT) + TeMCO-optimize; print the report and
    optionally save the optimized graph.
run MODEL|FILE.npz
    Execute one inference on synthetic input; print the memory profile
    and wall-clock time.  With ``--tuned``, execute the autotuned
    compiled plan from the tuning cache (tuning + compiling first on a
    miss unless ``--no-tune``).  With ``--budget BYTES`` the
    :mod:`repro.plan` planner computes a spill/prefetch/remat schedule
    and the runtime enforces it — outputs stay bitwise identical while
    the measured peak lands on the plan's simulated peak.
plan MODEL|FILE.npz [--budget BYTES] [--optimize]
    Compute (without enforcing) the budget-constrained memory plan:
    the per-tensor action table, predicted peak, working-set floor and
    cost-model overhead; ``--json`` for the full machine-readable
    plan.  Exits non-zero with the residual when the budget is
    infeasible.  See ``docs/memory_planning.md``.
tune MODEL|FILE.npz
    Autotune the fused kernels' ``(block_size, spatial_tile)`` — every
    valid pair of every site is timed, the fastest kept — and persist
    the chosen tiles plus the compiled plan in the tuning cache; a
    second invocation is a cache hit and does no work.
trace MODEL|FILE.npz
    Decompose + optimize + run one inference with full tracing; write a
    Chrome trace (open in Perfetto / ``chrome://tracing``) carrying the
    compiler's decision log, per-node executor spans and the live-bytes
    counter track.
profile MODEL|FILE.npz
    Hot-path profiler: run a few traced inferences (decompose +
    optimize first unless ``--no-optimize``) and rank op types and
    layers by self time, with bytes moved, analytic FLOPs, arithmetic
    intensity and fused scratch per row.  ``--flamegraph PATH`` writes
    collapsed-stack input for ``flamegraph.pl`` / speedscope;
    ``--json`` for machine-readable output.
serve MODEL|FILE.npz
    Run the dynamic-batching inference server with a JSON/HTTP
    frontend (``POST /infer``, ``GET /healthz``, ``GET /stats``,
    ``GET /metrics``, ``GET /slo``).  ``--tuned`` serves the autotuned
    compiled plan from the tuning cache; ``--trace PATH`` records
    request-lifecycle traces (admission spans, batch fan-in arrows,
    per-request waterfalls); ``--slo SPEC`` attaches burn-rate
    monitored objectives.  SIGTERM/SIGINT trigger a graceful drain:
    ``/healthz`` flips to 503, in-flight requests finish, then the
    process exits 0.  See ``docs/serving.md``.
fleet MODEL|FILE.npz
    Run a multi-replica fleet behind one HTTP frontend: ``--replicas
    K`` servers share ``--host-budget`` (each planned to ``budget/K``
    by the repro.plan planner), fronted by the least-outstanding
    router with hedged retries and outlier ejection.  ``--fault
    REPLICA:KIND:AFTER`` injects a deterministic kill/stall/slow for
    failover demos.  SIGTERM/SIGINT drain the whole fleet gracefully.
    See ``docs/fleet.md``.
loadgen MODEL|FILE.npz
    Start an in-process server and drive it with an open- or
    closed-loop load generator; reports throughput and p50/p95/p99
    latency (``--json`` for machine-readable output).  ``--fleet K``
    drives a K-replica fleet through the router instead of a single
    server (with ``--host-budget`` / ``--fault`` as above — the CI
    failover smoke kills a replica mid-run and asserts zero errors);
    ``--metrics-out PATH`` dumps the end-of-run Prometheus exposition.
    ``--slo SPEC`` (repeatable; ``availability:0.99`` or
    ``latency:50:0.95``) evaluates objectives over the run and
    **exits non-zero on violation** — the CI gate; ``--trace PATH``
    captures the full serving trace.
memcheck [MODEL ...]
    Memory conformance audit: run every requested zoo model (original
    *and* TeMCO-optimized) with the allocation ledger on and cross-check
    measured peak vs the liveness prediction, the arena plan, and the
    ledger's own replay.  Exits non-zero on any mismatch.  With
    ``--budget BYTES``, switches to budgeted-run conformance instead:
    plan + enforce each model and check measured peak ≤ budget, peak ==
    the plan's simulation, bitwise-identical outputs and a clean
    spill/remat-tagged ledger.  See ``docs/memory_auditing.md``.
bench {fig4,fig10,fig11,fig12}
    Regenerate one paper figure as a text table.

``optimize``, ``run``, ``bench``, ``serve`` and ``loadgen`` also
accept ``--trace PATH`` (dump a Chrome trace / JSONL of the whole
command) and ``--log-level`` (wire stdlib logging for the ``repro``
hierarchy), plus ``--tuned`` /
``--no-tune`` / ``--cache-dir DIR`` to reuse ``repro tune`` results
(see ``docs/tuning.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import threading
import time
from pathlib import Path

from .bench import (PAPER_LABELS, figure4, figure10, figure11, figure12,
                    format_table, internal_reduction_geomean, overhead_ratios,
                    trace_figures, use_tuned_fusion)
from .core import (TeMCOConfig, estimate_peak_floor, estimate_peak_internal,
                   optimize)
from .data import random_inputs
from .decompose import DecompositionConfig, decompose_graph
from .fleet import FaultPolicy, PoolConfig, ReplicaPool, Router
from .ir import (Graph, format_graph, load_graph, save_dot, save_graph,
                 summarize_graph)
from .models import EXTRA_MODELS, MODEL_ZOO, build_extra, build_model
from .obs import (FleetView, SLOMonitor, Tracer, configure_logging,
                  parse_slos, profile_tracer, render_dashboard, use_tracer,
                  write_collapsed_stacks, write_diag_bundle, write_trace)
from .obs.fleetview import INTERVAL_S
from .plan import (BudgetSyntaxError, InfeasibleBudget, PlanCostModel,
                   format_bytes, parse_budget, plan_memory)
from .runtime import (InferenceSession, metrics_markdown, plan_arena,
                      profile_markdown, timeline_csv)
from .serve import (InferenceServer, LoadgenConfig, Servable, ServerConfig,
                    resolve_plan, run_loadgen, serve_http)
from .tune import (TuneCache, TuneConfig, cached_overrides, load_cached_plan,
                   tune_model)

__all__ = ["main", "build_parser"]

MIB = 1024 * 1024


def _obs_wrap(fn):
    """Honour ``--log-level`` / ``--trace`` around a command function."""
    def wrapped(args) -> int:
        if getattr(args, "log_level", None):
            configure_logging(args.log_level)
        trace_path = getattr(args, "trace", None)
        if not trace_path:
            return fn(args)
        tracer = Tracer()
        with use_tracer(tracer):
            rc = fn(args)
        path = write_trace(tracer, trace_path)
        # stderr: commands with --json keep stdout machine-parseable
        print(f"wrote trace ({len(tracer.spans)} spans, "
              f"{len(tracer.decisions)} decisions) to {path}",
              file=sys.stderr)
        return rc
    return wrapped


def _load_model(spec: str, batch: int, hw: int | None, seed: int) -> Graph:
    if spec.endswith(".npz"):
        return load_graph(spec)
    if spec in EXTRA_MODELS:
        return build_extra(spec, batch=batch, hw=hw, seed=seed)
    return build_model(spec, batch=batch, hw=hw, seed=seed)


def _cmd_models(args) -> int:
    rows = [[name, s.family, s.task, s.default_hw,
             "yes" if s.has_skip_connections else "no"]
            for name, s in MODEL_ZOO.items()]
    print(format_table(["model", "family", "task", "default hw", "skips"],
                       rows, title="benchmark model zoo (paper §4.1)"))
    extras = [[name, s.family, s.task, s.default_hw,
               "yes" if s.has_skip_connections else "no"]
              for name, s in EXTRA_MODELS.items()]
    print()
    print(format_table(["model", "family", "task", "default hw", "skips"],
                       extras, title="extra variants (not in the paper's set)"))
    return 0


def _cmd_export(args) -> int:
    graph = _load_model(args.model, args.batch, args.hw, args.seed)
    if args.what == "dot":
        save_dot(graph, args.output)
    else:
        inputs = random_inputs(graph, args.seed)
        profile = InferenceSession(graph).run(inputs).memory
        Path(args.output).write_text(
            timeline_csv(profile) if args.what == "timeline"
            else profile_markdown(profile, title=graph.name))
    print(f"wrote {args.what} for {graph.name!r} to {args.output}")
    return 0


def _cmd_inspect(args) -> int:
    graph = _load_model(args.model, args.batch, args.hw, args.seed)
    print(summarize_graph(graph))
    print(f"estimated peak internal: {estimate_peak_internal(graph) / MIB:.2f} MiB")
    plan = plan_arena(graph)
    print(f"static arena: {plan.arena_bytes / MIB:.2f} MiB "
          f"(fragmentation {plan.fragmentation:.1%})")
    if args.ir:
        print()
        print(format_graph(graph))
    return 0


def _tuned_overrides(graph, args, decomposition: DecompositionConfig,
                     temco: TeMCOConfig) -> dict | None:
    """Resolve ``--tuned`` to fusion site overrides (tuning on a miss
    unless ``--no-tune``); None means proceed untuned."""
    cache = TuneCache(args.cache_dir)
    overrides = cached_overrides(graph, cache=cache,
                                 decomposition=decomposition, temco=temco)
    if overrides is not None:
        print(f"tune cache hit: {len(overrides)} tuned fusion sites")
        return overrides
    if args.no_tune:
        print("tune cache miss (--no-tune): using default tiles; "
              f"run `repro tune {args.model}` to populate the cache")
        return None
    print("tune cache miss: tuning now (use --no-tune to skip)")
    _plan, record, _hit = tune_model(graph, cache=cache,
                                     decomposition=decomposition, temco=temco)
    return {} if record.fell_back_to_default else record.overrides


def _cmd_optimize(args) -> int:
    graph = _load_model(args.model, args.batch, args.hw, args.seed)
    decomposition = DecompositionConfig(
        method=args.method, ratio=args.ratio, seed=args.seed,
        rank_policy=args.rank_policy, energy=args.energy)
    temco = TeMCOConfig(concat_strategy=args.concat_strategy)
    tuner = None
    if args.tuned:
        overrides = _tuned_overrides(graph, args, decomposition, temco)
        if overrides:
            tuner = lambda _g: overrides  # noqa: E731
    decomposed = decompose_graph(graph, decomposition)
    optimized, report = optimize(decomposed, temco, tuner=tuner)
    print(f"original:  {summarize_graph(graph)}")
    print(f"decomposed: {summarize_graph(decomposed)}")
    print(f"optimized:  {summarize_graph(optimized)}")
    print()
    print(report.summary())
    orig_peak = estimate_peak_internal(graph)
    print(f"internal peak vs original: {orig_peak / MIB:.2f} MiB -> "
          f"{report.peak_after / MIB:.2f} MiB "
          f"({1 - report.peak_after / orig_peak:.1%} reduction)")
    if args.output:
        save_graph(optimized, args.output)
        print(f"saved optimized graph to {args.output}")
    return 0


def _budget_plan(graph: Graph, budget_spec: str):
    """Parse a ``--budget`` spec against ``graph``'s predicted peak and
    plan it.  Returns ``(memory_plan, reference_peak_bytes)``; raises
    :class:`~repro.plan.InfeasibleBudget` when no schedule fits."""
    reference = estimate_peak_internal(graph)
    budget = parse_budget(budget_spec, reference=reference)
    return plan_memory(graph, budget), reference


def _print_infeasible(command: str, graph: Graph,
                      exc: InfeasibleBudget) -> None:
    print(f"{command}: {exc}", file=sys.stderr)
    print(f"{command}: the irreducible working-set floor of "
          f"{graph.name!r} is {format_bytes(estimate_peak_floor(graph))} — "
          f"budgets below it can never fit", file=sys.stderr)


def _cmd_run(args) -> int:
    graph = _load_model(args.model, args.batch, args.hw, args.seed)
    target = graph
    if args.tuned:
        cache = TuneCache(args.cache_dir)
        decomposition = DecompositionConfig(method=args.method,
                                            ratio=args.ratio, seed=args.seed)
        cached = load_cached_plan(graph, cache=cache,
                                  decomposition=decomposition)
        if cached is not None:
            target, record = cached
            print(f"tune cache hit: executing cached compiled plan "
                  f"(key {record.key}, {len(record.sites)} tuned sites)")
        elif args.no_tune:
            print(f"tune cache miss (--no-tune): running the raw model; "
                  f"run `repro tune {args.model}` to populate the cache")
        else:
            print("tune cache miss: tuning now (use --no-tune to skip)")
            target, record, _hit = tune_model(
                graph, cache=cache, decomposition=decomposition)
            print(f"tuned and cached {len(record.sites)} sites "
                  f"(key {record.key}, {record.total_trials} trials)")
    memory_plan = None
    if args.budget:
        try:
            memory_plan, reference = _budget_plan(target, args.budget)
        except InfeasibleBudget as exc:
            _print_infeasible("run", target, exc)
            return 1
        print(f"memory plan: {memory_plan.summary()} "
              f"(unplanned peak {format_bytes(reference)})")
    inputs = random_inputs(target, args.seed)
    session = InferenceSession(target, memory_plan=memory_plan)
    timing = session.time_inference(inputs, warmup=1, repeats=args.repeats)
    result = session.run(inputs)
    print(f"output shapes: "
          f"{ {k: v.shape for k, v in result.outputs.items()} }")
    print(result.memory.summary())
    if memory_plan is not None:
        stats = result.memory.plan_stats
        measured = result.memory.peak_internal_bytes
        ok = measured <= memory_plan.budget_bytes
        print(f"budgeted peak: measured {format_bytes(measured)}, planned "
              f"{format_bytes(memory_plan.planned_peak_bytes)}, budget "
              f"{format_bytes(memory_plan.budget_bytes)} — "
              f"{'within budget' if ok else 'OVER BUDGET'}; "
              f"{stats.spills} spill(s) "
              f"({format_bytes(stats.spilled_bytes)} spilled), "
              f"{stats.remats} remat(s)")
        if not ok:
            return 1
    print(f"median wall-clock: {timing.median * 1e3:.1f} ms "
          f"over {args.repeats} runs")
    print(f"latency percentiles: p50 {timing.p50 * 1e3:.1f} ms, "
          f"p95 {timing.p95 * 1e3:.1f} ms, p99 {timing.p99 * 1e3:.1f} ms")
    return 0


def _temco_target(graph: Graph, args) -> Graph:
    """``graph`` decomposed (``--method`` / ``--ratio``) and
    TeMCO-optimized with the default configuration."""
    decomposed = decompose_graph(graph, DecompositionConfig(
        method=args.method, ratio=args.ratio, seed=args.seed))
    return optimize(decomposed)[0]


def _cmd_plan(args) -> int:
    """``repro plan``: compute and display a budget-constrained memory
    plan without (necessarily) running it."""
    graph = _load_model(args.model, args.batch, args.hw, args.seed)
    target = _temco_target(graph, args) if args.optimize else graph
    cost_model = PlanCostModel(
        spill_bandwidth_bytes_per_s=args.spill_gbps * 1e9,
        recompute_flops_per_s=args.compute_gflops * 1e9)
    baseline = estimate_peak_internal(target)
    floor = estimate_peak_floor(target)
    budget = (parse_budget(args.budget, reference=baseline)
              if args.budget else None)
    try:
        mplan = plan_memory(target, budget, cost_model=cost_model)
    except InfeasibleBudget as exc:
        if args.json:
            print(json.dumps(
                {"graph": target.name, "feasible": False,
                 "budget_bytes": budget, "baseline_peak_bytes": baseline,
                 "floor_bytes": floor,
                 "best_peak_bytes": exc.predicted_peak_bytes,
                 "residual_bytes": exc.residual_bytes},
                indent=1, sort_keys=True))
        else:
            _print_infeasible("plan", target, exc)
        return 1
    if args.json:
        doc = mplan.to_dict()
        doc["floor_bytes"] = floor
        doc["feasible"] = mplan.within_budget
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 0
    rows = []
    for action in mplan.actions:
        if action.kind == "spill":
            use = ("output" if action.next_use >= mplan.num_nodes
                   else f"use@{action.next_use}")
            schedule = (f"spill@{action.spill_after} "
                        f"prefetch@{action.prefetch_issue} {use}")
        elif action.kind == "remat":
            schedule = (f"drop@{action.drop_after} "
                        f"remat@{action.remat_before} "
                        f"chain={len(action.chain)}")
        else:
            schedule = "resident at peak"
        rows.append([action.kind, action.value.name,
                     f"{action.nbytes / 1024:.1f}",
                     f"{action.cost_seconds(cost_model) * 1e6:.1f}",
                     schedule])
    print(format_table(
        ["action", "tensor", "KiB", "cost us", "schedule"], rows,
        title=f"memory plan for {target.name!r} ({len(target.nodes)} nodes)"))
    print()
    print(f"baseline peak: {format_bytes(baseline)}   "
          f"floor: {format_bytes(floor)}")
    line = f"planned peak:  {format_bytes(mplan.planned_peak_bytes)}"
    if budget is not None:
        line += (f"   budget: {format_bytes(budget)} "
                 f"({'fits' if mplan.within_budget else 'DOES NOT FIT'})")
    print(line)
    print(f"relief: {format_bytes(mplan.relief_bytes)} via "
          f"{len(mplan.spills)} spill(s) + {len(mplan.remats)} remat(s); "
          f"predicted overhead "
          f"{mplan.predicted_overhead_seconds * 1e3:.3f} ms")
    return 0


def _serve_plan(args) -> "Graph":
    """Build the model and swap in the tuned compiled plan if asked."""
    graph = _load_model(args.model, args.batch, args.hw, args.seed)
    plan, hit = resolve_plan(graph, tuned=args.tuned,
                             cache_dir=args.cache_dir, method=args.method,
                             ratio=args.ratio, seed=args.seed)
    if args.tuned:
        print("tune cache hit: serving the cached compiled plan" if hit
              else "tune cache miss: serving the raw graph "
                   f"(run `repro tune {args.model}` to populate the cache)")
    return plan


def _server_config(args) -> ServerConfig:
    return ServerConfig(
        num_workers=args.workers, max_queue=args.max_queue,
        max_wait_s=args.max_wait_ms / 1e3,
        default_deadline_s=(args.deadline_ms / 1e3
                            if args.deadline_ms is not None else None),
        batching=not args.no_batching)


def _slo_monitor(args) -> SLOMonitor | None:
    return SLOMonitor(parse_slos(args.slo)) if args.slo else None


def _build_backend(plan: Graph, args, slo: SLOMonitor | None,
                   replicas: int | None) -> Servable:
    """The servable the CLI flags describe: one server under
    ``--budget``, or (``replicas`` set) a router over a pool sharing
    ``--host-budget``.  Exits (``SystemExit``, which :func:`main`
    returns) 2 on ``--budget`` with a fleet and 1 on a budget with no
    feasible plan."""
    try:
        if replicas is None:
            mplan = None
            if args.budget:
                mplan, reference = _budget_plan(plan, args.budget)
                # stderr: loadgen --json keeps stdout machine-parseable
                print(f"memory plan: {mplan.summary()} (unplanned peak "
                      f"{format_bytes(reference)})", file=sys.stderr)
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
    deadline = None if duration is None else time.monotonic() + duration
    while not stop.is_set():
        remaining = (None if deadline is None
                     else deadline - time.monotonic())
        if remaining is not None and remaining <= 0:
            return
        if stop.wait(0.1 if remaining is None else min(0.1, remaining)):
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
    server = _build_backend(plan, args, _slo_monitor(args), None)
    return _serve_until_stopped(
        server, args,
        f"serving {plan.name!r} on {{url}} ({args.workers} worker(s), "
        f"graph batch {server.graph_batch}, {server.buckets.describe()}, "
        f"queue bound {args.max_queue})")


def _cmd_fleet(args) -> int:
    plan = _serve_plan(args)
    router = _build_backend(plan, args, _slo_monitor(args), args.replicas)
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
        rate=args.rate, samples=args.samples,
        deadline_s=(args.deadline_ms / 1e3
                    if args.deadline_ms is not None else None),
        seed=args.seed)
    backend = _build_backend(plan, args, _slo_monitor(args),
                             args.fleet or None)
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
    """``repro top``: live dashboard over a serving fleet's /fleetz."""
    from urllib.error import URLError
    from urllib.request import urlopen

    url = args.url or f"http://{args.host}:{args.port}/fleetz"
    once = args.once or args.json
    color = sys.stdout.isatty() and not args.no_color

    def fetch() -> dict:
        with urlopen(url, timeout=args.timeout) as resp:
            return json.loads(resp.read())

    try:
        while True:
            try:
                doc = fetch()
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
    tracer = Tracer()
    with use_tracer(tracer):
        backend = _build_backend(plan, args, _slo_monitor(args),
                                 args.replicas or None)
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
                    config={"command": "diag", "model": args.model,
                            "replicas": args.replicas,
                            "requests": args.requests,
                            "workers": args.workers,
                            "budget": args.budget,
                            "host_budget": args.host_budget,
                            "fault": args.fault},
                    audit=args.audit)
    print(f"wrote diag bundle to {args.output} "
          f"({len(members)} members):")
    for member in members:
        print(f"  {member}")
    return 0


def _cmd_trace(args) -> int:
    """Compile + run one model under a tracer; write the trace artifact."""
    if args.log_level:
        configure_logging(args.log_level)
    graph = _load_model(args.model, args.batch, args.hw, args.seed)
    tracer = Tracer()
    with use_tracer(tracer):
        target = graph if args.no_optimize else _temco_target(graph, args)
        result = InferenceSession(target, tracer=tracer).run(
            random_inputs(target, args.seed))
    out = Path(args.trace) if args.trace else Path(f"{graph.name}.trace.json")
    write_trace(tracer, out)

    profile = result.memory
    series = tracer.counter_series("memory", "live_bytes")
    ok = (series == [e.live_bytes for e in profile.events]
          and max(series, default=0) == profile.peak_internal_bytes)
    verdicts: dict[str, int] = {}
    for d in tracer.decisions:
        verdicts[d.verdict] = verdicts.get(d.verdict, 0) + 1
    print(f"traced {graph.name}: {len(tracer.spans)} spans, "
          f"{len(tracer.decisions)} decision events {verdicts}, "
          f"{len(tracer.counters)} memory samples")
    print(f"memory counter track {'matches' if ok else 'DOES NOT match'} the "
          f"executor profile (peak {profile.peak_internal_bytes / MIB:.2f} MiB)")
    print()
    print(metrics_markdown(tracer.metrics,
                           title=f"{graph.name} session metrics"))
    hint = (" (one JSON record per line)" if out.suffix == ".jsonl" else
            " (open at https://ui.perfetto.dev or chrome://tracing)")
    print(f"wrote trace to {out}{hint}")
    return 0 if ok else 1


def _cmd_profile(args) -> int:
    """Trace a few inferences and print the hot-path attribution."""
    if args.log_level:
        configure_logging(args.log_level)
    graph = _load_model(args.model, args.batch, args.hw, args.seed)
    tracer = Tracer()
    with use_tracer(tracer):
        target = graph if args.no_optimize else _temco_target(graph, args)
        inputs = random_inputs(target, args.seed)
        session = InferenceSession(target, tracer=tracer)
        for _ in range(args.repeats):
            session.run(inputs)
    report = profile_tracer(tracer, model=target.name)
    if args.json:
        print(report.to_json())
    else:
        def table(stats, label):
            rows = [[s.key, s.count, f"{s.total_us / 1e3:.2f}",
                     f"{s.mean_us:.0f}", f"{s.share:.1%}",
                     f"{s.total_bytes / MIB:.2f}", f"{s.flops / 1e9:.3f}",
                     f"{s.intensity:.2f}", f"{s.gflops_per_s:.2f}",
                     f"{s.scratch_bytes / 1024:.0f}"] for s in stats]
            return format_table(
                [label, "count", "total ms", "mean us", "share", "MiB moved",
                 "GFLOP", "FLOP/B", "GFLOP/s", "scratch KiB"],
                rows, title=f"{target.name} hot {label}s "
                            f"({report.runs} traced run(s), "
                            f"{report.total_us / 1e3:.2f} ms attributed)")
        print(table(report.top_ops(args.top), "op"))
        print()
        print(table(report.top_nodes(args.top), "layer"))
    if args.flamegraph:
        path = write_collapsed_stacks(tracer, args.flamegraph)
        print(f"wrote collapsed stacks to {path} "
              f"(feed to flamegraph.pl or https://www.speedscope.app)",
              file=sys.stderr)
    if args.trace:
        out = write_trace(tracer, args.trace)
        print(f"wrote trace to {out}", file=sys.stderr)
    return 0


def _cmd_tune(args) -> int:
    graph = _load_model(args.model, args.batch, args.hw, args.seed)
    cache = TuneCache(args.cache_dir)
    decomposition = DecompositionConfig(method=args.method, ratio=args.ratio,
                                        seed=args.seed)
    temco = TeMCOConfig(concat_strategy=args.concat_strategy)
    config = TuneConfig(repeats=args.repeats, seed=args.seed)
    _plan, record, hit = tune_model(graph, cache=cache,
                                    decomposition=decomposition, temco=temco,
                                    config=config, force=args.force)
    print(f"tune cache {'hit' if hit else 'miss'} for {graph.name} "
          f"(key {record.key})")
    if record.sites:
        rows = [[s.site_key, s.block_size, s.spatial_tile,
                 s.seconds * 1e3, s.baseline_seconds * 1e3, s.trials]
                for s in record.sites]
        print(format_table(
            ["site", "block", "tile", "best ms", "default ms", "trials"],
            rows, title=f"tuned tiles ({record.total_trials} trials)"))
        near = sum(s.baseline_seconds <= 1.05 * s.seconds
                   for s in record.sites)
        print(f"compiled tile within 5 % of the best at {near} of "
              f"{len(record.sites)} sites")
    else:
        print("no fusion sites to tune")
    if record.tuned_seconds is not None and record.default_seconds is not None:
        verdict = (" — fell back to the compiled tiles"
                   if record.fell_back_to_default else "")
        print(f"whole graph: tuned {record.tuned_seconds * 1e3:.2f} ms vs "
              f"default {record.default_seconds * 1e3:.2f} ms{verdict}")
    if record.peak_internal_bytes is not None:
        print(f"peak internal: {record.peak_internal_bytes / MIB:.2f} MiB "
              f"(tiles are scratch — unchanged by tuning)")
    print(f"cache entry: {cache.record_path(record.key)}")
    print(f"compiled plan: {cache.plan_path(record.key)}")
    return 0


def _cmd_memcheck_budget(args, models: list[str]) -> int:
    """``repro memcheck --budget``: budgeted-run conformance per model."""
    from .obs.audit import audit_budgeted

    audits = []
    for model in models:
        graph = build_model(model, batch=args.batch, hw=args.hw,
                            seed=args.seed)
        reference = estimate_peak_internal(graph)
        budget = parse_budget(args.budget, reference=reference)
        audits.append(audit_budgeted(graph, budget, model=model,
                                     seed=args.seed))
    if args.json:
        print(json.dumps([ba.to_dict() for ba in audits], indent=1,
                         sort_keys=True))
        return 0 if all(ba.passed for ba in audits) else 1
    rows = [[ba.model, ba.budget_bytes, ba.planned_peak_bytes,
             ba.measured_peak_bytes, ba.spills, ba.remats,
             "ok" if ba.passed else "FAIL"] for ba in audits]
    print(format_table(
        ["model", "budget B", "planned B", "measured B", "spills", "remats",
         "verdict"],
        rows, title=f"budgeted-run conformance (budget {args.budget}, "
                    f"batch {args.batch}, hw {args.hw})"))
    print()
    for ba in audits:
        status = "PASS" if ba.passed else "FAIL"
        print(f"{status} {ba.model}: baseline "
              f"{format_bytes(ba.baseline_peak_bytes)} -> budgeted "
              f"{format_bytes(ba.measured_peak_bytes)} "
              f"({format_bytes(ba.spilled_bytes)} spilled)")
        for finding in ba.findings:
            marker = "!" if finding.severity == "error" else "~"
            print(f"  {marker} [{finding.kind}] {finding.message}")
    failed = [ba.model for ba in audits if not ba.passed]
    print()
    if failed:
        print(f"memcheck FAILED for {len(failed)}/{len(audits)} model(s): "
              f"{', '.join(failed)}")
        return 1
    print(f"memcheck passed: {len(audits)} budgeted run(s) — measured peak "
          f"within budget, bitwise-identical outputs, ledger consistent")
    return 0


def _cmd_memcheck(args) -> int:
    from .obs.audit import audit_zoo

    models = args.models or list(MODEL_ZOO)
    unknown = [m for m in models if m not in MODEL_ZOO]
    if unknown:
        print(f"memcheck: unknown zoo model(s) {unknown}; "
              f"see `repro models`", file=sys.stderr)
        return 2
    if args.budget:
        return _cmd_memcheck_budget(args, models)
    audits = audit_zoo(models, batch=args.batch, hw=args.hw,
                       ratio=args.ratio, method=args.method, seed=args.seed,
                       tolerance=args.tolerance)
    if args.json:
        print(json.dumps([ma.to_dict() for ma in audits], indent=1,
                         sort_keys=True))
        return 0 if all(ma.passed for ma in audits) else 1
    rows = []
    for ma in audits:
        for ga in (ma.original, ma.optimized):
            rows.append([ma.model, ga.variant, ga.measured_peak_bytes,
                         ga.predicted_peak_bytes, ga.arena_bytes,
                         ga.ledger_events,
                         "ok" if ga.passed else "FAIL"])
    print(format_table(
        ["model", "variant", "measured B", "predicted B", "arena B",
         "events", "verdict"],
        rows, title=f"memory conformance audit (batch {args.batch}, "
                    f"hw {args.hw}, tolerance {args.tolerance:.2%})"))
    print()
    for ma in audits:
        status = "PASS" if ma.passed else "FAIL"
        print(f"{status} {ma.model}: peak reduction {ma.reduction_pct:.1f}% "
              f"(measured, {ma.optimized.variant})")
        for finding in ma.all_findings():
            marker = "!" if finding.severity == "error" else "~"
            print(f"  {marker} [{finding.kind}] {finding.message}")
    failed = [ma.model for ma in audits if not ma.passed]
    print()
    if failed:
        print(f"memcheck FAILED for {len(failed)}/{len(audits)} model(s): "
              f"{', '.join(failed)}")
        return 1
    print(f"memcheck passed: {len(audits)} model(s), both variants each — "
          f"measured == predicted, ledger consistent, arenas hold")
    return 0


def _cmd_bench(args) -> int:
    if args.log_level:
        configure_logging(args.log_level)
    tuned_ctx = contextlib.nullcontext()
    if args.tuned:
        cache = TuneCache(args.cache_dir)
        print(f"bench: consulting tune cache at {cache.dir} (lookup only; "
              f"run `repro tune MODEL` to populate)")
        tuned_ctx = use_tuned_fusion(
            lambda original, temco: cached_overrides(
                original, cache=cache, temco=temco))
    with tuned_ctx, trace_figures(args.trace):
        if args.figure == "fig4":
            result = figure4(args.model or "unet", batch=args.batch)
            rows = [[variant, i, mib] for variant, series in result.timelines.items()
                    for i, mib in series]
            print(format_table(["variant", "layer", "live MiB"], rows,
                               title=f"Figure 4 ({result.model}), peaks: {result.peaks}"))
        elif args.figure == "fig10":
            models = [args.model] if args.model else None
            rows = figure10(models=models, batch=args.batch)
            print(format_table(
                ["model", "variant", "weights MiB", "internal MiB"],
                [[r.model, PAPER_LABELS[r.variant], r.weight_mib, r.internal_mib]
                 for r in rows], title="Figure 10"))
            print(f"geomean internal reduction: "
                  f"{internal_reduction_geomean(rows):.1%} (paper: 75.7%)")
        elif args.figure == "fig11":
            models = [args.model] if args.model else None
            rows = figure11(models=models, batches=(args.batch,), hw=args.hw,
                            repeats=args.repeats)
            print(format_table(
                ["model", "variant", "batch", "time ms", "p50 ms", "p95 ms",
                 "p99 ms"],
                [[r.model, r.variant, r.batch, r.seconds * 1e3,
                  r.p50_seconds * 1e3, r.p95_seconds * 1e3,
                  r.p99_seconds * 1e3] for r in rows], title="Figure 11"))
            print(f"overhead ratios: {overhead_ratios(rows)}")
        else:
            models = [args.model] if args.model else None
            rows = figure12(models=models, batch=args.batch, hw=args.hw)
            print(format_table(
                ["model", "variant", "metric", "agreement"],
                [[r.model, PAPER_LABELS[r.variant], r.metric,
                  r.agreement_with_decomposed] for r in rows], title="Figure 12"))
    if args.trace:
        print(f"wrote trace to {args.trace}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TeMCO reproduction toolkit (ICPP 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the benchmark zoo").set_defaults(
        fn=_cmd_models)

    def common(p):
        p.add_argument("model", help="zoo model name or saved .npz graph")
        p.add_argument("--batch", type=int, default=4)
        p.add_argument("--hw", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)

    def obs_flags(p):
        p.add_argument("--trace", type=Path, default=None, metavar="PATH",
                       help="dump a Chrome trace (or JSONL for *.jsonl) of "
                            "this command")
        p.add_argument("--log-level", dest="log_level", default=None,
                       choices=("debug", "info", "warning", "error"),
                       help="wire stdlib logging for the repro.* loggers")

    def budget_flag(p):
        p.add_argument("--budget", default=None, metavar="BYTES",
                       help="enforce an internal-tensor memory budget via "
                            "the repro.plan planner; bytes, a KiB/MiB/GiB "
                            "suffix, or NN%% of the unplanned predicted "
                            "peak (e.g. 256MiB, 60%%)")

    def decomposition_flags(p, purpose: str = ""):
        def text(what):
            return f"decomposition {what} {purpose}" if purpose else None
        p.add_argument("--method", choices=("tucker", "cp", "tt"),
                       default="tucker", help=text("method"))
        p.add_argument("--ratio", type=float, default=0.1,
                       help=text("ratio"))

    def tune_flags(p, *, no_tune: bool = True):
        p.add_argument("--tuned", action="store_true",
                       help="use autotuned fused-kernel tiles from the "
                            "tuning cache (see `repro tune`)")
        if no_tune:
            p.add_argument("--no-tune", action="store_true", dest="no_tune",
                           help="with --tuned: never tune on a cache miss, "
                                "fall back to default tiles")
        p.add_argument("--cache-dir", type=Path, default=None,
                       dest="cache_dir", metavar="DIR",
                       help="tuning cache directory (default "
                            "$REPRO_TUNE_CACHE or ~/.cache/repro-tune)")

    p = sub.add_parser("inspect", help="print IR and memory estimates")
    common(p)
    p.add_argument("--ir", action="store_true", help="dump the full IR")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("optimize", help="decompose + TeMCO-optimize")
    common(p)
    obs_flags(p)
    decomposition_flags(p)
    p.add_argument("--rank-policy", choices=("ratio", "energy"),
                   default="ratio", dest="rank_policy")
    p.add_argument("--energy", type=float, default=0.9,
                   help="spectral-energy threshold for --rank-policy energy")
    p.add_argument("--concat-strategy", choices=("merge", "split", "none"),
                   default="merge")
    tune_flags(p)
    p.add_argument("-o", "--output", type=Path, default=None)
    p.set_defaults(fn=_obs_wrap(_cmd_optimize))

    p = sub.add_parser("run", help="run one inference with profiling")
    common(p)
    obs_flags(p)
    p.add_argument("--repeats", type=int, default=3)
    decomposition_flags(p, "for the --tuned plan lookup")
    budget_flag(p)
    tune_flags(p)
    p.set_defaults(fn=_obs_wrap(_cmd_run))

    p = sub.add_parser("plan", help="budget-constrained memory plan: "
                                    "spill/prefetch/remat schedule, cost "
                                    "model, predicted peak")
    common(p)
    obs_flags(p)
    budget_flag(p)
    p.add_argument("--optimize", action="store_true",
                   help="plan the decomposed + TeMCO-optimized graph "
                        "instead of the raw model")
    decomposition_flags(p, "for --optimize")
    p.add_argument("--spill-gbps", type=float, default=12.0,
                   dest="spill_gbps", metavar="GBPS",
                   help="modelled host<->device spill bandwidth in GB/s "
                        "(default 12)")
    kernel_gflops = PlanCostModel.recompute_flops_per_s / 1e9
    p.add_argument("--compute-gflops", type=float, default=kernel_gflops,
                   dest="compute_gflops", metavar="GFLOPS",
                   help="modelled recompute throughput in GFLOP/s "
                        f"(default {kernel_gflops:g}, what the NumPy "
                        "kernels reach)")
    p.add_argument("--json", action="store_true",
                   help="print the full plan as JSON (for scripts/CI)")
    p.set_defaults(fn=_obs_wrap(_cmd_plan))

    p = sub.add_parser("tune", help="autotune fused-kernel tiles and cache "
                                    "the compiled plan")
    common(p)
    obs_flags(p)
    p.add_argument("--repeats", type=int, default=2,
                   help="timing repeats per trial (default 2)")
    decomposition_flags(p)
    p.add_argument("--concat-strategy", choices=("merge", "split", "none"),
                   default="merge")
    p.add_argument("--force", action="store_true",
                   help="retune even on a cache hit")
    p.add_argument("--cache-dir", type=Path, default=None, dest="cache_dir",
                   metavar="DIR",
                   help="tuning cache directory (default $REPRO_TUNE_CACHE "
                        "or ~/.cache/repro-tune)")
    p.set_defaults(fn=_obs_wrap(_cmd_tune))

    p = sub.add_parser("trace", help="decompose + optimize + run one "
                                     "inference with full tracing")
    common(p)
    obs_flags(p)
    decomposition_flags(p)
    p.add_argument("--no-optimize", action="store_true", dest="no_optimize",
                   help="trace the raw model without decompose+TeMCO")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("profile", help="hot-path profiler: per-op/per-layer "
                                       "time, bytes, arithmetic intensity, "
                                       "flamegraph export")
    common(p)
    obs_flags(p)
    decomposition_flags(p)
    p.add_argument("--no-optimize", action="store_true", dest="no_optimize",
                   help="profile the raw model without decompose+TeMCO")
    p.add_argument("--repeats", type=int, default=3,
                   help="traced inference runs to aggregate (default 3)")
    p.add_argument("--top", type=int, default=12,
                   help="rows per ranking table (default 12)")
    p.add_argument("--flamegraph", type=Path, default=None, metavar="PATH",
                   help="write collapsed-stack flamegraph input "
                        "(flamegraph.pl / speedscope format)")
    p.add_argument("--json", action="store_true",
                   help="print the profile report as JSON")
    p.set_defaults(fn=_cmd_profile)

    def serve_flags(p):
        p.add_argument("--workers", type=int, default=1,
                       help="inference worker threads (default 1)")
        p.add_argument("--max-queue", type=int, default=64, dest="max_queue",
                       help="admission queue bound in requests; a full "
                            "queue rejects with Overloaded (default 64)")
        p.add_argument("--max-wait-ms", type=float, default=2.0,
                       dest="max_wait_ms",
                       help="upper bound on holding a batch open for "
                            "co-riders while another worker runs one; no "
                            "effect with --workers 1 (default 2 ms)")
        p.add_argument("--deadline-ms", type=float, default=None,
                       dest="deadline_ms",
                       help="default per-request deadline; expired requests "
                            "are shed (default: no deadline)")
        p.add_argument("--no-batching", action="store_true",
                       dest="no_batching",
                       help="serve one request per micro-batch (the "
                            "baseline dynamic batching is compared against)")
        decomposition_flags(p, "for the --tuned plan lookup")
        budget_flag(p)
        p.add_argument("--slo", action="append", default=None, metavar="SPEC",
                       help="service-level objective, repeatable: "
                            "availability:TARGET[:WINDOW_S] or "
                            "latency:THRESHOLD_MS:TARGET[:WINDOW_S] "
                            "(e.g. latency:50:0.95); burn-rate gauges land "
                            "on GET /metrics, loadgen exits non-zero on "
                            "violation")

    def frontend_flags(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=8100,
                       help="listen port; 0 picks an ephemeral port")
        p.add_argument("--duration", type=float, default=None,
                       help="serve for N seconds then exit (default: until "
                            "SIGTERM/SIGINT)")
        p.add_argument("--drain-timeout", type=float, default=30.0,
                       dest="drain_timeout", metavar="S",
                       help="graceful-drain budget on shutdown: in-flight "
                            "requests get this long to finish (default 30)")

    def fleet_flags(p):
        p.add_argument("--host-budget", default=None, dest="host_budget",
                       metavar="BYTES",
                       help="shared internal-tensor budget split evenly "
                            "across the replicas (parse_budget grammar; "
                            "NN%% is relative to replicas x one replica's "
                            "unplanned peak)")
        p.add_argument("--fault", default=None, metavar="SPEC",
                       help="deterministic fault injection for failover "
                            "testing: REPLICA:KIND:AFTER[:SLOW_MS] with "
                            "KIND in kill|stall|slow (e.g. 1:kill:5)")

    p = sub.add_parser("serve", help="dynamic-batching inference server "
                                     "with a JSON/HTTP frontend")
    common(p)
    serve_flags(p)
    tune_flags(p, no_tune=False)
    frontend_flags(p)
    obs_flags(p)
    p.set_defaults(fn=_obs_wrap(_cmd_serve))

    p = sub.add_parser("fleet", help="multi-replica fleet: shared host "
                                     "budget, least-outstanding routing, "
                                     "hedged retries, one HTTP frontend")
    common(p)
    serve_flags(p)
    tune_flags(p, no_tune=False)
    p.add_argument("--replicas", type=int, default=2,
                   help="replica count (default 2)")
    fleet_flags(p)
    frontend_flags(p)
    obs_flags(p)
    p.set_defaults(fn=_obs_wrap(_cmd_fleet))

    p = sub.add_parser("loadgen", help="drive an in-process server with "
                                       "synthetic load; report p50/p95/p99")
    common(p)
    serve_flags(p)
    tune_flags(p, no_tune=False)
    p.add_argument("--mode", choices=("closed", "open"), default="closed",
                   help="closed: fixed concurrency; open: Poisson arrivals")
    p.add_argument("--requests", type=int, default=64)
    p.add_argument("--concurrency", type=int, default=4,
                   help="closed-loop client count (default 4)")
    p.add_argument("--rate", type=float, default=200.0,
                   help="open-loop arrival rate, req/s (default 200)")
    p.add_argument("--samples", type=int, default=1,
                   help="samples per request (default 1)")
    p.add_argument("--fleet", type=int, default=0, metavar="K",
                   help="drive a K-replica fleet through the router "
                        "instead of a single server (default 0: single)")
    fleet_flags(p)
    p.add_argument("--metrics-out", type=Path, default=None,
                   dest="metrics_out", metavar="PATH",
                   help="write the end-of-run Prometheus text exposition "
                        "to PATH (scrape-equivalent of GET /metrics)")
    p.add_argument("--detect-anomalies", action="store_true",
                   dest="detect_anomalies",
                   help="run the fleet anomaly detectors (latency "
                        "regression, memory drift, drop spikes, replica "
                        "outliers) over the run and report findings")
    p.add_argument("--fail-on-anomaly", action="store_true",
                   dest="fail_on_anomaly",
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
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8100,
                   help="port the serve/fleet frontend listens on "
                        "(default 8100)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="refresh interval in seconds (default 1)")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="per-poll HTTP timeout in seconds (default 5)")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit instead of repainting")
    p.add_argument("--json", action="store_true",
                   help="print one raw /fleetz document as JSON and exit "
                        "(implies --once; for scripts/CI)")
    p.add_argument("--no-color", action="store_true", dest="no_color",
                   help="plain-text frames (no ANSI colors)")
    p.set_defaults(fn=_cmd_top)

    p = sub.add_parser("diag", help="capture a diagnostic snapshot bundle: "
                                    "merged trace, time-series dump, "
                                    "metrics, SLO state, anomalies, memory "
                                    "plan, build info")
    common(p)
    serve_flags(p)
    tune_flags(p, no_tune=False)
    p.add_argument("--replicas", type=int, default=0, metavar="K",
                   help="snapshot a K-replica fleet instead of a single "
                        "server (default 0: single)")
    fleet_flags(p)
    p.add_argument("--requests", type=int, default=8,
                   help="warm-up requests to drive before the snapshot "
                        "(default 8)")
    p.add_argument("--audit", action="store_true",
                   help="with --budget: include a budgeted-run conformance "
                        "audit in the bundle (runs the graph twice more)")
    p.add_argument("-o", "--output", type=Path,
                   default=Path("repro-diag.tar.gz"), metavar="PATH",
                   help="bundle path (default repro-diag.tar.gz)")
    p.set_defaults(fn=_cmd_diag)

    p = sub.add_parser("export", help="export DOT graph / CSV timeline / "
                                      "Markdown memory report")
    common(p)
    p.add_argument("what", choices=("dot", "timeline", "report"))
    p.add_argument("-o", "--output", type=Path, required=True)
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("selfcheck", help="quick install sanity scorecard")
    p.set_defaults(fn=lambda args: 0 if all(
        r.passed for r in __import__("repro.selfcheck",
                                     fromlist=["run_selfcheck"]).run_selfcheck())
        else 1)

    p = sub.add_parser("memcheck", help="memory conformance audit: ledger "
                                        "replay, predicted-vs-measured peak, "
                                        "arena bounds, per zoo model")
    p.add_argument("models", nargs="*", metavar="MODEL",
                   help="zoo models to audit (default: the whole zoo)")
    p.add_argument("--batch", type=int, default=2,
                   help="audit batch size (default 2: small and fast)")
    p.add_argument("--hw", type=int, default=32,
                   help="input resolution (default 32)")
    p.add_argument("--seed", type=int, default=0)
    decomposition_flags(p)
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="allowed relative measured-vs-predicted peak "
                        "deviation (default 0.0: bit-exact)")
    budget_flag(p)
    p.add_argument("--json", action="store_true",
                   help="print the audit results as JSON (for scripts/CI)")
    obs_flags(p)
    p.set_defaults(fn=_obs_wrap(_cmd_memcheck))

    p = sub.add_parser("bench", help="regenerate a paper figure")
    p.add_argument("figure", choices=("fig4", "fig10", "fig11", "fig12"),
                   help="paper figure to regenerate")
    p.add_argument("--model", default=None)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--hw", type=int, default=32,
                   help="input resolution for fig11/fig12 (default 32)")
    p.add_argument("--repeats", type=int, default=2,
                   help="timing repeats per fig11 measurement (default 2)")
    obs_flags(p)
    tune_flags(p, no_tune=False)
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:  # a command bailed out, message printed
        return exc.code
    except BudgetSyntaxError as exc:
        # a misspelled --budget is a usage error, same exit code as
        # argparse's own rejections
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
