"""The compiler-side commands: build a model, compile it, run it once.

optimize MODEL|FILE.npz [-o OUT.npz]
    Decompose (Tucker/CP/TT) + TeMCO-optimize; print the report and
    optionally save the optimized graph.
run MODEL|FILE.npz
    Execute one inference on synthetic input; print the memory profile
    and wall-clock time.  A saved ``optimize -o`` graph runs as compiled;
    ``--budget BYTES`` plans a spill/prefetch schedule and the
    runtime enforces it — outputs stay bitwise identical while the
    measured peak lands on the plan's simulated peak.
plan MODEL|FILE.npz [--budget BYTES] [--optimize]
    Compute (without enforcing) the budget-constrained memory plan;
    exits non-zero with the residual when the budget is infeasible.
    See ``docs/memory_planning.md``.

``models``, ``inspect`` and ``export`` are described by their ``--help``.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..bench import format_table
from ..core import estimate_peak_floor, estimate_peak_internal, optimize
from ..data import random_inputs
from ..decompose import DecompositionConfig, decompose_graph
from ..ir import format_graph, save_dot, save_graph, summarize_graph
from ..models import EXTRA_MODELS, MODEL_ZOO
from ..plan import InfeasibleBudget, format_bytes, parse_budget, plan_memory
from ..runtime import InferenceSession, profile_markdown, timeline_csv
from .flags import (MIB, _budget_plan, _load_model, _obs_wrap,
                    _print_infeasible, _temco_target, budget_flag, common,
                    decomposition_flags, obs_flags, positive_int,
                    unit_fraction)


def _cmd_models(args) -> int:
    headers = ["model", "family", "task", "default hw", "skips"]

    def rows(zoo):
        return [[name, s.family, s.task, s.default_hw,
                 "yes" if s.has_skip_connections else "no"]
                for name, s in zoo.items()]
    print(format_table(headers, rows(MODEL_ZOO),
                       title="benchmark model zoo (paper §4.1)"))
    print()
    print(format_table(headers, rows(EXTRA_MODELS),
                       title="extra variants (not in the paper's set)"))
    return 0


def _cmd_inspect(args) -> int:
    graph = _load_model(args)
    print(summarize_graph(graph))
    print(f"estimated peak internal: {estimate_peak_internal(graph) / MIB:.2f} MiB")
    if args.ir:
        print()
        print(format_graph(graph))
    return 0


def _cmd_export(args) -> int:
    graph = _load_model(args)
    if args.what == "dot":
        save_dot(graph, args.output)
    else:
        inputs = random_inputs(graph, args.seed)
        profile = InferenceSession(graph).run(inputs).memory
        Path(args.output).write_text(
            timeline_csv(profile, graph) if args.what == "timeline"
            else profile_markdown(profile, graph, title=graph.name))
    print(f"wrote {args.what} for {graph.name!r} to {args.output}")
    return 0


def _cmd_optimize(args) -> int:
    graph = _load_model(args)
    decomposition = DecompositionConfig(
        method=args.method, ratio=args.ratio, seed=args.seed,
        rank_policy=args.rank_policy, energy=args.energy)
    decomposed = decompose_graph(graph, decomposition)
    optimized, report = optimize(decomposed)
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


def _cmd_run(args) -> int:
    target = _load_model(args)
    memory_plan = None
    if args.budget:
        try:
            memory_plan = _budget_plan(target, args.budget)
        except InfeasibleBudget as exc:
            _print_infeasible("run", target, exc)
            return 1
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
              f"({format_bytes(stats.spilled_bytes)} spilled)")
        if not ok:
            return 1
    print(f"median wall-clock: {timing.median * 1e3:.1f} ms "
          f"over {args.repeats} runs")
    print(f"latency percentiles: p50 {timing.p50 * 1e3:.1f} ms, "
          f"p95 {timing.p95 * 1e3:.1f} ms, p99 {timing.p99 * 1e3:.1f} ms")
    return 0


def _cmd_plan(args) -> int:
    graph = _load_model(args)
    target = _temco_target(graph, args) if args.optimize else graph
    baseline = estimate_peak_internal(target)
    floor = estimate_peak_floor(target)
    budget = (parse_budget(args.budget, reference=baseline)
              if args.budget else None)
    try:
        mplan = plan_memory(target, budget)
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
        else:
            schedule = "resident at peak"
        rows.append([action.kind, action.value.name,
                     f"{action.nbytes / 1024:.1f}", schedule])
    print(format_table(
        ["action", "tensor", "KiB", "schedule"], rows,
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
          f"{len(mplan.spills)} spill(s), "
          f"{format_bytes(mplan.spilled_bytes)} spilled")
    return 0


def register(sub) -> None:
    sub.add_parser("models", help="list the benchmark zoo").set_defaults(
        fn=_cmd_models)

    p = sub.add_parser("inspect", help="print IR and memory estimates")
    common(p)
    p.add_argument("--ir", action="store_true", help="dump the full IR")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("export", help="export DOT graph / CSV timeline / "
                                      "Markdown memory report")
    common(p)
    p.add_argument("what", choices=("dot", "timeline", "report"))
    p.add_argument("-o", "--output", type=Path, required=True)
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("optimize", help="decompose + TeMCO-optimize")
    common(p)
    obs_flags(p)
    decomposition_flags(p)
    p.add_argument("--rank-policy", choices=("ratio", "energy"),
                   default="ratio")
    p.add_argument("--energy", type=unit_fraction, default=0.9,
                   help="spectral-energy threshold for --rank-policy energy")
    p.add_argument("-o", "--output", type=Path, default=None)
    p.set_defaults(fn=_obs_wrap(_cmd_optimize))

    p = sub.add_parser("run", help="run one inference with profiling")
    common(p)
    obs_flags(p)
    p.add_argument("--repeats", type=positive_int, default=3)
    budget_flag(p)
    p.set_defaults(fn=_obs_wrap(_cmd_run))

    p = sub.add_parser("plan", help="budget-constrained memory plan: "
                                    "spill/prefetch schedule, "
                                    "predicted peak")
    common(p)
    obs_flags(p)
    budget_flag(p)
    p.add_argument("--optimize", action="store_true",
                   help="plan the decomposed + TeMCO-optimized graph "
                        "instead of the raw model")
    decomposition_flags(p, "for --optimize")
    p.add_argument("--json", action="store_true",
                   help="print the full plan as JSON (for scripts/CI)")
    p.set_defaults(fn=_obs_wrap(_cmd_plan))
