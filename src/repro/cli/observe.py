"""The commands that measure and audit the compiler's output.

trace MODEL|FILE.npz
    Decompose + optimize + run one inference with full tracing; write a
    Chrome trace (Perfetto / ``chrome://tracing``) carrying the
    compiler's decision log, per-node executor spans and the live-bytes
    counter track.  Exits non-zero if that track and the simulated
    schedule (``simulate(graph).live``) disagree.
profile MODEL|FILE.npz
    Run a few traced inferences and rank op types and layers by self
    time, with bytes moved, analytic FLOPs, arithmetic intensity and
    fused scratch per row.
memcheck [MODEL ...]
    Memory conformance audit: run each zoo model (original *and*
    TeMCO-optimized) with the allocation ledger on and compare it,
    event for event, with the events ``simulate`` predicts; with
    ``--budget BYTES``, audit a planned + enforced run instead.  Exits
    non-zero on any mismatch.  See ``docs/memory_auditing.md``.

``selfcheck`` and ``bench`` are described by their ``--help``.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter
import sys
from pathlib import Path

from ..bench import (PAPER_LABELS, figure4, figure10, figure11, figure12,
                     format_table, internal_reduction_geomean, overhead_ratios,
                     use_tuned_fusion)
from ..core import estimate_peak_internal, simulate
from ..data import random_inputs
from ..models import MODEL_ZOO, build_model
from ..obs import get_tracer, profile_tracer, write_collapsed_stacks
from ..plan import format_bytes, parse_budget
from ..runtime import InferenceSession, metrics_markdown
from ..tune import TuneCache
from .flags import (MIB, _load_model, _obs_wrap, _temco_target, budget_flag,
                    common, decomposition_flags, non_negative_float, obs_flags,
                    positive_int, tune_flags, tuned_overrides)


def _cmd_trace(args) -> int:
    graph = _load_model(args)
    args.trace = args.trace or Path(f"{graph.name}.trace.json")
    tracer = get_tracer()
    target = graph if args.no_optimize else _temco_target(graph, args)
    profile = InferenceSession(target, tracer=tracer).run(
        random_inputs(target, args.seed)).memory
    series = tracer.counter_series("memory", "live_bytes")
    ok = series == list(simulate(target).live)
    decisions = tracer.decisions_for()
    verdicts = dict(Counter(d["args"]["verdict"] for d in decisions))
    phases = Counter(e["ph"] for e in tracer.events)
    print(f"traced {graph.name}: {phases['X']} spans, "
          f"{len(decisions)} decision events {verdicts}, "
          f"{phases['C']} memory samples")
    print(f"memory counter track {'matches' if ok else 'DOES NOT match'} the "
          f"simulated schedule (peak {profile.peak_internal_bytes / MIB:.2f} "
          f"MiB)")
    print()
    print(metrics_markdown(tracer.metrics,
                           title=f"{graph.name} session metrics"))
    return 0 if ok else 1


def _wrote_trace_artifact(_tracer, out: Path) -> None:
    hint = (" (one JSON record per line)" if out.suffix == ".jsonl" else
            " (open at https://ui.perfetto.dev or chrome://tracing)")
    print(f"wrote trace to {out}{hint}")


def _cmd_profile(args) -> int:
    graph = _load_model(args)
    tracer = get_tracer()
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
    return 0


def _report_memcheck(args, audits, title: str, headers: list[str], rows,
                     lines, passed: str) -> int:
    """The one memcheck renderer: JSON, or the table, per audit a
    PASS/FAIL line (``lines`` holds its ``(text, findings)``) and the
    verdict.  Exit code 1 when any audit failed."""
    failed = [audit.model for audit in audits if not audit.passed]
    if args.json:
        print(json.dumps([audit.to_dict() for audit in audits], indent=1,
                         sort_keys=True))
        return 1 if failed else 0
    print(format_table(headers, rows, title=title))
    print()
    for audit, (text, findings) in zip(audits, lines):
        print(f"{'PASS' if audit.passed else 'FAIL'} {audit.model}: {text}")
        for finding in findings:
            marker = "!" if finding.severity == "error" else "~"
            print(f"  {marker} [{finding.kind}] {finding.message}")
    print()
    if failed:
        print(f"memcheck FAILED for {len(failed)}/{len(audits)} model(s): "
              f"{', '.join(failed)}")
        return 1
    print(f"memcheck passed: {passed}")
    return 0


def _cmd_memcheck(args) -> int:
    from ..obs.audit import audit_budgeted, audit_zoo

    models = args.models or list(MODEL_ZOO)
    unknown = [m for m in models if m not in MODEL_ZOO]
    if unknown:
        print(f"memcheck: unknown zoo model(s) {unknown}; "
              f"see `repro models`", file=sys.stderr)
        return 2
    if args.budget:
        audits = []
        for model in models:
            graph = build_model(model, batch=args.batch, hw=args.hw,
                                seed=args.seed)
            budget = parse_budget(args.budget,
                                  reference=estimate_peak_internal(graph))
            audits.append(audit_budgeted(graph, budget, model=model,
                                         seed=args.seed))
        return _report_memcheck(
            args, audits,
            f"budgeted-run conformance (budget {args.budget}, "
            f"batch {args.batch}, hw {args.hw})",
            ["model", "budget B", "planned B", "measured B", "spills",
             "remats", "verdict"],
            [[ba.model, ba.budget_bytes, ba.planned_peak_bytes,
              ba.measured_peak_bytes, ba.spills, ba.remats,
              "ok" if ba.passed else "FAIL"] for ba in audits],
            [(f"baseline {format_bytes(ba.baseline_peak_bytes)} -> budgeted "
              f"{format_bytes(ba.measured_peak_bytes)} "
              f"({format_bytes(ba.spilled_bytes)} spilled)", ba.findings)
             for ba in audits],
            f"{len(audits)} budgeted run(s) — measured peak within budget, "
            f"bitwise-identical outputs, ledger == simulated events")
    audits = audit_zoo(models, batch=args.batch, hw=args.hw,
                       ratio=args.ratio, method=args.method, seed=args.seed,
                       tolerance=args.tolerance)
    return _report_memcheck(
        args, audits,
        f"memory conformance audit (batch {args.batch}, hw {args.hw}, "
        f"tolerance {args.tolerance:.2%})",
        ["model", "variant", "measured B", "predicted B", "events",
         "verdict"],
        [[ma.model, ga.variant, ga.measured_peak_bytes,
          ga.predicted_peak_bytes, ga.ledger_events,
          "ok" if ga.passed else "FAIL"]
         for ma in audits for ga in (ma.original, ma.optimized)],
        [(f"peak reduction {ma.reduction_pct:.1f}% "
          f"(measured, {ma.optimized.variant})", ma.all_findings())
         for ma in audits],
        f"{len(audits)} model(s), both variants each — ledger == "
        f"simulated events")


def _cmd_selfcheck(args) -> int:
    from ..selfcheck import run_selfcheck

    return 0 if all(r.passed for r in run_selfcheck()) else 1


def _cmd_bench(args) -> int:
    tuned_ctx = contextlib.nullcontext()
    if args.tuned:
        print(f"bench: consulting tune cache at {TuneCache(args.cache_dir).dir} "
              f"(lookup only; run `repro tune MODEL` to populate)")
        tuned_ctx = use_tuned_fusion(
            lambda original, temco: tuned_overrides(
                original, args, None, temco, tune_on_miss=False)[0])
    models = [args.model] if args.model else None
    with tuned_ctx:
        if args.figure == "fig4":
            result = figure4(args.model or "unet", batch=args.batch)
            rows = [[variant, i, mib] for variant, series in result.timelines.items()
                    for i, mib in series]
            print(format_table(["variant", "layer", "live MiB"], rows,
                               title=f"Figure 4 ({result.model}), peaks: {result.peaks}"))
        elif args.figure == "fig10":
            rows = figure10(models=models, batch=args.batch)
            print(format_table(
                ["model", "variant", "weights MiB", "internal MiB"],
                [[r.model, PAPER_LABELS[r.variant], r.weight_mib, r.internal_mib]
                 for r in rows], title="Figure 10"))
            print(f"geomean internal reduction: "
                  f"{internal_reduction_geomean(rows):.1%} (paper: 75.7%)")
        elif args.figure == "fig11":
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
            rows = figure12(models=models, batch=args.batch, hw=args.hw)
            print(format_table(
                ["model", "variant", "metric", "agreement"],
                [[r.model, PAPER_LABELS[r.variant], r.metric,
                  r.agreement_with_decomposed] for r in rows], title="Figure 12"))
    return 0


def _traced_parser(sub, name: str, help: str):
    """A command that compiles (unless ``--no-optimize``) and traces."""
    p = sub.add_parser(name, help=help)
    common(p)
    obs_flags(p)
    decomposition_flags(p)
    p.add_argument("--no-optimize", action="store_true",
                   help=f"{name} the raw model without decompose+TeMCO")
    return p


def register(sub) -> None:
    p = _traced_parser(sub, "trace", "decompose + optimize + run one "
                                     "inference with full tracing")
    p.set_defaults(fn=_obs_wrap(_cmd_trace, always=True,
                                wrote=_wrote_trace_artifact))

    p = _traced_parser(sub, "profile", "hot-path profiler: per-op/per-layer "
                                       "time, bytes, arithmetic intensity, "
                                       "flamegraph export")
    p.add_argument("--repeats", type=positive_int, default=3,
                   help="traced inference runs to aggregate (default 3)")
    p.add_argument("--top", type=positive_int, default=12,
                   help="rows per ranking table (default 12)")
    p.add_argument("--flamegraph", type=Path, default=None, metavar="PATH",
                   help="write collapsed-stack flamegraph input "
                        "(flamegraph.pl / speedscope format)")
    p.add_argument("--json", action="store_true",
                   help="print the profile report as JSON")
    p.set_defaults(fn=_obs_wrap(
        _cmd_profile, always=True,
        wrote=lambda _t, out: print(f"wrote trace to {out}",
                                    file=sys.stderr)))

    p = sub.add_parser("selfcheck", help="quick install sanity scorecard")
    p.set_defaults(fn=_cmd_selfcheck)

    p = sub.add_parser("memcheck", help="memory conformance audit: ledger "
                                        "replay, predicted-vs-measured peak, "
                                        "per zoo model")
    p.add_argument("models", nargs="*", metavar="MODEL",
                   help="zoo models to audit (default: the whole zoo)")
    common(p, model=False, batch=2, hw=32,
           batch_help="audit batch size (default 2: small and fast)",
           hw_help="input resolution (default 32)")
    decomposition_flags(p)
    p.add_argument("--tolerance", type=non_negative_float, default=0.0,
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
    p.add_argument("--batch", type=positive_int, default=4)
    p.add_argument("--hw", type=positive_int, default=32,
                   help="input resolution for fig11/fig12 (default 32)")
    p.add_argument("--repeats", type=positive_int, default=2,
                   help="timing repeats per fig11 measurement (default 2)")
    obs_flags(p)
    tune_flags(p, no_tune=False)
    p.set_defaults(fn=_obs_wrap(
        _cmd_bench, wrote=lambda _t, out: print(f"wrote trace to {out}")))
