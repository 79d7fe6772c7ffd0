"""What the command modules share: argparse value types, flag groups,
the ``--trace`` / ``--log-level`` wrapper (:func:`_obs_wrap`) and the
helpers that turn parsed flags into a graph — model loading,
``--optimize`` (:func:`_temco_target`) and ``--budget``
(:func:`_budget_plan`).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from ..core import estimate_peak_floor, estimate_peak_internal, optimize
from ..decompose import DecompositionConfig, decompose_graph
from ..ir import Graph, load_graph
from ..models import EXTRA_MODELS, build_extra, build_model
from ..obs import Tracer, configure_logging, use_tracer, write_trace
from ..plan import InfeasibleBudget, format_bytes, parse_budget, plan_memory

MIB = 1024 * 1024


# -- argparse value types: a bad count is a usage error (exit 2) ---------

def _bounded(name: str, cast, accepts, requirement: str):
    def parse(text: str):
        value = cast(text)  # ValueError: argparse's "invalid <name> value"
        if not accepts(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text}")
        return value
    parse.__name__ = name
    return parse


positive_int = _bounded("positive_int", int, lambda v: v >= 1, ">= 1")
non_negative_int = _bounded("non_negative_int", int, lambda v: v >= 0, ">= 0")
positive_float = _bounded("positive_float", float,
                          lambda v: 0 < v < math.inf, "> 0 and finite")
non_negative_float = _bounded("non_negative_float", float,
                              lambda v: 0 <= v < math.inf, ">= 0 and finite")
unit_fraction = _bounded("unit_fraction", float, lambda v: 0 < v <= 1,
                         "in (0, 1]")


# -- flag groups ----------------------------------------------------------

def common(p, *, model: bool = True, batch: int = 4, hw: int | None = None,
           batch_help: str | None = None, hw_help: str | None = None):
    if model:
        p.add_argument("model", help="zoo model name or saved .npz graph")
    p.add_argument("--batch", type=positive_int, default=batch,
                   help=batch_help)
    p.add_argument("--hw", type=positive_int, default=hw, help=hw_help)
    p.add_argument("--seed", type=int, default=0)


def obs_flags(p):
    p.add_argument("--trace", type=Path, default=None, metavar="PATH",
                   help="dump a Chrome trace (or JSONL for *.jsonl) of "
                        "this command")
    p.add_argument("--log-level", default=None,
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
    p.add_argument("--ratio", type=unit_fraction, default=0.1,
                   help=text("ratio"))


def address_flags(p, port_help: str):
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8100, help=port_help)


def serve_flags(p):
    p.add_argument("--workers", type=positive_int, default=1,
                   help="inference worker threads (default 1)")
    p.add_argument("--max-queue", type=positive_int, default=64,
                   help="admission queue bound in requests; a full "
                        "queue rejects with Overloaded (default 64)")
    p.add_argument("--max-wait-ms", type=non_negative_float, default=2.0,
                   help="upper bound on holding a batch open for "
                        "co-riders while another worker runs one; no "
                        "effect with --workers 1 (default 2 ms)")
    p.add_argument("--deadline-ms", type=positive_float, default=None,
                   help="default per-request deadline; expired requests "
                        "are shed (default: no deadline)")
    p.add_argument("--no-batching", action="store_true",
                   help="serve one request per micro-batch (the "
                        "baseline dynamic batching is compared against)")
    budget_flag(p)
    p.add_argument("--slo", action="append", default=None, metavar="SPEC",
                   help="service-level objective, repeatable: "
                        "availability:TARGET[:WINDOW_S] or "
                        "latency:THRESHOLD_MS:TARGET[:WINDOW_S] "
                        "(e.g. latency:50:0.95); burn-rate gauges land "
                        "on GET /metrics, loadgen exits non-zero on "
                        "violation")


def frontend_flags(p):
    address_flags(p, "listen port; 0 picks an ephemeral port")
    p.add_argument("--duration", type=non_negative_float, default=None,
                   help="serve for N seconds then exit (default: until "
                        "SIGTERM/SIGINT)")
    p.add_argument("--drain-timeout", type=non_negative_float, default=30.0,
                   metavar="S",
                   help="graceful-drain budget on shutdown: in-flight "
                        "requests get this long to finish (default 30)")


def fleet_flags(p):
    p.add_argument("--host-budget", default=None, metavar="BYTES",
                   help="shared internal-tensor budget split evenly "
                        "across the replicas (parse_budget grammar; "
                        "NN%% is relative to replicas x one replica's "
                        "unplanned peak)")
    p.add_argument("--fault", default=None, metavar="SPEC",
                   help="deterministic fault injection for failover "
                        "testing: REPLICA:KIND:AFTER[:SLOW_MS] with "
                        "KIND in kill|stall|slow (e.g. 1:kill:5)")


# -- --log-level / --trace -------------------------------------------------

def _wrote_trace(tracer: Tracer, path: Path) -> None:
    # stderr: commands with --json keep stdout machine-parseable
    spans = sum(e["ph"] == "X" for e in tracer.events)
    print(f"wrote trace ({spans} spans, "
          f"{len(tracer.decisions_for())} decisions) to {path}",
          file=sys.stderr)


def _obs_wrap(fn, *, always: bool = False, wrote=_wrote_trace):
    """Honour ``--log-level`` / ``--trace`` around a command function.

    With ``--trace`` the command runs under a fresh ambient
    :class:`~repro.obs.Tracer` (``get_tracer()`` inside it) whose trace
    is written when the command returns and announced by ``wrote(tracer,
    path)``.  ``always`` is for commands that need the tracer whether or
    not a path was given; one that also always writes fills in
    ``args.trace`` before it returns.
    """
    def wrapped(args) -> int:
        if args.log_level:
            configure_logging(args.log_level)
        if not (always or args.trace):
            return fn(args)
        tracer = Tracer()
        with use_tracer(tracer):
            rc = fn(args)
        if args.trace:
            wrote(tracer, write_trace(tracer, args.trace))
        return rc
    return wrapped


# -- flags -> graph -------------------------------------------------------

def _load_model(args) -> Graph:
    """The ``model`` positional: a saved ``.npz`` graph, else a zoo or
    extra model built at ``--batch`` / ``--hw`` / ``--seed``."""
    if args.model.endswith(".npz"):
        return load_graph(args.model)
    build = build_extra if args.model in EXTRA_MODELS else build_model
    return build(args.model, batch=args.batch, hw=args.hw, seed=args.seed)


def _temco_target(graph: Graph, args) -> Graph:
    """``graph`` decomposed (``--method`` / ``--ratio``) and
    TeMCO-optimized with the default configuration — what ``--optimize``
    selects and ``--no-optimize`` deselects."""
    return optimize(decompose_graph(graph, DecompositionConfig(
        method=args.method, ratio=args.ratio, seed=args.seed)))[0]


def _budget_plan(graph: Graph, budget_spec: str, *, file=None):
    """Parse a ``--budget`` spec against ``graph``'s predicted peak, plan
    it and say so on ``file`` (stdout by default).  Raises
    :class:`~repro.plan.InfeasibleBudget` when no schedule fits."""
    reference = estimate_peak_internal(graph)
    mplan = plan_memory(graph, parse_budget(budget_spec, reference=reference))
    print(f"memory plan: {mplan.summary()} "
          f"(unplanned peak {format_bytes(reference)})", file=file)
    return mplan


def _print_infeasible(command: str, graph: Graph,
                      exc: InfeasibleBudget) -> None:
    print(f"{command}: {exc}", file=sys.stderr)
    print(f"{command}: the irreducible working-set floor of "
          f"{graph.name!r} is {format_bytes(estimate_peak_floor(graph))} — "
          f"budgets below it can never fit", file=sys.stderr)
