"""Command-line interface: ``python -m repro <command>``.

One module per subsystem, each documenting and registering its own
commands: :mod:`~repro.cli.compile` (models, inspect, export, optimize,
run, plan), :mod:`~repro.cli.observe` (trace, profile, memcheck,
selfcheck, bench) and :mod:`~repro.cli.serving` (serve, fleet, loadgen,
top, diag); :mod:`~repro.cli.flags` holds what they share.  Which graph
each command operates on is tabulated in ``docs/usage.md``.
"""

from __future__ import annotations

import argparse
import sys

from ..plan import BudgetSyntaxError
from . import compile, observe, serving

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TeMCO reproduction toolkit (ICPP 2024)")
    sub = parser.add_subparsers(dest="command", required=True)
    for module in (compile, observe, serving):
        module.register(sub)
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
