"""The CLI surface is a contract: subcommands, flags, defaults, help.

``tests/golden/cli_surface.json`` is a structural dump of the whole
parser — per subcommand its help line and, per action in declaration
order, option strings, dest, nargs, const, default, choices, required,
metavar and help.  It is structural (not ``--help`` text) because
argparse formats help differently across the Python versions CI runs.
Regenerate after a *deliberate* surface change with::

    PYTHONPATH=src python tests/test_cli_surface.py > tests/golden/cli_surface.json
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden" / "cli_surface.json"
ACTION_FIELDS = ("option_strings", "dest", "nargs", "const", "choices",
                 "required", "metavar", "help")


def _action(action: argparse.Action) -> dict:
    doc = {name: getattr(action, name) for name in ACTION_FIELDS}
    doc["kind"] = type(action).__name__
    doc["default"] = str(action.default)  # Path / float / None alike
    if doc["choices"] is not None:
        doc["choices"] = list(doc["choices"])
    # unset fields are left out: the golden stays readable in a diff
    return {name: value for name, value in doc.items() if value is not None}


def parser_surface() -> dict:
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    helps = {c.dest: c.help for c in sub._choices_actions}
    commands = {
        name: {"help": helps.get(name),
               "actions": [_action(a) for a in p._actions
                           if not isinstance(a, argparse._HelpAction)]}
        for name, p in sub.choices.items()}
    return {"prog": parser.prog, "description": parser.description,
            "commands": commands}


def test_surface_matches_the_golden():
    golden = json.loads(GOLDEN.read_text())
    surface = json.loads(json.dumps(parser_surface()))  # tuples -> lists
    assert sorted(surface["commands"]) == sorted(golden["commands"])
    assert len(surface["commands"]) == 16
    for name, command in golden["commands"].items():
        assert surface["commands"][name] == command, name
    assert surface == golden


def test_importing_serve_does_not_import_the_bench_harness():
    # the serving library takes a graph; building one is a CLI concern.
    # Forget the harness first and see whether repro.serve brings it back.
    code = ("import sys, repro\n"
            "for m in [m for m in sys.modules if m.startswith("
            "'repro.bench')]: del sys.modules[m]\n"
            "import repro.serve\n"
            "print('repro.bench' in sys.modules)")
    src = str(Path(repro.__file__).parents[1])  # works uninstalled too
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


BAD_VALUES = [  # (command line up to the flag, flag, rejected value)
    (["run", "alexnet"], "--repeats", "0"),  # was statistics.StatisticsError
    (["serve", "alexnet"], "--workers", "0"),  # was ServerConfig ValueError
    (["fleet", "alexnet"], "--replicas", "0"),  # was PoolConfig ValueError
    (["loadgen", "alexnet"], "--requests", "0"),  # was LoadgenConfig's
    (["bench", "fig10"], "--repeats", "0"),
    (["bench", "fig11"], "--repeats", "-1"),
    (["profile", "alexnet"], "--repeats", "0"),
    (["profile", "alexnet"], "--top", "0"),
    (["inspect", "alexnet"], "--batch", "0"),
    (["memcheck"], "--batch", "-2"),
    (["bench", "fig10"], "--batch", "0"),
    (["run", "alexnet"], "--hw", "0"),
    (["memcheck"], "--hw", "x"),
    (["serve", "alexnet"], "--max-queue", "0"),
    (["serve", "alexnet"], "--max-wait-ms", "-1"),
    (["loadgen", "alexnet"], "--deadline-ms", "0"),
    (["diag", "alexnet"], "--replicas", "-1"),
    (["loadgen", "alexnet"], "--fleet", "-1"),
    (["diag", "alexnet"], "--requests", "-1"),
    (["loadgen", "alexnet"], "--concurrency", "0"),
    (["loadgen", "alexnet"], "--samples", "0"),
    (["loadgen", "alexnet"], "--rate", "0"),
    (["loadgen", "alexnet"], "--rate", "nan"),
    (["top"], "--interval", "-1"),
    (["top"], "--interval", "inf"),
    (["top"], "--timeout", "0"),
    (["serve", "alexnet"], "--duration", "-1"),
    (["fleet", "alexnet"], "--drain-timeout", "-0.5"),
    (["optimize", "alexnet"], "--energy", "0"),
    (["optimize", "alexnet"], "--energy", "1.5"),
    (["optimize", "alexnet"], "--ratio", "0"),
    (["trace", "alexnet"], "--ratio", "2"),
    (["plan", "alexnet"], "--ratio", "abc"),
]


@pytest.mark.parametrize("prefix,flag,value", BAD_VALUES)
def test_bad_numbers_are_one_line_usage_errors(prefix, flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*prefix, flag, value])
    assert exit_info.value.code == 2  # same code as a misspelled --budget
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(
        f"repro {prefix[0]}: error: argument {flag}: ")


@pytest.mark.parametrize("prefix,flag,value", [
    (["plan", "alexnet"], "--spill-gbps", "12"),  # a plan prices nothing
    (["memcheck"], "--tolerance", "0"),           # an audit is exact
])
def test_removed_pricing_flags_are_usage_errors(prefix, flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*prefix, flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(
        f"repro: error: unrecognized arguments: {flag}")


def test_boundary_values_still_parse():
    parse = build_parser().parse_args
    assert parse(["diag", "alexnet", "--replicas", "0"]).replicas == 0
    assert parse(["loadgen", "alexnet", "--fleet", "0"]).fleet == 0
    assert parse(["serve", "alexnet", "--duration", "0"]).duration == 0.0
    assert parse(["serve", "alexnet", "--max-wait-ms", "0"]).max_wait_ms == 0
    assert parse(["optimize", "alexnet", "--ratio", "1"]).ratio == 1.0
    assert parse(["run", "alexnet"]).hw is None


if __name__ == "__main__":
    print(json.dumps(parser_surface(), indent=1, sort_keys=True))
