"""REPORT.md is what ``tools/make_report.py`` builds from
``bench_results/``, apart from its ``generated`` / ``host`` lines: a
number that moves is re-measured by its ``benchmarks/`` test, never
written into the report by hand."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unstamped(text: str) -> list[str]:
    return [line for line in text.splitlines()
            if not line.startswith(("- generated:", "- host:"))]


def test_report_is_the_generators_output():
    spec = importlib.util.spec_from_file_location(
        "make_report", ROOT / "tools" / "make_report.py")
    make_report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_report)
    built = make_report.build_report(ROOT / "bench_results")
    assert _unstamped(built) == _unstamped((ROOT / "REPORT.md").read_text())
