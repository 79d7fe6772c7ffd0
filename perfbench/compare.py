#!/usr/bin/env python3
"""Compare two result documents written by `run.py --out`.

    python3 perfbench/compare.py A.json B.json

One row per workload x metric: both medians, the relative change with A
as the base, the metric's bound and a verdict.  `regressed` means B is
worse than A by more than the bound; `unresolved` means either side's
own run-to-run spread (interquartile range over median, from `--runs`)
is wider than the bound, so the pair cannot tell; per-layer metrics have
no bound and are listed for the trace of where a change landed.  No
combined score is computed.  Exits 1 if any row regressed, 2 if the
documents cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def spread(values: list[float]) -> float:
    """Interquartile range over median; 0 when there are too few runs."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(metric: dict, a: list[float], b: list[float]) -> tuple[float, str]:
    """(relative change of B against A, verdict) for one metric."""
    base, new = statistics.median(a), statistics.median(b)
    if base == 0:
        return 0.0, "same" if new == 0 else "n/a"
    change = (new - base) / abs(base)
    if "bound" not in metric:
        return change, "-"
    if max(spread(a), spread(b)) > metric["bound"]:
        return change, "unresolved"
    worse = change if metric["better"] == "lower" else -change
    return change, "regressed" if worse > metric["bound"] else "ok"


def compare(doc_a: dict, doc_b: dict, spec: dict, out=sys.stdout) -> int:
    if doc_a.get("quick") or doc_b.get("quick"):
        print("compare: a --quick document is never comparable", file=out)
        return 2
    regressed = 0
    print(f"{'workload':<11} {'metric':<34} {'A':>13} {'B':>13} "
          f"{'B vs A':>8} {'bound':>6}  verdict", file=out)
    for name in doc_a["workloads"]:
        if name not in doc_b["workloads"]:
            continue
        for kind in ("end_to_end", "per_layer"):
            for metric in spec[kind]:
                a = doc_a["workloads"][name][kind][metric["name"]]
                b = doc_b["workloads"][name][kind][metric["name"]]
                change, word = verdict(metric, a, b)
                regressed += word == "regressed"
                bound = f"{metric['bound']:.3f}" if "bound" in metric else ""
                print(f"{name:<11} {metric['name']:<34} "
                      f"{statistics.median(a):>13.6g} "
                      f"{statistics.median(b):>13.6g} {change:>+8.1%} "
                      f"{bound:>6}  {word}", file=out)
    runs = [doc.get("env", {}).get("runs", 1) for doc in (doc_a, doc_b)]
    print(f"{regressed} regressed (change is relative to A; "
          f"{runs[0]} vs {runs[1]} run(s))", file=out)
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    return compare(docs[0], docs[1], common.load_spec())


if __name__ == "__main__":
    sys.exit(main())
