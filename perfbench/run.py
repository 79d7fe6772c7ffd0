#!/usr/bin/env python3
"""perfbench: the layered benchmark of record.

Two ways in:

* one measurement, the form the growth driver calls::

      python3 perfbench/run.py --workload graph_b4 --seed 0 --seconds 15 --trace 0

  sets up, warms up, measures for `--seconds` and prints as its last
  line one JSON object `{"correct", "attempted", "failed", "metrics"}`;
  `--trace 0` gives every end-to-end metric, `--trace 1` every per-layer
  metric (and writes `perfbench/out/<workload>.trace.json`);

* the whole table, for people::

      python3 perfbench/run.py [--workload NAME]... [--seed N] [--runs N] [--out FILE] [--quick]

  runs each workload's untraced and traced measurement in fresh
  subprocesses of the first form and prints every metric by name with
  unit, direction, bound and sample count.

Metric names, units, directions and bounds live in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, set before NumPy loads: the second core is for the
# server's and the client's threads, and a product split over two cores
# waits for whichever a neighbour on the host slows down
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

WORKLOADS = ("graph_b4", "graph_b32", "serve_open", "fleet_http")
QUICK_SECONDS, QUICK_SETUPS = 3, 1


def measure_one(args) -> int:
    """Run one workload in this process; print detail and result lines."""
    src = common.ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = common.load_spec()
    name = args.workload[0]
    traced = args.trace == 1
    if name.startswith("graph_"):
        import graph_workload as workload
    else:
        import serve_workload as workload

    tally = common.Tally()
    spans = common.SpanLog() if traced else None
    expected = {}

    def check_reference(outputs: dict, counts: dict) -> None:
        if args.write_expected:
            expected.update(common.expected_entry(outputs, counts))
        else:
            common.check_expected(name, args.seed, outputs, counts, tally)

    out = workload.run(name, args.seed, args.seconds, traced, args.setups,
                       tally, spans, check_reference)
    if spans is not None:
        spans.write(common.OUT_DIR / f"{name}.trace.json")

    kind = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    unknown = set(out["metrics"]) - set(units)
    if unknown:
        raise SystemExit(f"perfbench: metrics not in BENCHMARK.json: "
                         f"{sorted(unknown)}")
    missing = set(units) - set(out["metrics"]) if not traced else set()
    if missing:
        raise SystemExit(f"perfbench: end-to-end metrics not measured: "
                         f"{sorted(missing)}")
    # a per-layer metric of a layer this workload does not run reads 0
    metrics = {n: {"value": float(out["metrics"].get(n, 0.0)), "unit": unit}
               for n, unit in units.items()}
    for reason in tally.reasons:
        print(f"perfbench: failed op: {reason}", file=sys.stderr)
    print(json.dumps({"rows": out["rows"], "env": common.env_block(),
                      "reasons": tally.reasons, "expected": expected}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def child(name: str, seed: int, seconds: float, trace: int, setups: int,
          write_expected: bool = False) -> tuple[dict, dict]:
    """One measurement in a fresh subprocess: (detail, result)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--setups", str(setups)]
    if write_expected:
        cmd.append("--write-expected")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=common.ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {name} --trace {trace} exited "
                         f"{proc.returncode}")
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def write_expected(names) -> int:
    doc = {}
    for name in names:
        detail, _ = child(name, 0, 1, 0, 1, write_expected=True)
        doc[name] = detail["expected"]
    common.EXPECTED_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(common.EXPECTED_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {common.EXPECTED_PATH}")
    return 0


def print_table(doc: dict, spec: dict) -> None:
    for name, w in doc["workloads"].items():
        print(f"\n== {name}: {w['attempted']} ops attempted, "
              f"{w['failed']} failed, correct={w['correct']}")
        for kind in ("end_to_end", "per_layer"):
            print(f"-- {kind} ({len(w[kind + '_runs'])} run(s), "
                  f"median shown)")
            for m in spec[kind]:
                values = w[kind][m["name"]]
                bound = f"bound {m['bound']:.3f}" if "bound" in m else ""
                print(f"{m['name']:<36} {common.p50(values):>16.6g} "
                      f"{m['unit']:<10} {m['better']:<7} {bound}")
        print("-- rows")
        for row in w["rows"]:
            print("   " + "  ".join(f"{k}={v:.6g}" if isinstance(v, float)
                                    else f"{k}={v}" for k, v in row.items()))


def run_all(args) -> int:
    spec = common.load_spec()
    seconds = QUICK_SECONDS if args.quick else args.seconds
    setups = QUICK_SETUPS if args.quick else args.setups
    started = time.time()
    doc = {"schema": 1, "quick": args.quick, "workloads": {}}
    for name in args.workload or WORKLOADS:
        w = {"attempted": 0, "failed": 0, "correct": True, "reasons": [],
             "end_to_end": {m["name"]: [] for m in spec["end_to_end"]},
             "per_layer": {m["name"]: [] for m in spec["per_layer"]},
             "end_to_end_runs": [], "per_layer_runs": []}
        for run in range(args.runs):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                detail, result = child(name, args.seed, seconds, trace, setups)
                for metric, entry in result["metrics"].items():
                    w[kind][metric].append(entry["value"])
                w[kind + "_runs"].append(
                    {"attempted": result["attempted"],
                     "failed": result["failed"]})
                w["attempted"] += result["attempted"]
                w["failed"] += result["failed"]
                w["correct"] &= result["correct"]
                w["reasons"] += detail["reasons"]
                if trace == 0:
                    w["rows"] = detail["rows"]
                    doc["env"] = detail["env"]
        doc["workloads"][name] = w
    doc["env"].update(commit=git_commit(), seed=args.seed, seconds=seconds,
                      setups=setups, runs=args.runs,
                      wall_s=time.time() - started)
    print_table(doc, spec)
    if args.quick:
        print("\nquick run: shrunken durations, never comparable")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    return 0 if all(w["correct"] for w in doc["workloads"].values()) else 1


def main(argv=None) -> int:
    spec = common.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--setups", type=int, default=3,
                        help="set-ups per measurement; setup_s is their median")
    parser.add_argument("--runs", type=int, default=1,
                        help="measurements per workload in the whole-table form")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace takes exactly one --workload")
        return measure_one(args)
    if args.write_expected:
        return write_expected(args.workload or WORKLOADS)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
