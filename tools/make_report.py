#!/usr/bin/env python
"""Aggregate bench_results/*.txt into a single REPORT.md.

Run after ``pytest benchmarks/ --benchmark-only``:

    python tools/make_report.py [--output REPORT.md]

The report embeds every saved table in a fixed, paper-figure order with
section headers, so one file captures a full reproduction run.
"""

from __future__ import annotations

import argparse
import datetime
import platform
from pathlib import Path

SECTIONS = [
    ("eq_memory_model", "E5 — Equations 1–4 (analytic memory model)"),
    ("fig4_unet", "E1 — Figure 4a: UNet memory timeline"),
    ("fig4_vgg16", "E1 — Figure 4b: VGG-16 memory timeline"),
    ("fig10_peak_memory", "E2 — Figure 10: peak memory across variants"),
    ("fig10_geomean", "E6 — headline geomean reduction"),
    ("fig11_inference_time", "E3 — Figure 11: end-to-end inference time "
     "(`benchmarks/` harness; the benchmark of record is perfbench's "
     "`overhead_vs_decomposed`)"),
    ("fig12_accuracy", "E4 — Figure 12: accuracy preservation"),
    ("fig12_trained", "E4b — Figure 12 with trained weights"),
    ("pareto_tradeoff", "E7 — memory/time Pareto"),
    ("ablation_thresholds", "A1 — skip-opt thresholds"),
    ("ablation_decomposition", "A2 — decomposition method/ratio"),
    ("ablation_tile_size", "A4 — fused-kernel tile size"),
    ("ablation_inplace", "A5 — accounting policy"),
    ("ablation_scheduling", "A7 — memory-aware scheduling"),
]


def build_report(results_dir: Path) -> str:
    lines = [
        "# TeMCO reproduction — benchmark report",
        "",
        f"- generated: {datetime.datetime.now().isoformat(timespec='seconds')}",
        f"- host: {platform.platform()} / Python {platform.python_version()}",
        "- regenerate: `pytest benchmarks/ --benchmark-only && "
        "python tools/make_report.py`",
        "",
    ]
    missing = []
    for stem, title in SECTIONS:
        path = results_dir / f"{stem}.txt"
        lines.append(f"## {title}")
        lines.append("")
        if path.exists():
            lines.append("```")
            lines.append(path.read_text().rstrip())
            lines.append("```")
        else:
            missing.append(stem)
            lines.append(f"*missing — run the `{stem}` benchmark first*")
        lines.append("")
    if missing:
        lines.insert(5, f"- **incomplete run**: missing {', '.join(missing)}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "bench_results")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "REPORT.md")
    args = parser.parse_args(argv)
    report = build_report(args.results)
    args.output.write_text(report)
    print(f"wrote {args.output} ({len(report.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
