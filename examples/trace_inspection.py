#!/usr/bin/env python
"""Trace inspection: compile + run a model under a Tracer and mine the
result programmatically.

Shows the observability layer end to end without leaving Python:

1. install an ambient :class:`repro.Tracer` around decomposition,
   the TeMCO pipeline, and one inference,
2. query the structured pass-decision log (why each skip connection
   was accepted or rejected, what fusion did),
3. rank the slowest compiler/executor spans,
4. check the memory counter track against the simulated schedule,
5. dump Chrome-trace + JSONL artifacts for Perfetto / grep.

Run:  python examples/trace_inspection.py
"""

import numpy as np

from repro import (DecompositionConfig, InferenceSession, Tracer,
                   build_model, decompose_graph, optimize, use_tracer,
                   write_chrome_trace)
from repro.core import simulate
from repro.obs import write_jsonl
from repro.runtime import metrics_markdown

MIB = 1024 * 1024


def main() -> None:
    tracer = Tracer()
    with use_tracer(tracer):
        model = build_model("unet_small", batch=1, hw=64)
        decomposed = decompose_graph(
            model, DecompositionConfig(method="tucker", ratio=0.1))
        optimized, report = optimize(decomposed)
        x = np.random.default_rng(0).normal(
            size=model.inputs[0].shape).astype(np.float32)
        result = InferenceSession(optimized).run(x)

    print("=== 1. pipeline result ===")
    print(report.summary())

    print("\n=== 2. pass-decision log ===")
    for pass_name in ("skip_opt", "fusion", "scheduling"):
        decisions = tracer.decisions_for(pass_name)
        print(f"{pass_name}: {len(decisions)} decisions")
        for d in decisions[:5]:
            qty = ", ".join(f"{k}={v:,}" if isinstance(v, int) else f"{k}={v}"
                            for k, v in sorted(d.quantities.items()))
            print(f"  {d.verdict:>6}  {d.subject:<28} {d.reason:<18} {qty}")
        if len(decisions) > 5:
            print(f"  ... and {len(decisions) - 5} more")

    rejected = [d for d in tracer.decisions_for("skip_opt") if d.rejected]
    if rejected:
        print("\nskip-opt rejections by reason:")
        reasons = {}
        for d in rejected:
            reasons[d.reason] = reasons.get(d.reason, 0) + 1
        for reason, count in sorted(reasons.items()):
            print(f"  {reason}: {count}")

    print("\n=== 3. slowest spans ===")
    for span in sorted(tracer.spans, key=lambda s: -s.duration_us)[:8]:
        print(f"  {span.duration_us / 1e3:8.2f} ms  "
              f"{'  ' * span.depth}{span.name} [{span.category}]")

    print("\n=== 4. memory counter track vs the simulated schedule ===")
    live = tracer.counter_series("memory", "live_bytes")
    assert live == list(simulate(optimized).live)
    assert max(live) == result.memory.peak_internal_bytes
    print(f"  {len(live)} samples, peak {max(live) / MIB:.2f} MiB "
          "— matches simulate() exactly")

    print("\n=== 5. metrics + artifacts ===")
    print(metrics_markdown(tracer.metrics))
    chrome = write_chrome_trace(tracer, "unet_small.trace.json")
    jsonl = write_jsonl(tracer, "unet_small.trace.jsonl")
    print(f"wrote {chrome} (open at https://ui.perfetto.dev) and {jsonl}")


if __name__ == "__main__":
    main()
