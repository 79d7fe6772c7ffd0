#!/usr/bin/env python
"""Request waterfalls: drive a traced inference server and export a
Chrome trace showing each request's lifecycle.

Shows the serving side of the observability layer end to end:

1. start an :class:`repro.serve.InferenceServer` under an ambient
   :class:`repro.Tracer`, with SLO objectives attached,
2. submit a burst of concurrent single-sample requests (so the
   micro-batcher actually coalesces co-riders),
3. walk the per-request waterfall programmatically — queue wait,
   batching hold, execute — straight from the tracer's async lanes,
4. inspect drop-reason counters and SLO burn rates,
5. dump the Chrome trace for Perfetto (per-request async rows, labeled
   worker rows, fan-in flow arrows).

Run:  python examples/request_waterfall.py
"""

import numpy as np

from repro import Tracer, build_model, use_tracer
from repro.obs import SLOMonitor, SLObjective, write_chrome_trace
from repro.serve import InferenceServer, ServerConfig


def main() -> None:
    model = build_model("unet_small", batch=4, hw=32)
    tracer = Tracer()
    slo = SLOMonitor([
        SLObjective("availability_99", target=0.99, window_s=60.0),
        SLObjective("latency_1s_95", target=0.95,
                    latency_threshold_ms=1000.0, window_s=60.0),
    ])

    rng = np.random.default_rng(0)
    name = model.inputs[0].name
    sample_shape = (1,) + model.inputs[0].shape[1:]

    config = ServerConfig(num_workers=2, max_wait_s=0.005)
    with use_tracer(tracer):
        with InferenceServer(model, config, slo=slo) as server:
            futures = [
                server.submit({name: rng.normal(size=sample_shape)
                               .astype(np.float32)})
                for _ in range(12)
            ]
            for future in futures:
                future.result(timeout=30.0)
            stats = server.stats()

    print("=== 1. per-request waterfall (from the trace) ===")
    print(f"{'request':>8} {'trace_id':>17} {'queue_wait':>11} "
          f"{'batching':>9} {'execute':>8}")
    # async slice boundaries: ph "b" (begin) / "e" (end), keyed by id
    boundaries = {(e["id"], e["name"], e["ph"]): e["ts"]
                  for e in tracer.events if e["ph"] in ("b", "e")}
    for future in futures:
        rid = future.request_id
        segments = {}
        for seg in ("queue_wait", "batching", "execute"):
            begin = boundaries.get((rid, seg, "b"))
            end = boundaries.get((rid, seg, "e"))
            segments[seg] = (end - begin) if begin is not None else 0.0
        print(f"{rid:>8} {future.trace_id:>17} "
              f"{segments['queue_wait'] / 1e3:>9.2f}ms "
              f"{segments['batching'] / 1e3:>7.2f}ms "
              f"{segments['execute'] / 1e3:>6.2f}ms")

    print("\n=== 2. fan-in: which batch served which requests ===")
    for span in tracer.events:
        if span["ph"] == "X" and span["name"] == "serve.batch":
            args = span["args"]
            print(f"  worker {args['worker_id']} "
                  f"batch of {args['requests']} request(s) "
                  f"{args['samples']} sample(s) "
                  f"(padding {args['padding']}): ids {args['request_ids']}")

    print("\n=== 3. serving metrics ===")
    for key in sorted(stats):
        if key.startswith("serve.") and not key.count(".p"):
            print(f"  {key} = {stats[key]}")

    print("\n=== 4. SLO burn rates ===")
    for status in slo.evaluate():
        print(f"  {status.summary()}")

    path = write_chrome_trace(tracer, "request_waterfall.trace.json")
    print(f"\nwrote {path} — open at https://ui.perfetto.dev: the async "
          f"rows at the top are per-request waterfalls, worker-0/worker-1 "
          f"rows hold the batch + node spans, arrows show the fan-in")


if __name__ == "__main__":
    main()
