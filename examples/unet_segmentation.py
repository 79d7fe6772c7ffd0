#!/usr/bin/env python
"""UNet image segmentation under TeMCO (the paper's Figure 4a scenario).

UNet's hourglass skip connections keep full-size encoder tensors alive
until the decoder consumes them — the dominant share of the decomposed
model's peak memory.  This example shows how TeMCO's skip-connection
optimization + layer transformations + fusion collapse that to reduced
tensors, and that the segmentation masks are bit-for-bit unchanged.

Run:  python examples/unet_segmentation.py
"""

import numpy as np

from repro import DecompositionConfig, build_model, decompose_graph, optimize
from repro.core import find_skip_connections
from repro.data import dice_score, segmentation_batch
from repro.runtime import execute


def ascii_timeline(timeline: list[tuple[int, int]], width: int = 60,
                   peak: int | None = None) -> str:
    peak = peak or max(b for _, b in timeline)
    lines = []
    for index, live in timeline:
        bar = "#" * max(1, round(width * live / peak))
        lines.append(f"  layer {index:3d} |{bar:<{width}}| {live / 2**20:6.2f} MiB")
    return "\n".join(lines)


def main() -> None:
    batch = 4
    model = build_model("unet", batch=batch)
    data = segmentation_batch(batch, hw=96, seed=1)
    inputs = {"image": data.images}

    decomposed = decompose_graph(model, DecompositionConfig(ratio=0.1))
    skips = find_skip_connections(decomposed, distance_threshold=4)
    print(f"UNet decomposed: {len(decomposed.nodes)} layers, "
          f"{len(skips)} skip connections "
          f"({', '.join(s.value.name for s in skips[:4])}, ...)")

    optimized, report = optimize(decomposed)
    print("\nTeMCO report:")
    print(report.summary())

    print("\nmemory timeline (decomposed):")
    dec_profile = execute(decomposed, inputs).memory
    print(ascii_timeline(list(enumerate(dec_profile.events))[::4],
                         peak=dec_profile.peak_internal_bytes))
    print("\nmemory timeline (TeMCO):")
    opt_result = execute(optimized, inputs)
    print(ascii_timeline(list(enumerate(opt_result.memory.events))[::4],
                         peak=dec_profile.peak_internal_bytes))

    dec_mask = execute(decomposed, inputs).output()
    opt_mask = opt_result.output()
    print(f"\ndice(decomposed, ground truth) = {dice_score(dec_mask, data.masks):.4f}")
    print(f"dice(TeMCO,      ground truth) = {dice_score(opt_mask, data.masks):.4f}")
    print(f"max |Δmask| between variants   = {np.abs(dec_mask - opt_mask).max():.2e}")


if __name__ == "__main__":
    main()
