"""A4 — ablation: fused-kernel channel-block (tile) size.

Listing 1's tile size T controls the fused kernel's scratch footprint
and its efficiency: small tiles minimize memory but pay per-block
dispatch overhead, large tiles approach a dense contraction.  The sweep
measures both on a fused VGG variant, and the report also shows which
tiles the ``repro.tune`` autotuner actually picks per site — i.e. where
the measured optimum lands relative to the swept grid.
"""

from collections import Counter

from repro.bench import (ablate_tile_size, fast_mode, format_table,
                         tuned_tile_choices)

from _bench_util import run_once

BLOCKS = (4, 32, 256) if fast_mode() else (4, 16, 32, 64, 256)


def test_tile_size_ablation(benchmark, report_sink):
    points = run_once(benchmark, lambda: ablate_tile_size(
        "vgg11", batch=4, hw=32, block_sizes=BLOCKS, repeats=2))
    choices = tuned_tile_choices("vgg11", batch=4, hw=32, repeats=1)

    table = [[p.block_size, p.scratch_mib, p.seconds * 1e3] for p in points]
    modal_block, picks = Counter(c.block_size for c in choices).most_common(1)[0]
    report_sink("ablation_tile_size", "\n\n".join([
        format_table(
            ["block size", "scratch MiB", "time ms"], table,
            title="A4: fused-kernel tile size (vgg11, batch 4, hw 32)"),
        format_table(
            ["site", "tuned block", "tuned tile", "best ms", "default ms"],
            [[c.site, c.block_size, c.spatial_tile, c.best_ms, c.default_ms]
             for c in choices],
            title=f"autotuner picks (modal block {modal_block}, "
                  f"{picks}/{len(choices)} sites)"),
    ]))

    scratch = [p.scratch_mib for p in points]
    # scratch grows monotonically with the tile size (until clamped)
    assert all(a <= b + 1e-9 for a, b in zip(scratch, scratch[1:]))
    assert scratch[0] < scratch[-1]
    assert all(p.seconds > 0 for p in points)
    # the tuner covered every fusion site and never beat the baseline's
    # measured time by losing to it (best is min over measured trials)
    assert choices
    assert all(c.best_ms <= c.default_ms + 1e-9 for c in choices)
