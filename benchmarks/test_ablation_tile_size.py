"""A4 — ablation: fused-kernel channel-block (tile) size.

Listing 1's tile size T controls the fused kernel's scratch footprint
and its efficiency: small tiles minimize memory but pay per-block
dispatch overhead, large tiles approach a dense contraction.  The sweep
measures both on a fused VGG variant.  The second table is the sweep as
an oracle for the compiler's tile rule (``widen_tiles``): at every fused
site of the perfbench (model, method, batch) compiles it times each
swept block and compares the compiled block with the fastest one whose
tile fits the compiler's scratch budget next to the site's live bytes,
and with the fastest one overall.
"""

from collections import defaultdict

from repro.bench import (PERFBENCH_COMPILES, ablate_tile_size, fast_mode,
                         format_table, tile_site_choices)

from _bench_util import run_once

BLOCKS = (4, 32, 256) if fast_mode() else (4, 16, 32, 64, 256)
COMPILES = PERFBENCH_COMPILES[:2] if fast_mode() else PERFBENCH_COMPILES


def test_tile_size_ablation(benchmark, report_sink):
    points = run_once(benchmark, lambda: ablate_tile_size(
        "vgg11", batch=4, hw=32, block_sizes=BLOCKS, repeats=2))
    choices = tile_site_choices(COMPILES)

    by_compile = defaultdict(list)
    for c in choices:
        by_compile[c.compile].append(c)
    rows = [[name, len(sites), sum(c.near(c.feasible) for c in sites),
             sum(c.near(c.ms) for c in sites)]
            for name, sites in by_compile.items()]
    near = sum(c.near(c.feasible) for c in choices)
    rows.append(["all", len(choices), near, sum(c.near(c.ms) for c in choices)])
    misses = [[c.compile, c.site, c.compiled, c.ms[c.compiled],
               min(c.feasible, key=c.ms.get), min(c.ms[b] for b in c.feasible)]
              for c in choices if not c.near(c.feasible)]
    table = [[p.block_size, p.scratch_mib, p.seconds * 1e3] for p in points]
    report_sink("ablation_tile_size", "\n\n".join([
        format_table(
            ["block size", "scratch MiB", "time ms"], table,
            title="A4: fused-kernel tile size (vgg11, batch 4, hw 32)"),
        format_table(
            ["compile", "sites", "near fit", "near any"], rows,
            title=f"compiled block within 5 % of the fastest block that "
                  f"fits the budget at {near}/{len(choices)} sites "
                  f"({near / len(choices):.0%}); \"near any\": of the "
                  f"fastest swept block"),
        format_table(
            ["compile", "site", "compiled", "ms", "best fit", "best ms"],
            misses, title="sites more than 5 % off the best fit"),
    ]))

    scratch = [p.scratch_mib for p in points]
    # scratch grows monotonically with the tile size (until clamped)
    assert all(a <= b + 1e-9 for a, b in zip(scratch, scratch[1:]))
    assert scratch[0] < scratch[-1]
    assert all(p.seconds > 0 for p in points)
    # every compiled tile fits widen_tiles' scratch budget
    assert choices and all(c.compiled in c.feasible for c in choices)
