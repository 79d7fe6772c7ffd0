"""A1 — ablation: Algorithm 1's DISTANCE_THRESHOLD / COMPUTE_THRESHOLD.

The paper notes (§4.2) that skip-connection optimization must be
*selective*: copying deep restore chains costs compute, so the guards
control a coverage/overhead trade-off.  This sweep shows how the number
of optimized connections responds to the two thresholds on DenseNet
(many skip connections of varying depth), and the peak the rest of the
pipeline reaches from each setting.
"""

from repro.bench import ablate_thresholds, fast_mode, format_table

from _bench_util import run_once

DIST = (2, 4, 8) if fast_mode() else (2, 4, 8, 16, 32)
SLACKS = (0.01, 1.0) if fast_mode() else (0.01, 0.1, 1.0)


def test_threshold_ablation(benchmark, report_sink):
    points = run_once(benchmark, lambda: ablate_thresholds(
        "densenet", batch=2, distance_thresholds=DIST, compute_slacks=SLACKS))

    table = [[p.distance_threshold, p.compute_slack, p.candidates,
              p.optimized, p.peak_mib] for p in points]
    report_sink("ablation_thresholds", format_table(
        ["distance", "compute slack", "candidates", "optimized",
         "pipeline peak MiB"],
        table, title="A1: skip-opt threshold sweep (DenseNet, batch 2)"))

    by = {(p.distance_threshold, p.compute_slack): p for p in points}
    # larger distance threshold -> fewer candidates (monotone)
    for slack in SLACKS:
        cands = [by[(d, slack)].candidates for d in DIST]
        assert all(a >= b for a, b in zip(cands, cands[1:]))
    # tighter compute slack -> no more optimizations than looser slack
    for d in DIST:
        series = [by[(d, s)].optimized for s in sorted(SLACKS)]
        assert all(a <= b for a, b in zip(series, series[1:]))
