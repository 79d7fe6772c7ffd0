"""``optimize``'s two fallbacks: each is the caller's config
with only the disabled stages changed, and whichever graph wins, the
peak gauges describe it."""

from dataclasses import replace

import pytest

from repro.core import (FusionConfig, OptimizationReport, SkipOptStats,
                        TeMCOConfig, optimize, pipeline)
from repro.ir import GraphBuilder
from repro.obs import Tracer, use_tracer


def _graph():
    b = GraphBuilder("g")
    return b.finish(b.relu(b.input("x", (1, 2, 4, 4))))


def _fake_runs(monkeypatch, reports):
    """``_compile_once`` returning ``reports`` in turn; the configs it got."""
    configs = []

    def compile_once(graph, config):
        configs.append(config)
        return graph.clone(f"run{len(configs)}"), reports[len(configs) - 1]

    monkeypatch.setattr(pipeline, "_compile_once", compile_once)
    return configs


@pytest.mark.parametrize("config", [
    TeMCOConfig(),
    TeMCOConfig(enable_scheduling=False,
                fusion=FusionConfig(block_size=8,
                                    site_overrides={"c1.lconv": (8, 4)})),
])
def test_fallback_configs_change_only_the_disabled_stages(monkeypatch, config):
    configs = _fake_runs(monkeypatch, [
        OptimizationReport(peak_before=10, peak_after=30,
                           skip_opt=SkipOptStats(optimized=1)),
        OptimizationReport(peak_before=10, peak_after=20),
        OptimizationReport(peak_before=10, peak_after=5),
    ])
    optimized, report = optimize(_graph(), config)
    assert configs == [
        config,
        replace(config, enable_skip_opt=False),
        replace(config, enable_skip_opt=False, enable_transforms=False),
    ]
    assert optimized.name == "run3" and report.peak_after == 5


def test_the_fusion_only_fallback_sets_the_peak_gauges(monkeypatch):
    _fake_runs(monkeypatch, [
        OptimizationReport(peak_before=100, peak_after=120),
        OptimizationReport(peak_before=100, peak_after=80),
    ])
    tracer = Tracer()
    with use_tracer(tracer):
        optimized, report = optimize(_graph())
    assert optimized.name == "run2"
    assert [(d["args"]["verdict"], d["args"]["reason"])
            for d in tracer.decisions_for()] == [
        ("fallback", "fusion_only_better")]
    gauges = tracer.metrics.gauges
    assert gauges["pipeline.peak_before_bytes"] == 100
    assert gauges["pipeline.peak_after_bytes"] == 80
    assert gauges["pipeline.peak_reduction"] == pytest.approx(0.2)
