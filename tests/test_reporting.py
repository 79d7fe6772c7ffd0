"""DOT export and report emitters."""

import csv
import io

import numpy as np
import pytest

from repro.core import optimize
from repro.decompose import DecompositionConfig, decompose_graph
from repro.ir import save_dot, to_dot
from repro.obs import MetricsRegistry
from repro.runtime import (TimingResult, execute, metrics_markdown,
                           profile_markdown, timeline_csv)

from _graph_fixtures import make_chain_graph, make_skip_graph, random_input


class TestDot:
    def test_contains_every_node_and_edge(self):
        g = make_skip_graph()
        dot = to_dot(g)
        for node in g.nodes:
            assert f'"{node.name}"' in dot
        assert dot.count("->") >= sum(len(n.inputs) for n in g.nodes)
        assert dot.startswith("digraph")

    def test_roles_colored(self):
        g = decompose_graph(make_chain_graph(), DecompositionConfig(ratio=0.25))
        dot = to_dot(g)
        assert "fconv" in dot and "lconv" in dot

    def test_fused_nodes_annotated(self):
        g = decompose_graph(make_chain_graph(), DecompositionConfig(ratio=0.25))
        opt, _ = optimize(g)
        dot = to_dot(opt)
        assert "fused_block" in dot

    def test_save(self, tmp_path):
        path = tmp_path / "g.dot"
        save_dot(make_chain_graph(), path)
        assert path.read_text().startswith("digraph")


class TestReports:
    def _run(self, factory=make_skip_graph):
        g = factory()
        return g, execute(g, random_input(g)).memory

    def test_timeline_csv_parses(self):
        g, profile = self._run()
        rows = list(csv.DictReader(io.StringIO(timeline_csv(profile, g))))
        assert len(rows) == len(profile.events)
        assert [row["node"] for row in rows] == [n.name for n in g.nodes]
        assert int(rows[0]["live_bytes"]) > 0

    def test_profile_markdown_mentions_peak(self):
        g, profile = self._run()
        md = profile_markdown(profile, g, title="T")
        assert "## T" in md and "peak internal" in md
        peak = g.nodes[profile.events.index(max(profile.events))]
        assert f"`{peak.name}` ({peak.op})" in md

    def test_metrics_markdown_table(self):
        registry = MetricsRegistry()
        registry.inc("executor.runs", 2)
        registry.gauge("executor.peak_internal_bytes", 3 * 1024 * 1024)
        md = metrics_markdown(registry, title="M")
        assert "## M" in md
        assert "`executor.runs` | 2" in md
        assert "3.000" in md  # bytes metrics get a MiB column


class TestTimingPercentiles:
    def test_percentile_interpolates(self):
        timing = TimingResult(seconds_per_run=[i / 1000 for i in range(101)])
        assert timing.percentile(0) == 0.0
        assert timing.percentile(100) == pytest.approx(0.1)
        assert timing.p50 == pytest.approx(0.050)
        assert timing.p95 == pytest.approx(0.095)
        assert timing.p99 == pytest.approx(0.099)

    def test_single_run_percentiles_collapse(self):
        timing = TimingResult(seconds_per_run=[0.25])
        assert timing.p50 == timing.p95 == timing.p99 == 0.25

    def test_bad_percentile_rejected(self):
        timing = TimingResult(seconds_per_run=[0.1])
        with pytest.raises(ValueError, match="percentile"):
            timing.percentile(101)
        with pytest.raises(ValueError, match="percentile"):
            timing.percentile(-1)

    def test_percentiles_ordered(self):
        times = list(np.random.default_rng(0).uniform(0.001, 0.1, size=40))
        timing = TimingResult(seconds_per_run=times)
        assert min(times) <= timing.p50 <= timing.p95 <= timing.p99 <= max(times)
