"""Activation layer fusion (paper §3.2)."""

import numpy as np
import pytest

from repro.core import (FusionConfig, TeMCOConfig, assert_equivalent,
                        estimate_peak_internal, fuse_activation_layers,
                        optimize, widen_tiles)
from repro.core.liveness import simulate
from repro.decompose import DecompositionConfig, decompose_graph
from repro.ir import GraphBuilder, graph_fingerprint
from repro.kernels import DEFAULT_BLOCK_SIZE, site_scratch_bytes
from repro.models import EXTRA_MODELS, build_extra, build_model, model_names
from repro.obs import Tracer, use_tracer
from repro.runtime import execute

from _graph_fixtures import make_chain_graph, random_input
from _rewrite_oracle import rewrite_checked, rewrite_restarting, use_scan
from _zoo_compiles import (cheap, decision_log, memoise_factor_solves,
                           zoo_model)


def _decomposed_chain(**kwargs):
    return decompose_graph(make_chain_graph(**kwargs),
                           DecompositionConfig(ratio=0.25))


class TestPatternMatching:
    def test_fuses_lconv_relu_pool_fconv(self):
        g = _decomposed_chain()
        stats = fuse_activation_layers(g)
        assert stats.fused >= 1
        assert stats.with_pool == 1
        fused = [n for n in g.nodes if n.op == "fused_block"]
        assert fused and fused[0].attrs["pool"]["kind"] == "max"

    def test_full_tensors_eliminated(self):
        g = _decomposed_chain()
        peak_before = estimate_peak_internal(g)
        fuse_activation_layers(g)
        assert estimate_peak_internal(g) < peak_before
        # the c1 lconv's full-size restored output no longer exists
        assert all("c1.lconv" not in n.name or n.op == "fused_block"
                   for n in g.nodes)

    def test_semantics_preserved(self):
        g = _decomposed_chain()
        before = g.clone("before")
        fuse_activation_layers(g)
        assert_equivalent(before, g, random_input(g), rtol=1e-3)

    def test_multi_consumer_intermediate_blocks_fusion(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 4, 8, 8))
        up = b.conv2d(x, 32, 1, name="up")       # lconv
        act = b.relu(up)
        down = b.conv2d(act, 4, 1, name="down")  # fconv
        g = b.finish(b.add(act, act), down)      # act has 2 consumers
        stats = fuse_activation_layers(g)
        # no lconv-act-fconv kernel: the chain ends at the shared act,
        # which a restore epilogue materializes for both consumers
        assert stats.fused == stats.epilogues == 1
        assert not any(n.op == "fused_block" for n in g.nodes)

    def test_graph_output_blocks_fusion(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 4, 8, 8))
        up = b.conv2d(x, 32, 1, name="up")
        act = b.relu(up)
        down = b.conv2d(act, 4, 1, name="down")
        g = b.finish(act, down)  # the intermediate IS an output
        stats = fuse_activation_layers(g)
        assert stats.fused == 0

    def test_silu_fused(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 4, 8, 8))
        up = b.conv2d(x, 32, 1, name="up")
        act = b.silu(up)
        down = b.conv2d(act, 4, 1, name="down")
        g = b.finish(down)
        stats = fuse_activation_layers(g)
        assert stats.fused == 1
        assert g.nodes[-1].attrs["act"] == "silu"

    def test_no_activation_pair_fused_by_default(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 4, 8, 8))
        up = b.conv2d(x, 32, 1, name="up")
        down = b.conv2d(up, 4, 1, name="down")
        g = b.finish(down)
        assert fuse_activation_layers(g).fused == 1

    def test_block_size_recorded(self):
        g = _decomposed_chain()
        fuse_activation_layers(g, FusionConfig(block_size=13))
        fused = [n for n in g.nodes if n.op.startswith("fused")]
        assert all(n.attrs["block_size"] == 13 for n in fused)


class TestEpilogueFusion:
    def _stem_graph(self):
        """lconv -> relu -> maxpool feeding a 2-consumer join."""
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 4, 8, 8))
        up = b.conv2d(x, 32, 1, name="up")
        act = b.relu(up)
        pool = b.maxpool2d(act, 2)
        g = b.finish(b.add(pool, pool), b.sigmoid(pool))
        return g

    def test_epilogue_replaces_chain(self):
        g = self._stem_graph()
        stats = fuse_activation_layers(g)
        assert stats.fused == 1
        assert stats.epilogues == 1
        assert any(n.op == "fused_restore" for n in g.nodes)

    def test_epilogue_reduces_peak(self):
        g = self._stem_graph()
        peak_before = estimate_peak_internal(g)
        fuse_activation_layers(g)
        assert estimate_peak_internal(g) < peak_before

    def test_epilogue_preserves_semantics(self):
        g = self._stem_graph()
        before = g.clone("before")
        fuse_activation_layers(g)
        inp = random_input(g)
        a = execute(before, inp)
        b_ = execute(g, inp)
        for va, vb in zip(before.outputs, g.outputs):
            np.testing.assert_allclose(a.outputs[va.name], b_.outputs[vb.name],
                                       atol=1e-5)


class TestScratchReporting:
    def test_scratch_tracked_separately(self):
        g = _decomposed_chain()
        fuse_activation_layers(g, FusionConfig(block_size=8))
        profile = execute(g, random_input(g)).memory
        assert profile.peak_scratch_bytes > 0

    def test_scratch_counted_when_requested(self):
        g = _decomposed_chain()
        fuse_activation_layers(g, FusionConfig(block_size=8))
        inp = random_input(g)
        default = execute(g, inp).memory
        honest = execute(g, inp, count_fused_scratch=True).memory
        assert honest.peak_internal_bytes >= default.peak_internal_bytes


def _sites(graph):
    return [(i, n) for i, n in enumerate(graph.nodes)
            if n.op in ("fused_block", "fused_restore")]


def _tiles(graph):
    return [n.attrs["block_size"] for _i, n in _sites(graph)]


class TestSlackWidening:
    """`widen_tiles`: default tiles grow only into memory the graph already
    owns; whatever tile the caller configured is compiled as given."""

    @pytest.fixture(scope="class")
    def decomposed(self):
        # two 64-channel sites: the first sets the scratch-counted peak at
        # block 32 (no slack), the second has room for its whole C'
        return decompose_graph(make_chain_graph(channels=32, hw=16),
                               DecompositionConfig(seed=0))

    @staticmethod
    def _scratch_counted_peak(graph):
        return execute(graph, random_input(graph),
                       count_fused_scratch=True).memory.peak_internal_bytes

    def test_default_compile_widens_within_the_scratch_counted_peak(
            self, decomposed):
        tracer = Tracer()
        with use_tracer(tracer):
            derived, report = optimize(decomposed)
        narrow, _ = optimize(decomposed, TeMCOConfig(
            fusion=FusionConfig(block_size=DEFAULT_BLOCK_SIZE)))
        assert _tiles(narrow) == [DEFAULT_BLOCK_SIZE] * 2
        assert _tiles(derived) == [DEFAULT_BLOCK_SIZE, 64]
        assert report.fusion.widened == 1
        budget = self._scratch_counted_peak(narrow)
        assert self._scratch_counted_peak(derived) == budget
        assert estimate_peak_internal(derived) == \
            estimate_peak_internal(narrow)
        live = simulate(derived).live
        for index, node in _sites(derived):
            assert live[index] + site_scratch_bytes(node) <= budget
        events = {subject: (verdict, reason, quantities)
                  for pass_name, subject, verdict, reason, quantities
                  in decision_log(tracer)
                  if pass_name == "fusion" and verdict in ("widen", "keep")}
        (first_i, first), (second_i, second) = _sites(derived)
        assert events[first.name] == ("keep", "no_slack", {
            "live_bytes": live[first_i], "budget_bytes": budget,
            "block_size": DEFAULT_BLOCK_SIZE})
        assert events[second.name] == ("widen", "slack", {
            "live_bytes": live[second_i], "budget_bytes": budget,
            "block_size_before": DEFAULT_BLOCK_SIZE, "block_size": 64})
        assert_equivalent(decomposed, derived, random_input(decomposed))

    @pytest.mark.parametrize("block", [8, DEFAULT_BLOCK_SIZE],
                             ids=["block_size", "block_size_at_the_default"])
    def test_a_configured_tile_is_compiled_exactly_as_given(
            self, decomposed, block):
        optimized, report = optimize(decomposed, TeMCOConfig(
            fusion=FusionConfig(block_size=block)))
        assert _tiles(optimized) == [block] * 2
        assert report.fusion.widened == 0

    def test_blocks_split_evenly_at_the_fewest_count_that_fits(self):
        # C' = 128 with room for 53 channels: three blocks of 44, not 52+52+24
        decomposed = decompose_graph(make_chain_graph(channels=64, hw=16),
                                     DecompositionConfig(seed=0))
        optimized, _ = optimize(decomposed)
        assert _tiles(optimized) == [44, 128]

    def test_fusing_outside_the_pipeline_leaves_the_default(self, decomposed):
        graph = decomposed.clone()
        fuse_activation_layers(graph)
        assert _tiles(graph) == [DEFAULT_BLOCK_SIZE] * 2
        assert widen_tiles(graph) == 1  # the pass is callable on its own
        assert _tiles(graph) == [DEFAULT_BLOCK_SIZE, 64]


def _compile(model, method, scan, monkeypatch):
    """Decompose and optimize the cached ``model`` with every splicing
    pass on ``scan``: the graphs, the decision log and the report."""
    use_scan(monkeypatch, scan)
    tracer = Tracer()
    with use_tracer(tracer):
        decomposed = decompose_graph(zoo_model(model), cheap(method))
        optimized, report = optimize(decomposed)
    log = decision_log(tracer, drop=("ms",))
    return (graph_fingerprint(decomposed), graph_fingerprint(optimized),
            [n.name for n in optimized.nodes], log, report)


class TestScanOrder:
    """A rule's splice leaves everything scheduled before it untouched,
    so the driver's forward scan must take the decisions the restarting
    reference scan takes — for every rule, on every graph a zoo compile
    hands to any pass, not only the one it keeps."""

    @pytest.mark.parametrize("method", ["tucker", "cp", "tt"])
    @pytest.mark.parametrize("model", model_names())
    def test_same_graph_log_and_stats_on_the_zoo(self, model, method,
                                                 monkeypatch):
        memoise_factor_solves(monkeypatch)
        zoo_model(model)  # built on the driver, once, outside both runs
        restarting, driver = (_compile(model, method, scan, monkeypatch)
                              for scan in (rewrite_restarting, rewrite_checked))
        assert driver == restarting
        assert driver[-1].fusion.fused > 0

    @pytest.mark.parametrize("model", ["resnet18", "densenet",
                                       "resnet_bottleneck"])
    def test_same_folds_on_the_batchnorm_models(self, model, monkeypatch):
        build = build_extra if model in EXTRA_MODELS else build_model
        runs = []
        for scan in (rewrite_restarting, rewrite_checked):
            use_scan(monkeypatch, scan)
            tracer = Tracer()
            with use_tracer(tracer):
                graph = build(model, batch=1, hw=32)
            runs.append((graph_fingerprint(graph),
                         [n.name for n in graph.nodes],
                         [(subject, quantities) for _, subject, _, _,
                          quantities in decision_log(tracer)]))
        assert runs[0] == runs[1]
        assert runs[0][2] and not any(n.op == "batchnorm2d" for n in graph.nodes)
