"""The conv → decomposed-sequence graph rewrite."""

import numpy as np
import pytest

from repro.core import assert_equivalent, optimize
from repro.decompose import (DecompositionConfig, decompose_graph,
                             decomposition_records)
from repro.ir import GraphBuilder, ops
from repro.kernels import conv2d
from repro.models import build_model
from repro.obs import Tracer, use_tracer
from repro.runtime import execute

from _graph_fixtures import make_chain_graph, make_skip_graph, random_input


class TestConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            DecompositionConfig(method="svd")

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            DecompositionConfig(ratio=2.0)


class TestRewriteStructure:
    def test_tucker_sequence_layout(self):
        g = decompose_graph(make_chain_graph(), DecompositionConfig(ratio=0.25))
        roles = [n.attrs.get("role") for n in g.nodes
                 if n.attrs.get("decomposed_from") == "c1"]
        assert roles == ["fconv", "core", "lconv"]
        lconv = next(n for n in g.nodes if n.attrs.get("role") == "lconv"
                     and n.attrs["decomposed_from"] == "c1")
        assert ops.is_lconv(lconv)

    def test_cp_sequence_layout(self):
        g = decompose_graph(make_chain_graph(),
                            DecompositionConfig(method="cp", ratio=0.25,
                                                cp_iters=5))
        nodes = [n for n in g.nodes if n.attrs.get("decomposed_from") == "c1"]
        assert len(nodes) == 4
        dw = [n for n in nodes if int(n.attrs.get("groups", 1)) > 1]
        assert len(dw) == 2  # two depthwise spatial factors

    def test_tt_sequence_layout(self):
        g = decompose_graph(make_chain_graph(),
                            DecompositionConfig(method="tt", ratio=0.25))
        nodes = [n for n in g.nodes if n.attrs.get("decomposed_from") == "c1"]
        kernels = [tuple(n.params["weight"].shape[2:]) for n in nodes]
        assert kernels == [(1, 1), (3, 1), (1, 3), (1, 1)]

    def test_output_shapes_preserved(self):
        g = make_skip_graph()
        for method in ("tucker", "cp", "tt"):
            dg = decompose_graph(g, DecompositionConfig(method=method,
                                                        ratio=0.25, cp_iters=5))
            assert dg.outputs[0].shape == g.outputs[0].shape
            dg.validate()

    def test_small_convs_left_alone(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 4, 8, 8))
        h = b.conv2d(x, 8, 3, padding=1, name="tiny")   # cout < MIN_OUT_CHANNELS
        g = b.finish(h)
        dg = decompose_graph(g, DecompositionConfig(ratio=0.5))
        assert any(n.name == "tiny" for n in dg.nodes)

    def test_pointwise_convs_left_alone(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 32, 8, 8))
        h = b.conv2d(x, 64, 1, name="pw")
        g = b.finish(h)
        dg = decompose_graph(g, DecompositionConfig(ratio=0.25))
        assert any(n.name == "pw" for n in dg.nodes)

    def test_original_graph_untouched(self):
        g = make_chain_graph()
        names_before = [n.name for n in g.nodes]
        decompose_graph(g, DecompositionConfig(ratio=0.25))
        assert [n.name for n in g.nodes] == names_before

    def test_orig_flops_recorded_on_lconv(self):
        g = make_chain_graph()
        c1_flops = ops.node_flops(g.find_node("c1"))
        dg = decompose_graph(g, DecompositionConfig(ratio=0.25))
        lconv = next(n for n in dg.nodes
                     if n.attrs.get("role") == "lconv"
                     and n.attrs["decomposed_from"] == "c1")
        assert lconv.attrs["orig_flops"] == c1_flops


class TestRewriteSemantics:
    @pytest.mark.parametrize("method", ["tucker", "cp", "tt"])
    def test_sequence_equals_reconstructed_kernel(self, method):
        """The decomposed sequence must compute exactly the convolution
        with the reconstructed (approximate) kernel — decomposition error
        comes *only* from factorization, never from the lowering."""
        b = GraphBuilder("t", seed=2)
        x = b.input("x", (2, 12, 9, 9))
        h = b.conv2d(x, 16, 3, stride=2, padding=1, name="conv")
        g = b.finish(h)
        dg = decompose_graph(g, DecompositionConfig(method=method, ratio=0.4,
                                                    cp_iters=30))
        inp = random_input(g, seed=1)
        got = execute(dg, inp).output()
        weff = _effective_kernel(dg, "conv", method)
        want = conv2d(inp["x"].astype(np.float64), weff, None,
                      stride=(2, 2), padding=(1, 1))
        np.testing.assert_allclose(got, want, atol=5e-5)

    def test_full_rank_tucker_is_lossless(self):
        g = make_chain_graph()
        dg = decompose_graph(g, DecompositionConfig(ratio=1.0))
        inp = random_input(g)
        np.testing.assert_allclose(execute(dg, inp).output(),
                                   execute(g, inp).output(), atol=1e-4)

    def test_bias_preserved(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 16, 4, 4))
        bias = np.arange(16, dtype=np.float32)
        h = b.conv2d(x, 16, 3, padding=1, bias_value=bias, name="c")
        g = b.finish(h)
        dg = decompose_graph(g, DecompositionConfig(ratio=1.0))
        zero = {"x": np.zeros((1, 16, 4, 4), np.float32)}
        out = execute(dg, zero).output()
        np.testing.assert_allclose(out, bias[None, :, None, None]
                                   * np.ones_like(out), atol=1e-5)

    @pytest.mark.parametrize("method", ["tucker", "cp", "tt"])
    def test_a_zeroed_conv_still_compiles(self, method):
        """A pruned / zero-initialised conv (CP-ALS used to abort the
        whole compile on it with ``LinAlgError: Singular matrix``)."""
        g = build_model("unet_small", batch=1, hw=16)
        victim = next(n for n in g.nodes if n.op == "conv2d"
                      and n.params["weight"].shape[2:] == (3, 3)
                      and n.params["weight"].shape[1] >= 16)
        victim.params["weight"] = np.zeros_like(victim.params["weight"])
        dg = decompose_graph(g, DecompositionConfig(method=method, cp_iters=5))
        lconv = dg.find_node(f"{victim.name}.lconv")
        assert lconv.attrs["fit_error"] == 0.0
        optimized, _ = optimize(dg)
        report = assert_equivalent(dg, optimized, random_input(g))
        assert np.isfinite(report.output_scale)


class TestTracing:
    @pytest.mark.parametrize("method", ["tucker", "cp", "tt"])
    def test_one_span_and_one_decision_per_site(self, method):
        g = build_model("unet_small", batch=1, hw=16)
        tracer = Tracer()
        with use_tracer(tracer):
            dg = decompose_graph(g, DecompositionConfig(method=method))
        lconvs = [n for n in dg.nodes if ops.is_lconv(n)]
        (span,) = [s for s in tracer.events
                   if s["ph"] == "X" and s["name"] == "decompose"]
        assert span["cat"] == "compiler"
        assert span["args"] == {"graph": g.name, "method": method,
                                "ratio": 0.1, "sites": len(lconvs)}
        sites = [d["args"] for d in
                 tracer.decisions_for("decompose", "factorise", method)]
        assert [f"{d['subject']}.lconv" for d in sites] == \
            [n.name for n in lconvs]
        for d, lconv in zip(sites, lconvs):
            assert d["fit_error"] == lconv.attrs["fit_error"]
            assert d["ranks"][-1] == lconv.params["weight"].shape[1]
        # the sites are the span: what is left is the loop and validate()
        total_ms = sum(d["ms"] for d in sites)
        assert 0.9 * span["dur"] / 1e3 <= total_ms <= span["dur"] / 1e3


class TestRecords:
    def test_records_cover_each_sequence(self):
        dg = decompose_graph(make_skip_graph(), DecompositionConfig(ratio=0.25))
        records = decomposition_records(dg)
        origins = {r.original for r in records}
        assert origins == {"enc1", "enc2", "dec"}
        for r in records:
            assert 0 <= r.fit_error < 1.5
            assert len(r.new_nodes) == 3


def _effective_kernel(dg, origin, method):
    nodes = {n.attrs.get("role"): n for n in dg.nodes
             if n.attrs.get("decomposed_from") == origin}
    by_name = {n.name: n for n in dg.nodes}
    fc = nodes["fconv"].params["weight"][:, :, 0, 0].astype(np.float64)
    lc = nodes["lconv"].params["weight"][:, :, 0, 0].astype(np.float64)
    if method == "tucker":
        core = by_name[f"{origin}.core"].params["weight"].astype(np.float64)
        return np.einsum("or,rskl,sc->ockl", lc, core, fc)
    if method == "cp":
        ch = by_name[f"{origin}.dw_h"].params["weight"][:, 0, :, 0].astype(np.float64)
        cw = by_name[f"{origin}.dw_w"].params["weight"][:, 0, 0, :].astype(np.float64)
        return np.einsum("or,rc,rk,rl->ockl", lc, fc, ch, cw)
    gh = by_name[f"{origin}.core_h"].params["weight"][:, :, :, 0].astype(np.float64)
    gw = by_name[f"{origin}.core_w"].params["weight"][:, :, 0, :].astype(np.float64)
    return np.einsum("ot,tsl,srk,rc->ockl", lc, gw, gh, fc)
