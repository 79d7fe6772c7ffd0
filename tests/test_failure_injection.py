"""Failure injection: malformed inputs must fail loudly, degenerate
inputs must degrade to no-ops — never to silent corruption."""

import numpy as np
import pytest

from repro.core import (SkipOptConfig, TeMCOConfig, estimate_peak_internal,
                        fuse_activation_layers, optimize,
                        optimize_skip_connections)
from repro.decompose import DecompositionConfig, decompose_graph
from repro.ir import Graph, GraphBuilder, Node, Value, ops
from repro.runtime import InferenceSession, execute

from _graph_fixtures import make_chain_graph, random_input


class TestMalformedGraphs:
    def test_cycle_rejected(self):
        g = make_chain_graph()
        # wire the first node's input to the last node's output
        g.nodes[0].inputs[0] = g.nodes[-1].output
        with pytest.raises(ValueError, match="before its definition"):
            g.validate()

    def test_dangling_input_rejected(self):
        g = make_chain_graph()
        g.nodes[1].inputs[0] = Value("ghost", g.nodes[1].inputs[0].shape)
        with pytest.raises(ValueError, match="ghost"):
            g.validate()

    def test_wrong_weight_rank_rejected(self):
        g = make_chain_graph()
        g.find_node("c1").params["weight"] = np.zeros((4, 4), np.float32)
        with pytest.raises(ValueError, match="4D"):
            g.validate()

    def test_missing_bias_is_fine_but_bad_shape_is_not(self):
        g = make_chain_graph()
        node = g.find_node("c1")
        node.params.pop("bias")
        g.validate()  # bias optional
        node.params["bias"] = np.zeros(3, np.float32)
        with pytest.raises(ValueError, match="bias shape"):
            g.validate()

    def test_executor_checks_kernel_shape_agreement(self):
        g = make_chain_graph()
        # corrupt the declared output shape after validation time
        node = g.nodes[0]
        node.output.shape = (node.output.shape[0], node.output.shape[1],
                             node.output.shape[2], node.output.shape[3] - 1)
        with pytest.raises(RuntimeError, match="produced shape"):
            execute(g, random_input(g))


class TestDegenerateInputs:
    def test_optimize_graph_without_convs(self):
        b = GraphBuilder("noconv", seed=0)
        x = b.input("x", (1, 4, 8, 8))
        g = b.finish(b.relu(b.sigmoid(x)))
        opt, report = optimize(g)
        assert report.peak_after <= report.peak_before
        np.testing.assert_allclose(
            execute(g, random_input(g)).output(),
            execute(opt, random_input(opt)).output())

    def test_decompose_graph_without_eligible_convs(self):
        b = GraphBuilder("tiny", seed=0)
        x = b.input("x", (1, 2, 8, 8))
        g = b.finish(b.conv2d(x, 4, 3, padding=1))  # below MIN_OUT_CHANNELS
        dg = decompose_graph(g)
        assert [n.op for n in dg.nodes] == [n.op for n in g.nodes]

    def test_single_node_graph(self):
        b = GraphBuilder("one", seed=0)
        x = b.input("x", (1, 1, 2, 2))
        g = b.finish(b.relu(x))
        assert estimate_peak_internal(g) == 2 * x.nbytes
        opt, _ = optimize(g)
        assert len(opt.nodes) == 1

    def test_skip_opt_on_chain_is_noop(self):
        g = make_chain_graph()
        names = [n.name for n in g.nodes]
        stats = optimize_skip_connections(g, SkipOptConfig())
        assert stats.candidates == 0
        assert [n.name for n in g.nodes] == names

    def test_fusion_on_undecomposed_graph_is_noop(self):
        g = make_chain_graph()  # no lconvs: plain 3x3 convs
        stats = fuse_activation_layers(g)
        assert stats.fused == 0

    def test_batch_one_pixel_one(self):
        b = GraphBuilder("px", seed=0)
        x = b.input("x", (1, 16, 1, 1))
        h = b.relu(b.conv2d(x, 32, 1, name="c"))
        g = b.finish(h)
        out = execute(g, random_input(g)).output()
        assert out.shape == (1, 32, 1, 1)

    def test_rank1_decomposition(self):
        # ratio small enough that every rank floors at 1
        b = GraphBuilder("r1", seed=0)
        x = b.input("x", (1, 16, 8, 8))
        g = b.finish(b.conv2d(x, 16, 3, padding=1, name="c"))
        dg = decompose_graph(g, DecompositionConfig(ratio=0.001))
        fconv = next(n for n in dg.nodes if n.attrs.get("role") == "fconv")
        assert fconv.params["weight"].shape[0] == 1
        out = execute(dg, random_input(dg)).output()
        assert np.isfinite(out).all()


class TestNumericRobustness:
    def test_extreme_inputs_stay_finite(self):
        g = decompose_graph(make_chain_graph(), DecompositionConfig(ratio=0.25))
        opt, _ = optimize(g)
        big = {"x": np.full(g.inputs[0].shape, 1e10, np.float32)}
        for graph in (g, opt):
            out = execute(graph, big).output()
            assert not np.isnan(out).any()

    def test_zero_input(self):
        g = decompose_graph(make_chain_graph(), DecompositionConfig(ratio=0.25))
        opt, _ = optimize(g)
        zero = {"x": np.zeros(g.inputs[0].shape, np.float32)}
        np.testing.assert_allclose(execute(g, zero).output(),
                                   execute(opt, zero).output(), atol=1e-6)

    def test_float64_graph_executes(self):
        from repro.ir import DType
        b = GraphBuilder("dbl", seed=0, dtype=DType.float64)
        x = b.input("x", (1, 4, 6, 6))
        g = b.finish(b.relu(b.conv2d(x, 8, 3, padding=1)))
        out = execute(g, {"x": np.zeros((1, 4, 6, 6))}).output()
        assert out.dtype == np.float64
        # the allocator charges 8 bytes per element
        assert estimate_peak_internal(g) % 8 == 0


class TestFiniteChecking:
    def test_check_finite_names_the_culprit(self):
        b = GraphBuilder("nan", seed=0)
        x = b.input("x", (1, 2, 2, 2))
        h = b.conv2d(x, 2, 1, name="poisoned")
        g = b.finish(b.relu(h))
        g.find_node("poisoned").params["weight"][:] = np.inf
        with pytest.raises(FloatingPointError, match="poisoned"):
            execute(g, {"x": np.ones((1, 2, 2, 2), np.float32)},
                    check_finite=True)

    def test_check_finite_quiet_on_healthy_graph(self):
        g = make_chain_graph()
        execute(g, random_input(g), check_finite=True)
