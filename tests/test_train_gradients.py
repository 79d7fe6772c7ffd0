"""Autodiff VJPs vs central finite differences, op by op."""

import numpy as np
import pytest

from repro.ir import GraphBuilder
from repro.train import backward, forward_with_tape, grad_check
from repro.train.gradients import UntrainableOpError

from _graph_fixtures import random_input


def _check(graph, node_name, param, k=6, atol=2e-3):
    rng = np.random.default_rng(0)
    inputs = {v.name: rng.normal(size=v.shape).astype(np.float64)
              for v in graph.inputs}
    # force float64 everywhere for tight finite-difference agreement
    for v in graph.values():
        v.dtype = type(v.dtype)("float64")
    for node in graph.nodes:
        node.params = {k_: p.astype(np.float64) for k_, p in node.params.items()}
    node = graph.find_node(node_name)
    weight = node.params[param]
    flat = [np.unravel_index(i, weight.shape)
            for i in rng.choice(weight.size, size=min(k, weight.size),
                                replace=False)]
    analytic, numeric = grad_check(graph, inputs, node_name=node_name,
                                   param=param, indices=flat, eps=1e-5)
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-3)


class TestConvGradients:
    def test_conv2d_weight(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (2, 3, 7, 7))
        h = b.conv2d(x, 4, 3, stride=2, padding=1, name="c")
        _check(b.finish(b.tanh(h)), "c", "weight")

    def test_conv2d_bias(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (2, 3, 5, 5))
        h = b.conv2d(x, 4, 3, padding=1, name="c")
        _check(b.finish(b.sigmoid(h)), "c", "bias", k=4)

    def test_pointwise_conv_weight(self):
        b = GraphBuilder("t", seed=1)
        x = b.input("x", (1, 5, 4, 4))
        h = b.conv2d(x, 7, 1, name="c")
        _check(b.finish(b.relu(h)), "c", "weight")

    def test_depthwise_conv_weight(self):
        b = GraphBuilder("t", seed=1)
        x = b.input("x", (1, 4, 6, 6))
        h = b.conv2d(x, 4, 3, padding=1, groups=4, name="dw")
        _check(b.finish(b.tanh(h)), "dw", "weight")

    def test_conv_transpose_weight(self):
        b = GraphBuilder("t", seed=2)
        x = b.input("x", (1, 3, 4, 4))
        h = b.conv_transpose2d(x, 5, 2, stride=2, name="up")
        _check(b.finish(b.tanh(h)), "up", "weight")

    def test_linear_weight(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (3, 6))
        h = b.linear(x, 4, name="fc")
        _check(b.finish(b.tanh(h)), "fc", "weight")

    def test_grad_flows_through_strided_conv_input(self):
        # verify grad_x shape/values via a downstream weight check
        b = GraphBuilder("t", seed=3)
        x = b.input("x", (1, 3, 9, 9))
        h = b.conv2d(x, 4, 3, stride=2, padding=0, name="c1")
        h = b.conv2d(h, 2, 1, name="c2")
        _check(b.finish(b.tanh(h)), "c1", "weight")


class TestLayerGradients:
    @pytest.mark.parametrize("act", ["relu", "silu", "sigmoid", "tanh"])
    def test_through_activation(self, act):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (2, 3, 5, 5))
        h = b.conv2d(x, 4, 3, padding=1, name="c")
        h = getattr(b, act)(h)
        _check(b.finish(h), "c", "weight")

    def test_through_maxpool(self):
        b = GraphBuilder("t", seed=1)
        x = b.input("x", (2, 3, 8, 8))
        h = b.conv2d(x, 4, 3, padding=1, name="c")
        h = b.maxpool2d(h, 2)
        _check(b.finish(b.tanh(h)), "c", "weight")

    def test_through_overlapping_maxpool(self):
        b = GraphBuilder("t", seed=2)
        x = b.input("x", (1, 2, 9, 9))
        h = b.conv2d(x, 3, 3, padding=1, name="c")
        h = b.maxpool2d(h, 3, stride=2, padding=1)
        _check(b.finish(b.tanh(h)), "c", "weight")

    def test_through_avgpool(self):
        b = GraphBuilder("t", seed=1)
        x = b.input("x", (1, 3, 8, 8))
        h = b.conv2d(x, 4, 3, padding=1, name="c")
        h = b.avgpool2d(h, 2)
        _check(b.finish(b.tanh(h)), "c", "weight")

    def test_through_global_avgpool_flatten_linear(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (2, 3, 6, 6))
        h = b.conv2d(x, 4, 3, padding=1, name="c")
        h = b.flatten(b.global_avgpool(h))
        h = b.linear(h, 3, name="fc")
        _check(b.finish(b.tanh(h)), "c", "weight")

    def test_through_upsample(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 3, 4, 4))
        h = b.conv2d(x, 4, 1, name="c")
        h = b.upsample_nearest(h, 3)
        _check(b.finish(b.tanh(h)), "c", "weight")

    def test_through_concat_and_add(self):
        b = GraphBuilder("t", seed=4)
        x = b.input("x", (1, 3, 5, 5))
        a = b.conv2d(x, 4, 3, padding=1, name="ca")
        c = b.conv2d(x, 4, 3, padding=1, name="cb")
        h = b.concat(a, c)
        h = b.conv2d(h, 4, 1, name="mix")
        h = b.add(h, a)
        _check(b.finish(b.tanh(h)), "ca", "weight")

    def test_through_softmax(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (2, 5))
        h = b.linear(x, 4, name="fc")
        h = b.softmax(h)
        _check(b.finish(h), "fc", "weight")

    def test_batchnorm_gamma_beta(self):
        b = GraphBuilder("t", seed=5)
        x = b.input("x", (2, 3, 4, 4))
        h = b.conv2d(x, 4, 3, padding=1, name="c")
        h = b.batchnorm2d(h, gamma=b.rng.uniform(0.5, 2, 4),
                          beta=b.rng.normal(size=4),
                          mean=b.rng.normal(size=4),
                          var=b.rng.uniform(0.5, 2, 4), name="bn")
        g = b.finish(b.tanh(h))
        _check(g, "bn", "gamma", k=4)
        _check(g, "bn", "beta", k=4)


class TestBackwardAPI:
    def test_fused_block_is_untrainable(self):
        from repro.core import fuse_activation_layers
        from repro.decompose import DecompositionConfig, decompose_graph
        from _graph_fixtures import make_chain_graph
        g = decompose_graph(make_chain_graph(), DecompositionConfig(ratio=0.25))
        fuse_activation_layers(g)
        tape = forward_with_tape(g, random_input(g))
        out = g.outputs[0].name
        with pytest.raises(UntrainableOpError, match="decomposed model"):
            backward(tape, {out: np.ones_like(tape.env[out])})

    def test_merged_lconv_with_runs_is_untrainable(self):
        from repro.core import merge_lconv_concat
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 3, 4, 4))
        g = b.finish(b.concat(b.maxpool2d(x, 1), b.conv2d(x, 8, 1)))
        merge_lconv_concat(g)
        tape = forward_with_tape(g, random_input(g))
        out = g.outputs[0].name
        with pytest.raises(UntrainableOpError, match="pass-through"):
            backward(tape, {out: np.ones_like(tape.env[out])})

    def test_input_gradients_returned(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 2, 3, 3))
        g = b.finish(b.relu(x))
        tape = forward_with_tape(g, random_input(g))
        out = g.outputs[0].name
        grads = backward(tape, {out: np.ones_like(tape.env[out])})
        assert "x" in grads.inputs
        assert grads.inputs["x"].shape == (1, 2, 3, 3)

    def test_bad_grad_shape_rejected(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 2, 3, 3))
        g = b.finish(b.relu(x))
        tape = forward_with_tape(g, random_input(g))
        with pytest.raises(ValueError, match="shape"):
            backward(tape, {g.outputs[0].name: np.ones((1, 1))})

    def test_shared_input_accumulates(self):
        # y = x + x: dy/dx = 2
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 2, 2, 2))
        g = b.finish(b.add(x, x))
        tape = forward_with_tape(g, random_input(g))
        out = g.outputs[0].name
        grads = backward(tape, {out: np.ones_like(tape.env[out])})
        np.testing.assert_array_equal(grads.inputs["x"], 2.0)
