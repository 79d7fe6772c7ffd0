"""Dilated convolutions: kernel, IR integration, training guard."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import GraphBuilder
from repro.kernels import conv2d
from repro.runtime import execute
from repro.train import UntrainableOpError, backward, forward_with_tape

from _graph_fixtures import random_input
from test_kernels_conv import naive_conv2d


class TestDilatedConv:
    @pytest.mark.parametrize("dilation,stride,padding", [
        ((2, 2), (1, 1), (2, 2)),
        ((2, 2), (2, 2), (0, 0)),
        ((3, 1), (1, 1), (3, 0)),
    ])
    def test_matches_naive(self, dilation, stride, padding):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 10, 10))
        w = rng.normal(size=(4, 3, 3, 3))
        got = conv2d(x, w, None, stride=stride, padding=padding,
                     dilation=dilation)
        want = naive_conv2d(x, w, None, stride, padding, dilation=dilation)
        np.testing.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("groups", [2, 4])
    def test_grouped_and_depthwise_dilated(self, groups):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 4, 10, 9))
        w = rng.normal(size=(8, 4 // groups, 3, 2))
        kwargs = dict(stride=(2, 1), padding=(2, 1), groups=groups,
                      dilation=(2, 3))
        np.testing.assert_allclose(conv2d(x, w, None, **kwargs),
                                   naive_conv2d(x, w, None, **kwargs),
                                   atol=1e-10)

    def test_dilation_one_unchanged(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(2, 2, 3, 3))
        np.testing.assert_array_equal(
            conv2d(x, w, None, padding=(1, 1)),
            conv2d(x, w, None, padding=(1, 1), dilation=(1, 1)))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), d=st.integers(1, 3))
    def test_property_matches_naive(self, seed, d):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 2, 9, 9))
        w = rng.normal(size=(2, 2, 3, 3))
        got = conv2d(x, w, None, padding=(d, d), dilation=(d, d))
        want = naive_conv2d(x, w, None, padding=(d, d), dilation=(d, d))
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestDilatedInIR:
    def test_graph_shape_and_execution_agree(self):
        b = GraphBuilder("dil", seed=0)
        x = b.input("x", (1, 4, 12, 12))
        h = b.conv2d(x, 8, 3, padding=2, dilation=2, name="dconv")
        g = b.finish(b.relu(h))
        assert g.find_node("dconv").output.shape == (1, 8, 12, 12)
        out = execute(g, random_input(g)).output()
        assert out.shape == (1, 8, 12, 12)
        assert np.isfinite(out).all()

    def test_training_dilated_conv_raises(self):
        b = GraphBuilder("dil", seed=0)
        x = b.input("x", (1, 4, 8, 8))
        h = b.conv2d(x, 8, 3, padding=2, dilation=2, name="dconv")
        g = b.finish(h)
        tape = forward_with_tape(g, random_input(g))
        out = g.outputs[0].name
        with pytest.raises(UntrainableOpError, match="dilated"):
            backward(tape, {out: np.ones_like(tape.env[out])})
