"""Unit tests for the op registry: shape inference, validation, FLOPs."""

import numpy as np
import pytest

from repro.ir import GraphBuilder, ops
from repro.ir.emit import make_node
from repro.ir.graph import Graph
from repro.ir.value import Value


def _graph_with_input(shape=(2, 8, 10, 10)):
    g = Graph("t", [Value("x", shape)])
    return g, g.inputs[0]


class TestConvShapeInference:
    @pytest.mark.parametrize("hw,k,s,p,expected", [
        (10, 3, 1, 1, 10),
        (10, 3, 2, 1, 5),
        (10, 1, 1, 0, 10),
        (10, 5, 1, 2, 10),
        (11, 3, 2, 1, 6),
        (7, 7, 1, 3, 7),
    ])
    def test_spatial_dims(self, hw, k, s, p, expected):
        oh, ow = ops.conv_output_hw(hw, hw, k, s, p)
        assert (oh, ow) == (expected, expected)

    def test_window_too_large_raises(self):
        with pytest.raises(ValueError):
            ops.conv_output_hw(2, 2, kernel=5, stride=1, padding=0)

    def test_conv2d_output_channels(self):
        g, x = _graph_with_input()
        node = make_node(g, "conv2d", [x],
                         attrs={"stride": [1, 1], "padding": [1, 1], "groups": 1},
                         params={"weight": np.zeros((16, 8, 3, 3), np.float32)})
        assert node.output.shape == (2, 16, 10, 10)

    def test_conv2d_channel_mismatch_raises(self):
        g, x = _graph_with_input()
        with pytest.raises(ValueError, match="in-channels"):
            make_node(g, "conv2d", [x],
                      attrs={"stride": [1, 1], "padding": [0, 0], "groups": 1},
                      params={"weight": np.zeros((16, 4, 3, 3), np.float32)})

    def test_depthwise_groups(self):
        g, x = _graph_with_input()
        node = make_node(g, "conv2d", [x],
                         attrs={"stride": [1, 1], "padding": [1, 0], "groups": 8},
                         params={"weight": np.zeros((8, 1, 3, 1), np.float32)})
        assert node.output.shape == (2, 8, 10, 10)

    def test_conv_transpose_doubles_spatial(self):
        g, x = _graph_with_input()
        node = make_node(g, "conv_transpose2d", [x],
                         attrs={"stride": [2, 2], "padding": [0, 0],
                                "output_padding": [0, 0]},
                         params={"weight": np.zeros((8, 4, 2, 2), np.float32)})
        assert node.output.shape == (2, 4, 20, 20)

    def test_conv_flops(self):
        g, x = _graph_with_input()
        node = make_node(g, "conv2d", [x],
                         attrs={"stride": [1, 1], "padding": [1, 1], "groups": 1},
                         params={"weight": np.zeros((16, 8, 3, 3), np.float32)})
        assert ops.node_flops(node) == 2 * 2 * 16 * 10 * 10 * 8 * 9


class TestElementwiseOps:
    def test_add_shape_mismatch_raises(self):
        g = Graph("t", [Value("a", (2, 3)), Value("b", (2, 4))])
        with pytest.raises(ValueError, match="add operands differ"):
            make_node(g, "add", list(g.inputs))

    def test_concat_axis1(self):
        g = Graph("t", [Value("a", (2, 3, 4, 4)), Value("b", (2, 5, 4, 4))])
        node = make_node(g, "concat", list(g.inputs), attrs={"axis": 1})
        assert node.output.shape == (2, 8, 4, 4)

    def test_concat_non_axis_mismatch_raises(self):
        g = Graph("t", [Value("a", (2, 3, 4, 4)), Value("b", (2, 5, 5, 4))])
        with pytest.raises(ValueError, match="mismatch"):
            make_node(g, "concat", list(g.inputs), attrs={"axis": 1})

    def test_activations_preserve_shape(self):
        for act in ops.ACTIVATION_OPS:
            g, x = _graph_with_input()
            node = make_node(g, act, [x])
            assert node.output.shape == x.shape

    def test_flatten(self):
        g, x = _graph_with_input((2, 8, 3, 3))
        node = make_node(g, "flatten", [x], attrs={"start_dim": 1})
        assert node.output.shape == (2, 72)

    def test_upsample(self):
        g, x = _graph_with_input((2, 8, 5, 5))
        node = make_node(g, "upsample_nearest", [x], attrs={"scale": 3})
        assert node.output.shape == (2, 8, 15, 15)

    def test_global_avgpool(self):
        g, x = _graph_with_input()
        node = make_node(g, "global_avgpool", [x])
        assert node.output.shape == (2, 8, 1, 1)

    def test_unknown_op_raises(self):
        g, x = _graph_with_input()
        with pytest.raises(KeyError, match="unknown op"):
            make_node(g, "conv3d", [x])


class TestFusedOps:
    def test_fused_block_shapes(self):
        g, x = _graph_with_input((2, 4, 8, 8))
        node = make_node(g, "fused_block", [x],
                         attrs={"act": "relu",
                                "pool": {"kind": "max", "kernel": [2, 2],
                                         "stride": [2, 2], "padding": [0, 0]}},
                         params={"w1": np.zeros((32, 4), np.float32),
                                 "w2": np.zeros((6, 32), np.float32)})
        assert node.output.shape == (2, 6, 4, 4)

    def test_fused_block_upsampled_input_then_pool(self):
        # an input factor restores the upsampled plane, which the tile's
        # pool then reduces
        g, x = _graph_with_input((2, 4, 8, 8))
        node = make_node(g, "fused_block", [x],
                         attrs={"act": "relu", "input_scales": [2],
                                "pool": {"kind": "max", "kernel": [2, 2]}},
                         params={"w1": np.zeros((32, 4), np.float32),
                                 "w2": np.zeros((6, 32), np.float32)})
        assert node.output.shape == (2, 6, 8, 8)
        assert ops.node_flops(node) == (2 * 2 * 256 * 32 * 4   # restore
                                        + 2 * 256 * 32         # act
                                        + 2 * 2 * 64 * 6 * 32)  # fconv

    def test_fused_block_weight_mismatch(self):
        g, x = _graph_with_input((2, 4, 8, 8))
        with pytest.raises(ValueError, match="w2 in-channels"):
            make_node(g, "fused_block", [x],
                      attrs={"act": "relu"},
                      params={"w1": np.zeros((32, 4), np.float32),
                              "w2": np.zeros((6, 16), np.float32)})

    def test_fused_restore_upsample(self):
        g, x = _graph_with_input((2, 4, 8, 8))
        node = make_node(g, "fused_restore", [x],
                         attrs={"act": "relu", "input_scales": [2]},
                         params={"w1": np.zeros((32, 4), np.float32)})
        assert node.output.shape == (2, 32, 16, 16)
        # an upsample alone is a layer the restore absorbs
        bare = make_node(g, "fused_restore", [x], attrs={"input_scales": [2]},
                         params={"w1": np.zeros((32, 4), np.float32)})
        assert bare.output.shape == (2, 32, 16, 16)

    def test_fused_restore_must_absorb_something(self):
        g, x = _graph_with_input((2, 4, 8, 8))
        for attrs in ({}, {"input_scales": [1]}):
            with pytest.raises(ValueError, match="absorb"):
                make_node(g, "fused_restore", [x], attrs=attrs,
                          params={"w1": np.zeros((32, 4), np.float32)})


class TestPassThroughRuns:
    """A merged lconv's runs widen its output and input by their widths;
    runs that leave the merged matrix, overlap or run backwards are
    refused (a graph loaded from a file is outside input)."""

    def _merged(self, runs, op="conv2d"):
        """24 restored rows from 4 of the input's 10 channels."""
        g, x = _graph_with_input((2, 10, 4, 4))
        attrs, params = {"passthrough": runs}, {}
        if op == "conv2d":
            params["weight"] = np.zeros((24, 4, 1, 1), np.float32)
        else:
            attrs["act"] = "relu"
            params["w1"] = np.zeros((24, 4), np.float32)
        if op == "fused_block":
            params["w2"] = np.zeros((3, 30), np.float32)
        return make_node(g, op, [x], attrs=attrs, params=params)

    @pytest.mark.parametrize("op", ["conv2d", "fused_block", "fused_restore"])
    def test_shapes_and_flops_count_the_runs(self, op):
        node = self._merged([[0, 0, 2], [10, 4, 4]], op=op)
        assert ops.passthrough_runs(node) == ((0, 0, 2), (10, 4, 4))
        assert node.output.shape[1] == (3 if op == "fused_block" else 30)
        restore = 2 * 2 * 16 * 24 * 4  # the restored rows' GEMM only
        if op == "conv2d":
            assert ops.node_flops(node) == restore
        else:
            assert ops.tile_channels(node) == 30
            act = 2 * 16 * 30  # one op per tile element, runs included
            fconv = 2 * 2 * 16 * 3 * 30 if op == "fused_block" else 0
            assert ops.node_flops(node) == restore + act + fconv

    @pytest.mark.parametrize("runs, match", [
        ([[0, 0, 3]], "input channels"),            # widths disagree with x
        ([[0, 0, 6], [4, 6, 0]], "pass-through"),   # overlap and empty
        ([[10, 4, 4], [0, 0, 2]], "out of order"),
        ([[0, 6, 2], [10, 0, 4]], "out of order"),
    ])
    def test_malformed_runs_rejected(self, runs, match):
        with pytest.raises(ValueError, match=match):
            self._merged(runs)

    def test_runs_past_the_matrix_rejected(self):
        g, x = _graph_with_input((2, 10, 4, 4))
        node = make_node(g, "conv2d", [x], attrs={"passthrough": [[0, 0, 6]]},
                         params={"weight": np.zeros((24, 4, 1, 1), np.float32)})
        node.attrs["passthrough"] = [[26, 4, 6]]
        with pytest.raises(ValueError, match="past"):
            ops.validate_node(node)


class TestStructuralPredicates:
    def test_is_lconv_and_fconv(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 8, 4, 4))
        up = b.conv2d(x, 32, 1, name="up")
        down = b.conv2d(up, 4, 1, name="down")
        spatial = b.conv2d(down, 16, 3, padding=1, name="spatial")
        g = b.finish(spatial)
        up_node = g.find_node("up")
        down_node = g.find_node("down")
        spatial_node = g.find_node("spatial")
        assert ops.is_lconv(up_node) and not ops.is_fconv(up_node)
        assert ops.is_fconv(down_node) and not ops.is_lconv(down_node)
        assert not ops.is_lconv(spatial_node)
        assert not ops.is_fconv(spatial_node)

    def test_strided_pointwise_is_not_lconv(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 8, 4, 4))
        strided = b.conv2d(x, 32, 1, stride=2, name="strided")
        g = b.finish(strided)
        assert not ops.is_lconv(g.find_node("strided"))
