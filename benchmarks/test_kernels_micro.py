"""Kernel micro-benchmarks (pytest-benchmark proper timing).

Times the individual compute kernels that every experiment is built
from, at shapes representative of the zoo, including the central
comparison: separate lconv/act/fconv layers vs the fused tiled kernel
(the source of Figure 11's overhead).

Every kernel is bound before the clock starts, as a session binds it
(:func:`repro.kernels.bind`): what is timed is the per-call work, not
the one-off set-up such as packing ``[w1 | b1]``.
"""

import numpy as np
import pytest

from repro.kernels import (bind_conv2d, bind_fused, bind_pool2d,
                           get_activation, relu)

RNG = np.random.default_rng(0)


def _data(shape):
    return RNG.normal(size=shape).astype(np.float32)


def _conv(x, w, b=None, stride=(1, 1), padding=(0, 0), groups=1,
          dilation=(1, 1)):
    return bind_conv2d(x.shape, w, b, stride, padding, groups, dilation)


def _pointwise(x, w2d, b=None):
    return bind_conv2d(x.shape, w2d[:, :, None, None], b)


def _merged_w1(layers, growth=16, rank=2):
    """A DenseNet merged lconv's restored blocks: ``layers`` restore
    chains of ``rank -> growth`` channels, block-diagonal."""
    w1 = np.zeros((layers * growth, layers * rank), dtype=np.float32)
    for j in range(layers):
        w1[j * growth:(j + 1) * growth, j * rank:(j + 1) * rank] = _data(
            (growth, rank))
    return w1


class TestConvKernels:
    def test_conv3x3_64ch(self, benchmark):
        x = _data((4, 64, 32, 32))
        w = _data((64, 64, 3, 3))
        benchmark(_conv(x, w, None, (1, 1), (1, 1)), x)

    def test_conv3x3_strided(self, benchmark):
        x = _data((4, 64, 32, 32))
        w = _data((128, 64, 3, 3))
        benchmark(_conv(x, w, None, (2, 2), (1, 1)), x)

    def test_pointwise_256to26(self, benchmark):
        # the fconv of a ratio-0.1 decomposed 256-channel conv
        x = _data((4, 256, 16, 16))
        w = _data((26, 256))
        benchmark(_pointwise(x, w), x)

    def test_depthwise(self, benchmark):
        x = _data((4, 64, 32, 32))
        w = _data((64, 1, 3, 3))
        benchmark(_conv(x, w, None, (1, 1), (1, 1), 64), x)

    def test_maxpool(self, benchmark):
        x = _data((4, 64, 32, 32))
        benchmark(bind_pool2d("max", x.shape, (2, 2)), x)


class TestFusedVsSeparate:
    """The Figure-11 story at kernel granularity."""

    C_IN, C_PRIME, C_OUT, HW = 26, 256, 26, 16

    def _weights(self):
        return (_data((self.C_PRIME, self.C_IN)), _data(self.C_PRIME),
                _data((self.C_OUT, self.C_PRIME)), _data(self.C_OUT))

    def test_separate_layers(self, benchmark):
        x = _data((4, self.C_IN, self.HW, self.HW))
        w1, b1, w2, b2 = self._weights()
        relu = get_activation("relu")
        lconv = _pointwise(x, w1, b1)
        fconv = _pointwise(_data((4, self.C_PRIME, self.HW, self.HW)), w2, b2)

        def run():
            return fconv(relu(lconv(x)))

        benchmark(run)

    @pytest.mark.parametrize("block", [8, 32, 256])
    def test_fused_kernel(self, benchmark, block):
        x = _data((4, self.C_IN, self.HW, self.HW))
        w1, b1, w2, b2 = self._weights()
        benchmark(bind_fused(x.shape, w1, b1, w2, b2, "relu", None, 0, block),
                  x)


MAXPOOL_3S2P1 = {"kind": "max", "kernel": (3, 3), "stride": (2, 2),
                 "padding": (1, 1)}
MAXPOOL_2 = {"kind": "max", "kernel": (2, 2), "stride": (2, 2),
             "padding": (0, 0)}


@pytest.mark.parametrize("batch", [4, 32])
class TestHotSites:
    """The fused / pool / core-conv call sites that carry perfbench's
    `graph_b4` and `graph_b32` (shapes read off the traced zoo at rank
    ratio 0.1, hw 32), so a kernel-layer regression shows without a 30 s
    perfbench run."""

    def test_fused_restore_fractalnet(self, benchmark, batch):
        # (N,2,32,32) -> 16 channels + relu: 6 calls per fractalnet run,
        # the terms of the join that feeds the head; every other join is
        # summed inside the fused block below
        x, w1, b1 = _data((batch, 2, 32, 32)), _data((16, 2)), _data(16)
        benchmark(bind_fused(x.shape, w1, b1, None, None, "relu", None, 0,
                             16), x)

    @pytest.mark.parametrize("k", [2, 4])
    def test_fused_block_fractalnet_join(self, benchmark, batch, k):
        # a sum of k activated restores feeding a 1x1 conv, merged:
        # (N,2k,32,32) -> block-diagonal 16k -> 2, the 1x1 weight
        # repeated k times; 16 / 8 calls per fractalnet run at k = 2 / 4
        x = _data((batch, 2 * k, 32, 32))
        w1, b1 = _merged_w1(k), _data(16 * k)
        w2 = np.concatenate([_data((2, 16))] * k, axis=1)
        benchmark(bind_fused(x.shape, w1, b1, w2, _data(2), "relu", None, 0,
                             32), x)

    def test_fused_block_pooled_alexnet(self, benchmark, batch):
        # (N,19,8,8) -> 192 -> 19 around a 3x3/s2/p1 max pool
        x = _data((batch, 19, 8, 8))
        w1, b1 = _data((192, 19)), _data(192)
        w2, b2 = _data((19, 192)), _data(19)
        benchmark(bind_fused(x.shape, w1, b1, w2, b2, "relu", MAXPOOL_3S2P1),
                  x)

    def test_fused_restore_pooled_densenet(self, benchmark, batch):
        # the stem's restore epilogue: (N,3,16,16) -> 32 + relu, then a
        # 3x3/s2/p1 max pool
        x, w1, b1 = _data((batch, 3, 16, 16)), _data((32, 3)), _data(32)
        benchmark(bind_fused(x.shape, w1, b1, None, None, "relu",
                             MAXPOOL_3S2P1), x)

    def test_fused_block_pooled_unet(self, benchmark, batch):
        # (N,2,32,32) -> 16 -> 2 around an encoder's 2x2/s2 max pool
        x = _data((batch, 2, 32, 32))
        w1, b1 = _data((16, 2)), _data(16)
        w2, b2 = _data((2, 16)), _data(2)
        benchmark(bind_fused(x.shape, w1, b1, w2, b2, "relu", MAXPOOL_2), x)

    def test_fused_block_densenet(self, benchmark, batch):
        # concat_66: (N,64,4,4) -> 176 -> 88 in one block, tiny tiles,
        # dispatch-bound; 48 pass-through rows, 128 restored from 16
        x = _data((batch, 64, 4, 4))
        w1, b1 = _merged_w1(8), _data(128)
        w2, b2 = _data((88, 176)), _data(88)
        benchmark(bind_fused(x.shape, w1, b1, w2, b2, "relu", None, 0, 176,
                             passthrough=[(0, 0, 48)]), x)

    def test_fused_block_densenet_hottest(self, benchmark, batch):
        # concat_18, the hottest merged site at batch 32: (N,38,8,8) -> 80
        # -> 64 in blocks of 32; 32 pass-through rows, 48 restored from 6
        x = _data((batch, 38, 8, 8))
        w1, b1 = _merged_w1(3), _data(48)
        w2, b2 = _data((64, 80)), _data(64)
        benchmark(bind_fused(x.shape, w1, b1, w2, b2, "relu", None, 0, 32,
                             passthrough=[(0, 0, 32)]), x)

    def test_fused_block_unet_wide(self, benchmark, batch):
        # (N,5,32,32) -> 48 -> 4 in blocks of 32: unet_small/cp's widest
        # tile, 4 MiB at batch 32, which runs in sample groups
        x = _data((batch, 5, 32, 32))
        w1, b1 = _data((48, 5)), _data(48)
        w2, b2 = _data((4, 48)), _data(4)
        benchmark(bind_fused(x.shape, w1, b1, w2, b2, "relu", None, 0, 32),
                  x)

    def test_relu_standalone(self, benchmark, batch):
        # the decomposed graphs' relu after a restored (N,16,32,32): the
        # array-operand SIMD path, allocation of the result included
        x = _data((batch, 16, 32, 32))
        benchmark(relu, x)

    def test_maxpool_overlapping_padded(self, benchmark, batch):
        x = _data((batch, 64, 16, 16))
        benchmark(bind_pool2d("max", x.shape, (3, 3), (2, 2), (1, 1)), x)

    def test_conv_core_fractalnet(self, benchmark, batch):
        # 2 -> 2 channels, 3x3 @ 32x32: 63 calls per fractalnet run
        x, w, b = _data((batch, 2, 32, 32)), _data((2, 2, 3, 3)), _data(2)
        benchmark(_conv(x, w, b, (1, 1), (1, 1)), x)

    def test_conv_core_unet(self, benchmark, batch):
        # the widest decoder core: 19 -> 6 channels, 3x3 @ 8x8
        x, w, b = _data((batch, 19, 8, 8)), _data((6, 19, 3, 3)), _data(6)
        benchmark(_conv(x, w, b, (1, 1), (1, 1)), x)

    def test_conv_core_densenet_tiny(self, benchmark, batch):
        # 6 -> 2 channels, 3x3 @ 4x4: 8 of densenet's 18 6 -> 2 cores
        # (the rest run at 2x2 and 8x8), dispatch-bound
        x, w, b = _data((batch, 6, 4, 4)), _data((2, 6, 3, 3)), _data(2)
        benchmark(_conv(x, w, b, (1, 1), (1, 1)), x)

    def test_conv_alexnet_5x5(self, benchmark, batch):
        # alexnet's second core: 6 -> 19 channels, 5x5 @ 8x8
        x, w, b = _data((batch, 6, 8, 8)), _data((19, 6, 5, 5)), _data(19)
        benchmark(_conv(x, w, b, (1, 1), (2, 2)), x)

    def test_conv_dilated_wavenet2d(self, benchmark, batch):
        # 24 -> 24, 3x3 dilation 8, 'same' padding 8 @ 32x32: 2 calls per
        # run
        x, w, b = _data((batch, 24, 32, 32)), _data((24, 24, 3, 3)), _data(24)
        benchmark(_conv(x, w, b, (1, 1), (8, 8), 1, (8, 8)), x)

    def test_conv_stem_densenet(self, benchmark, batch):
        # Tucker core of the 7x7/s2/p3 stem: 1 -> 3, 49 taps of 16x16
        x, w = _data((batch, 1, 32, 32)), _data((3, 1, 7, 7))
        benchmark(_conv(x, w, None, (2, 2), (3, 3)), x)

    def test_conv_cp_depthwise(self, benchmark, batch):
        # CP's vertical spatial factor: one 3x1 filter per rank channel
        x, w = _data((batch, 4, 32, 32)), _data((4, 1, 3, 1))
        benchmark(_conv(x, w, None, (1, 1), (1, 0), 4), x)

    def test_conv_tt_horizontal(self, benchmark, batch):
        # TT's 1x5 core carrying the alexnet stem's horizontal stride
        x, w = _data((batch, 4, 16, 32)), _data((6, 4, 1, 5))
        benchmark(_conv(x, w, None, (1, 2), (0, 2)), x)
