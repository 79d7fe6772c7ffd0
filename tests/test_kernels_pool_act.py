"""Pooling, activation, linear and batchnorm kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _pool_geometry import pool_geometry
from repro.ir import GraphBuilder
from repro.ir.ops import ACTIVATION_OPS
from repro.kernels import activation as activation_module
from repro.kernels import (avgpool2d, batchnorm2d, bind_pool2d,
                           get_activation, global_avgpool, linear, maxpool2d,
                           pad2d, relu, run_node, sigmoid, silu, softmax,
                           sliding_windows, tanh, upsample_nearest)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestPooling:
    def test_maxpool_basic(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = maxpool2d(x, (2, 2))
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_padding_uses_neg_inf(self):
        x = -np.ones((1, 1, 2, 2), dtype=np.float32)
        out = maxpool2d(x, (2, 2), stride=(2, 2), padding=(1, 1))
        # padded corners must pick the real -1 values, not 0
        assert (out == -1).all()

    def test_avgpool_includes_padding(self):
        x = np.full((1, 1, 2, 2), 4.0, dtype=np.float32)
        out = avgpool2d(x, (2, 2), stride=(2, 2), padding=(1, 1))
        # each window has one real cell (4.0) and three zero pad cells
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_allclose(out, 1.0)

    def test_maxpool_overlapping_windows(self, rng):
        x = rng.normal(size=(2, 3, 7, 7)).astype(np.float32)
        out = maxpool2d(x, (3, 3), stride=(2, 2), padding=(1, 1))
        assert out.shape == (2, 3, 4, 4)
        # reference: explicit loop
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)),
                    constant_values=np.finfo(np.float32).min)
        for oy in range(4):
            for ox in range(4):
                ref = xp[:, :, 2 * oy:2 * oy + 3, 2 * ox:2 * ox + 3].max(axis=(2, 3))
                np.testing.assert_array_equal(out[:, :, oy, ox], ref)

    #: (kernel, stride, padding): overlapping + padded, non-square kernel
    #: and stride, stride > kernel, 1x1, and a window as large as the input
    GEOMETRIES = [((3, 3), (2, 2), (1, 1)), ((3, 2), (2, 1), (1, 0)),
                  ((2, 3), (1, 2), (0, 2)), ((2, 2), (3, 3), (0, 0)),
                  ((1, 1), (1, 1), (0, 0)), ((9, 11), (1, 1), (0, 0)),
                  ((2, 2), (2, 2), (0, 0))]

    @staticmethod
    def _windows(x, kernel, stride, padding, fill):
        """The 6-D window view the kernels reduced before the tap loop."""
        return sliding_windows(pad2d(x, padding, value=fill), kernel, stride)

    @staticmethod
    def _padded_tap_sum(x, kernel, stride, padding):
        """The window sums of the tap loop over a zero-padded copy that the
        clipped taps replaced: rows then columns, taps in window order."""
        x = pad2d(x, padding)
        for axis, k, s in zip((2, 3), kernel, stride):
            size = (x.shape[axis] - k) // s + 1
            taps = [np.take(x, range(i, i + s * size, s), axis=axis)
                    for i in range(k)]
            x = taps[0]
            for tap in taps[1:]:
                x = x + tap
        return x

    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_maxpool_equals_windowed_reference(self, rng, kernel, stride,
                                               padding, dtype):
        x = (rng.normal(size=(2, 3, 9, 11)) * 100).astype(dtype)
        x[0, 0, :4, :4] = 0  # ties
        lowest = (np.finfo(dtype).min if np.issubdtype(dtype, np.floating)
                  else np.iinfo(dtype).min)
        want = self._windows(x, kernel, stride, padding, lowest).max(axis=(4, 5))
        got = maxpool2d(x, kernel, stride, padding)
        assert got.dtype == dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_avgpool_matches_windowed_reference(self, rng, kernel, stride,
                                                padding, dtype):
        # the taps are summed rows first, then columns, not in window
        # order: equal to a few ulps, far inside the equivalence
        # checker's 1e-5 + 1e-4 * max|reference|
        x = rng.normal(size=(2, 3, 9, 11)).astype(dtype)
        want = self._windows(x, kernel, stride, padding, 0.0).mean(
            axis=(4, 5), dtype=dtype)
        got = avgpool2d(x, kernel, stride, padding)
        assert got.dtype == dtype and got.flags.c_contiguous
        eps = np.finfo(dtype).eps
        np.testing.assert_allclose(got, want, rtol=8 * eps, atol=8 * eps)

    @settings(max_examples=100, deadline=None)
    @given(geometry=pool_geometry(), seed=st.integers(0, 10_000),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_pinned_over_the_window_sweep(self, geometry, seed, dtype):
        # the clipped taps against the padded 6-D window view; the
        # channels-last kernel (the fused tiles') against the NCHW one
        pool, hw = geometry
        kernel, stride, padding = (pool["kernel"], pool["stride"],
                                   pool["padding"])
        x = np.random.default_rng(seed).normal(size=(2, 3) + hw).astype(dtype)
        got = maxpool2d(x, kernel, stride, padding)
        want = self._windows(x, kernel, stride, padding, -np.inf).max(
            axis=(4, 5))
        assert got.tobytes() == want.tobytes()
        mean = avgpool2d(x, kernel, stride, padding)
        want = self._windows(x, kernel, stride, padding, 0.0).mean(
            axis=(4, 5))
        np.testing.assert_allclose(mean, want, rtol=1e-6,
                                   atol=1e-6 * np.abs(want).max())
        # the same sums in the same order as over a padded copy
        np.testing.assert_array_equal(
            mean, self._padded_tap_sum(x, kernel, stride, padding)
            / (kernel[0] * kernel[1]))
        nhwc = x.transpose(0, 2, 3, 1)
        for kind, nchw in (("max", got), ("avg", mean)):
            last = bind_pool2d(kind, nhwc.shape, kernel, stride, padding,
                               channels_last=True)
            assert last(nhwc).transpose(0, 3, 1, 2).tobytes() == nchw.tobytes()
            # into a strided destination, as a fused restore writes its
            # pooled block straight into its slice of the NCHW output
            out = np.empty(nchw.shape, dtype)
            last(nhwc, out=out.transpose(0, 2, 3, 1))
            assert out.tobytes() == nchw.tobytes()

    def test_avgpool_integer_dtype_truncates_like_mean(self):
        x = np.arange(2 * 16, dtype=np.int32).reshape(1, 2, 4, 4)
        want = self._windows(x, (2, 2), (2, 2), 0, 0).mean(
            axis=(4, 5), dtype=np.int32)
        np.testing.assert_array_equal(avgpool2d(x, (2, 2)), want)

    @pytest.mark.parametrize("pool", [maxpool2d, avgpool2d])
    def test_window_that_does_not_fit_raises(self, pool):
        x = np.zeros((1, 1, 2, 5), dtype=np.float32)
        with pytest.raises(ValueError, match="does not fit"):
            pool(x, (3, 3))
        assert pool(x, (3, 3), padding=(1, 0)).shape == (1, 1, 1, 1)

    def test_pool_result_never_aliases_its_input(self, rng):
        x = rng.normal(size=(1, 2, 3, 3)).astype(np.float32)
        for pool in (maxpool2d, avgpool2d):
            out = pool(x, (1, 1))
            assert not np.shares_memory(out, x)
            np.testing.assert_array_equal(out, x)

    def test_global_avgpool(self, rng):
        x = rng.normal(size=(2, 5, 3, 3))
        out = global_avgpool(x)
        assert out.shape == (2, 5, 1, 1)
        np.testing.assert_allclose(out[:, :, 0, 0], x.mean(axis=(2, 3)))

    def test_upsample_nearest(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out = upsample_nearest(x, 2)
        np.testing.assert_array_equal(
            out[0, 0], [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])

    def test_upsample_scale_one_is_identity(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        assert upsample_nearest(x, 1) is x


def _f32_bits(*patterns):
    return np.array(patterns, dtype=np.uint32).view(np.float32)


#: quiet NaNs of both signs (payloads kept apart), signed zeros and
#: infinities, the largest finite magnitudes, denormals
SPECIALS = np.concatenate([
    _f32_bits(0x7FC00001, 0xFFC00002),
    np.array([0.0, -0.0, np.inf, -np.inf, 3e38, -3e38, 1e-45, -1e-45, 1.0,
              -1.0], dtype=np.float32)])

#: name -> view of a ``(3, 40, 6, 8)`` array; with the slab threshold
#: lowered to 1 every one of them reaches the path its shape selects
RELU_VIEWS = {
    "whole": lambda a: a,
    "channel_slice": lambda a: a[:, 3:7],
    "one_sample": lambda a: a[1:2],
    "spatial_slice": lambda a: a[..., ::2],
    "batch_strided": lambda a: a[::2],
    "transposed": lambda a: a.T,
    "flat": lambda a: a.reshape(-1),
    "flat_strided": lambda a: a.reshape(-1)[::3],
    "scalar": lambda a: a[0, 0, 0, 0],
    "empty": lambda a: a[:0],
}


class TestReluBitwise:
    """`relu` is `np.maximum(x, 0)` bit for bit on every layout, whichever
    of its two loops (zeros-row SIMD, scalar operand) the view selects."""

    @pytest.fixture(params=[1, None], ids=["every_size", "default_cutoff"])
    def simd_min(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(activation_module, "_SIMD_MIN", request.param)

    @staticmethod
    def _data(rng, dtype):
        a = rng.normal(size=(3, 40, 6, 8)).astype(dtype)
        with np.errstate(over="ignore"):  # 3e38 is inf in float16
            a.reshape(-1)[:SPECIALS.size] = SPECIALS.astype(dtype)
        rng.shuffle(a.reshape(-1))
        return a

    @pytest.mark.usefixtures("simd_min")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.float16])
    @pytest.mark.parametrize("view", sorted(RELU_VIEWS))
    def test_equals_maximum_on_every_layout(self, rng, view, dtype):
        x = RELU_VIEWS[view](self._data(rng, dtype))
        want = np.maximum(x, 0)
        got = relu(x)
        assert np.shape(got) == np.shape(want) and got.dtype == want.dtype
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        if np.ndim(x) == 0:
            return
        other = np.full(x.shape, 7, dtype=dtype)
        assert relu(x, out=other) is other
        assert other.tobytes() == want.tobytes()
        own = self._data(rng, dtype)  # in place through the same view
        kept = own.copy()
        target = RELU_VIEWS[view](own)
        want_own = np.maximum(target, 0)
        assert relu(target, out=target) is target
        assert target.tobytes() == want_own.tobytes()
        untouched = np.ones(own.shape, dtype=bool)
        RELU_VIEWS[view](untouched)[...] = False
        assert own[untouched].tobytes() == kept[untouched].tobytes()

    def test_a_slab_longer_than_the_zeros_row(self, rng, monkeypatch):
        monkeypatch.setattr(activation_module, "_ZEROS_ROW", 100)
        monkeypatch.setattr(activation_module, "_zeros", {})
        x = self._data(rng, np.float32)[:, 3:7]  # 192-element slabs
        want = np.maximum(x, 0)
        assert relu(x).tobytes() == want.tobytes()
        assert relu(x, out=x).tobytes() == want.tobytes()

    def test_mismatched_out_and_other_dtypes_take_numpy_semantics(self, rng):
        x = self._data(rng, np.float32)
        wide = np.empty(x.shape, dtype=np.float64)
        assert relu(x, out=wide) is wide
        assert wide.tobytes() == np.maximum(x, 0).astype(np.float64).tobytes()
        ints = rng.integers(-5, 5, size=(4, 2048), dtype=np.int32)
        assert relu(ints).dtype == np.int32
        np.testing.assert_array_equal(relu(ints), np.maximum(ints, 0))
        np.testing.assert_array_equal(relu([-1.0, 2.0]), [0.0, 2.0])

    def test_one_implementation_serves_op_and_fused_kernels(self):
        assert get_activation("relu") is relu


class TestActivations:
    def test_relu(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(relu(x), [0, 0, 3])

    def test_sigmoid_range_and_symmetry(self, rng):
        x = rng.normal(scale=10, size=1000)
        s = sigmoid(x)
        assert ((s > 0) & (s < 1)).all()
        np.testing.assert_allclose(sigmoid(-x), 1 - s, atol=1e-12)

    def test_sigmoid_extreme_values_stable(self):
        x = np.array([-1000.0, 1000.0])
        s = sigmoid(x)
        assert np.isfinite(s).all()
        np.testing.assert_allclose(s, [0.0, 1.0], atol=1e-12)

    def test_silu_definition(self, rng):
        x = rng.normal(size=100)
        np.testing.assert_allclose(silu(x), x * sigmoid(x), atol=1e-12)

    def test_tanh(self, rng):
        x = rng.normal(size=50)
        np.testing.assert_allclose(tanh(x), np.tanh(x))

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(scale=50, size=(4, 10))
        s = softmax(x, axis=1)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        assert np.isfinite(s).all()

    @pytest.mark.parametrize("name,params", [
        ("relu", {}), ("silu", {}), ("sigmoid", {}), ("tanh", {}),
        ("leaky_relu", {"negative_slope": 0.2}), ("elu", {"alpha": 0.5}),
        ("hardswish", {}), ("gelu", {})])
    def test_out_form_is_bitwise_the_pure_form(self, rng, name, params):
        # what the fused kernels run on their tile: out= another array,
        # out= the input itself, and out= a strided view of a larger one
        fn = get_activation(name, **params)
        x = rng.normal(scale=3, size=(2, 6, 3, 3)).astype(np.float32)
        kept = x.copy()
        want = fn(x)
        other = np.empty_like(x)
        assert fn(x, out=other) is other
        assert other.tobytes() == want.tobytes()
        np.testing.assert_array_equal(x, kept)  # the pure forms stay pure
        tile = np.empty((2, 8, 3, 3), dtype=np.float32)[:, :6]
        tile[...] = x
        assert fn(tile, out=tile) is tile
        assert tile.tobytes() == want.tobytes()

    def test_get_activation_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown activation"):
            get_activation("mish")

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_activations_elementwise(self, seed):
        # applying to a tensor == applying to each element (tiling safety,
        # the property activation layer fusion relies on)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 4, 3, 3))
        for name in ("relu", "silu", "sigmoid", "tanh"):
            fn = get_activation(name)
            whole = fn(x)
            parts = np.concatenate([fn(x[:, i:i + 1]) for i in range(4)], axis=1)
            np.testing.assert_allclose(whole, parts, atol=1e-12)


class TestLinearBatchnorm:
    def test_linear(self, rng):
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(2, 5))
        b = rng.normal(size=2)
        np.testing.assert_allclose(linear(x, w, b), x @ w.T + b)

    def test_batchnorm_identity_stats(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = batchnorm2d(x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3),
                          eps=0.0)
        np.testing.assert_allclose(out, x)

    def test_batchnorm_normalizes(self, rng):
        x = rng.normal(loc=5.0, scale=2.0, size=(1, 1, 100, 100))
        mean = np.array([5.0])
        var = np.array([4.0])
        out = batchnorm2d(x, np.ones(1), np.zeros(1), mean, var, eps=0.0)
        assert abs(out.mean()) < 0.1
        assert abs(out.std() - 1.0) < 0.1


def _one_node_graphs():
    """name -> builder of a one-node graph of that op at batch ``n``."""
    def unary(op, shape=(5, 6, 6), **kwargs):
        def build(n):
            b = GraphBuilder(op, seed=3)
            x = b.input("x", (n,) + shape)
            return b.finish(getattr(b, op)(x, **kwargs))
        return build

    def binary(op):
        def build(n):
            b = GraphBuilder(op, seed=3)
            x, y = b.input("x", (n, 5, 6, 6)), b.input("y", (n, 5, 6, 6))
            return b.finish(getattr(b, op)(x, y))
        return build

    def batchnorm(n):
        b = GraphBuilder("batchnorm2d", seed=3)
        x = b.input("x", (n, 5, 6, 6))
        stats = [b.rng.uniform(0.5, 2.0, size=5) for _ in range(4)]
        return b.finish(b.batchnorm2d(x, *stats))

    cases = {op: unary(op) for op in ACTIVATION_OPS}
    cases.update({
        "softmax": unary("softmax"),
        "softmax_2d": unary("softmax", shape=(11,)),
        "global_avgpool": unary("global_avgpool"),
        "flatten": unary("flatten"),
        "upsample_nearest": unary("upsample_nearest", scale=2),
        "maxpool2d": unary("maxpool2d", kernel=3, stride=2, padding=1),
        "avgpool2d": unary("avgpool2d", kernel=2),
        "batchnorm2d": batchnorm,
        "add": binary("add"), "concat": binary("concat"),
    })
    return cases


class TestBatchSizeIndependence:
    """``op(x)[i:i+1]`` is bitwise ``op(x[i:i+1])`` for every op that is
    not a GEMM: a batch bucket of any size answers what the static batch
    does (the serving probe re-checks the GEMM-backed ops per shape)."""

    CASES = _one_node_graphs()

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_a_sample_alone_equals_the_sample_in_a_batch(self, rng, name, n):
        graph = self.CASES[name](n)
        (whole_node,), (alone_node,) = graph.nodes, graph.with_batch(1).nodes
        xs = [rng.normal(size=v.shape).astype(np.float32)
              for v in graph.inputs]
        whole = run_node(whole_node, xs)
        for i in range(n):
            alone = run_node(alone_node, [x[i:i + 1] for x in xs])
            assert whole[i:i + 1].tobytes() == alone.tobytes(), (name, i)
