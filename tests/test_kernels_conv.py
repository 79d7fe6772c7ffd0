"""Convolution kernels vs a naive loop reference, incl. property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.ops import conv_output_hw
from repro.kernels import conv2d, conv_transpose2d, pad2d, pointwise_conv

from test_kernels_fused import _traced_peak


def naive_conv2d(x, w, b=None, stride=(1, 1), padding=(0, 0), groups=1,
                 dilation=(1, 1)):
    """O(everything) reference convolution."""
    n, c, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    xp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=np.float64)
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    eff_kh, eff_kw = dh * (kh - 1) + 1, dw * (kw - 1) + 1
    oh = (h + 2 * ph - eff_kh) // sh + 1
    ow = (wd + 2 * pw - eff_kw) // sw + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    cpg_in = c // groups
    cpg_out = cout // groups
    for ni in range(n):
        for oc in range(cout):
            g = oc // cpg_out
            for ic in range(cin_g):
                src = g * cpg_in + ic
                for oy in range(oh):
                    for ox in range(ow):
                        patch = xp[ni, src, oy * sh:oy * sh + eff_kh:dh,
                                   ox * sw:ox * sw + eff_kw:dw]
                        out[ni, oc, oy, ox] += (patch * w[oc, ic]).sum()
    if b is not None:
        out += b[None, :, None, None]
    return out


def _tap_loop_conv2d(x, w, b=None, stride=(1, 1), padding=(0, 0), groups=1,
                     dilation=(1, 1)):
    """im2col by one window copy per tap, then ``conv2d``'s batched GEMM:
    the same column buffer and the same GEMMs, so ``conv2d`` must match
    it bit for bit."""
    n, c, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    sh, sw = stride
    dh, dw = dilation
    oh, ow = conv_output_hw(h, wd, (kh, kw), stride, padding, dilation)
    xp = pad2d(x, padding)
    dtype = np.promote_types(x.dtype, w.dtype)
    cols = np.empty((n, c, kh * kw, oh, ow), dtype=dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i * kw + j] = xp[:, :,
                                        i * dh:i * dh + sh * (oh - 1) + 1:sh,
                                        j * dw:j * dw + sw * (ow - 1) + 1:sw]
    depth = cin_g * kh * kw
    out = np.empty((n, cout, oh, ow), dtype=dtype)
    np.matmul(w.reshape(groups, cout // groups, depth),
              cols.reshape(n, groups, depth, oh * ow),
              out=out.reshape(n, groups, cout // groups, oh * ow))
    if b is not None:
        out += b[None, :, None, None]
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestConv2dAgainstReference:
    @pytest.mark.parametrize("stride,padding", [
        ((1, 1), (0, 0)), ((1, 1), (1, 1)), ((2, 2), (1, 1)),
        ((2, 1), (0, 2)), ((3, 3), (2, 2)),
    ])
    def test_dense(self, rng, stride, padding):
        x = rng.normal(size=(2, 5, 9, 8))
        w = rng.normal(size=(7, 5, 3, 3))
        b = rng.normal(size=7)
        got = conv2d(x, w, b, stride=stride, padding=padding)
        want = naive_conv2d(x, w, b, stride=stride, padding=padding)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_pointwise_fast_path(self, rng):
        x = rng.normal(size=(3, 6, 5, 5))
        w = rng.normal(size=(4, 6, 1, 1))
        got = conv2d(x, w, None)
        want = naive_conv2d(x, w, None)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_depthwise(self, rng):
        x = rng.normal(size=(2, 6, 8, 8))
        w = rng.normal(size=(6, 1, 3, 3))
        got = conv2d(x, w, None, padding=(1, 1), groups=6)
        want = naive_conv2d(x, w, None, padding=(1, 1), groups=6)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_grouped(self, rng):
        x = rng.normal(size=(2, 8, 6, 6))
        w = rng.normal(size=(4, 4, 3, 3))  # 2 groups
        got = conv2d(x, w, None, padding=(1, 1), groups=2)
        want = naive_conv2d(x, w, None, padding=(1, 1), groups=2)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_asymmetric_kernel(self, rng):
        x = rng.normal(size=(1, 3, 8, 8))
        w = rng.normal(size=(2, 3, 3, 1))
        got = conv2d(x, w, None, stride=(2, 1), padding=(1, 0))
        want = naive_conv2d(x, w, None, stride=(2, 1), padding=(1, 0))
        np.testing.assert_allclose(got, want, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), c=st.integers(1, 6), cout=st.integers(1, 6),
           hw=st.integers(3, 9), k=st.integers(1, 3), s=st.integers(1, 2),
           p=st.integers(0, 2), seed=st.integers(0, 10_000))
    def test_property_matches_reference(self, n, c, cout, hw, k, s, p, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, hw, hw))
        w = rng.normal(size=(cout, c, k, k))
        got = conv2d(x, w, None, stride=(s, s), padding=(p, p))
        want = naive_conv2d(x, w, None, stride=(s, s), padding=(p, p))
        np.testing.assert_allclose(got, want, atol=1e-9)


#: one row per shape class the spatial path serves:
#: name -> (C_in, H, W), weight shape, stride, padding, groups, dilation
CLASSES = {
    "dense3x3": ((5, 9, 8), (7, 5, 3, 3), (1, 1), (1, 1), 1, (1, 1)),
    "strided": ((4, 9, 9), (6, 4, 3, 3), (2, 2), (1, 1), 1, (1, 1)),
    "dilated": ((4, 11, 11), (4, 4, 3, 3), (1, 1), (2, 2), 1, (2, 2)),
    "dilated+strided": ((3, 12, 11), (5, 3, 3, 3), (2, 1), (3, 0), 1, (3, 2)),
    "grouped": ((6, 8, 8), (4, 3, 3, 3), (1, 1), (1, 1), 2, (1, 1)),
    "depthwise": ((6, 8, 8), (6, 1, 3, 3), (1, 1), (1, 1), 6, (1, 1)),
    "depthwise_x2": ((4, 8, 8), (8, 1, 3, 1), (1, 1), (1, 0), 4, (1, 1)),
    "grouped_1x1_s2": ((6, 8, 8), (6, 2, 1, 1), (2, 2), (0, 0), 3, (1, 1)),
    "1xk": ((6, 8, 9), (6, 6, 1, 5), (1, 2), (0, 2), 1, (1, 1)),
    "kx1": ((6, 9, 8), (5, 6, 5, 1), (2, 1), (2, 0), 1, (1, 1)),
    "5x5/s2": ((3, 11, 11), (4, 3, 5, 5), (2, 2), (2, 2), 1, (1, 1)),
    "7x7/s2/p3": ((3, 12, 12), (4, 3, 7, 7), (2, 2), (3, 3), 1, (1, 1)),
    # stride 1 and output rows as wide as the input's: the flat path
    "same3x3": ((4, 7, 12), (6, 4, 3, 3), (1, 1), (1, 1), 1, (1, 1)),
    # a shift of +-3 columns wraps whole 3-wide rows
    "dilated_same": ((3, 8, 3), (4, 3, 3, 3), (1, 1), (2, 3), 1, (2, 3)),
    "1x3_p01": ((4, 6, 7), (5, 4, 1, 3), (1, 1), (0, 1), 1, (1, 1)),
    "3x1_p10": ((4, 7, 6), (5, 4, 3, 1), (1, 1), (1, 0), 1, (1, 1)),
    "3x1_unpadded": ((4, 7, 6), (5, 4, 3, 1), (1, 1), (0, 0), 1, (1, 1)),
}


def _assert_matches_reference(got, want):
    """<= 1e-10 in float64; in float32 perfbench's `outputs_close` (RTOL
    1e-4 of the reference's magnitude + ATOL 1e-5)."""
    assert got.shape == want.shape and got.flags.c_contiguous
    if got.dtype == np.float64:
        np.testing.assert_allclose(got, want, atol=1e-10)
    else:
        assert np.abs(got - want).max() <= 1e-5 + 1e-4 * np.abs(want).max()


def _case(rng, name, n=2, dtype=np.float64):
    chw, wshape, stride, padding, groups, dilation = CLASSES[name]
    x = rng.normal(size=(n, *chw)).astype(dtype)
    w = rng.normal(size=wshape).astype(dtype)
    b = rng.normal(size=wshape[0]).astype(dtype)
    return x, w, b, dict(stride=stride, padding=padding, groups=groups,
                         dilation=dilation)


#: the spatial path's geometry, layout and dtype draws (see `_drawn_case`)
SPATIAL_DRAWS = dict(
    n=st.integers(1, 2), cg=st.integers(1, 3), og=st.integers(1, 3),
    groups=st.sampled_from([1, 2, "depthwise"]),
    kernel=st.sampled_from([(3, 3), (1, 3), (3, 1), (1, 5), (5, 1), (2, 3),
                            (5, 5), (7, 7), (1, 1)]),
    stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    padding=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    dilation=st.tuples(st.integers(1, 3), st.integers(1, 2)),
    layout=st.sampled_from(["c", "fortran", "sliced"]),
    dtype=st.sampled_from([np.float64, np.float32]),
    bias=st.booleans(), seed=st.integers(0, 10_000))


def _drawn_case(n, cg, og, groups, kernel, stride, padding, dilation,
                layout, dtype, bias, seed):
    rng = np.random.default_rng(seed)
    if groups == "depthwise":  # with channel multiplier ``og``
        groups, cg = cg + 1, 1
    c, cout = groups * cg, groups * og
    kh, kw = kernel
    # the smallest input the dilated kernel fits in, plus a margin
    h = max(1, dilation[0] * (kh - 1) + 1 - 2 * padding[0]) + 3
    wd = max(1, dilation[1] * (kw - 1) + 1 - 2 * padding[1]) + 2
    x = rng.normal(size=(n, c, h, wd)).astype(dtype)
    if layout == "fortran":
        x = np.asfortranarray(x)
    elif layout == "sliced":
        x = np.repeat(x, 2, axis=3)[..., ::2]
    w = rng.normal(size=(cout, cg, kh, kw)).astype(dtype)
    b = rng.normal(size=cout).astype(dtype) if bias else None
    return x, w, b, dict(stride=stride, padding=padding, groups=groups,
                         dilation=dilation)


class TestSpatialPath:
    """The one im2col + batched-GEMM path, class by class."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", sorted(CLASSES))
    def test_matches_reference(self, rng, name, dtype):
        x, w, b, kwargs = _case(rng, name, dtype=dtype)
        got = conv2d(x, w, b, **kwargs)
        assert got.dtype == dtype
        _assert_matches_reference(got, naive_conv2d(x, w, b, **kwargs))

    @pytest.mark.parametrize("name", sorted(CLASSES))
    def test_non_contiguous_input_and_weight(self, rng, name):
        x, w, b, kwargs = _case(rng, name)
        np.testing.assert_array_equal(
            conv2d(np.asfortranarray(x), np.asfortranarray(w), b, **kwargs),
            conv2d(x, w, b, **kwargs))
        wide = rng.normal(size=(x.shape[0], x.shape[1], x.shape[2],
                                2 * x.shape[3]))
        strided = wide[..., ::2]
        np.testing.assert_array_equal(
            conv2d(strided, w, b, **kwargs),
            conv2d(np.ascontiguousarray(strided), w, b, **kwargs))

    @pytest.mark.parametrize("name", sorted(CLASSES))
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_per_sample_independence(self, rng, name, n):
        # ``conv2d(x)[i]`` is bitwise ``conv2d(x[i:i+1])``: the GEMMs run
        # per sample, so a batch neighbour (or zero padding rows the
        # micro-batcher adds) cannot change a sample's answer
        x, w, b, kwargs = _case(rng, name, n=n, dtype=np.float32)
        whole = conv2d(x, w, b, **kwargs)
        for i in range(n):
            alone = conv2d(x[i:i + 1], w, b, **kwargs)
            assert whole[i:i + 1].tobytes() == alone.tobytes(), (name, i)

    @pytest.mark.parametrize("x_dtype,w_dtype", [
        (np.float32, np.float64), (np.float64, np.float32)])
    @pytest.mark.parametrize("name", ["dense3x3", "grouped", "depthwise"])
    def test_result_dtype_is_the_promoted_one(self, rng, name, x_dtype,
                                              w_dtype):
        x, w, _, kwargs = _case(rng, name)
        got = conv2d(x.astype(x_dtype), w.astype(w_dtype), None, **kwargs)
        assert got.dtype == np.float64
        want = naive_conv2d(x.astype(x_dtype), w.astype(w_dtype), None,
                            **kwargs)
        np.testing.assert_allclose(got, want, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(**SPATIAL_DRAWS)
    def test_property_matches_reference(self, **draws):
        x, w, b, kwargs = _drawn_case(**draws)
        got = conv2d(x, w, b, **kwargs)
        assert got.dtype == x.dtype
        _assert_matches_reference(got, naive_conv2d(x, w, b, **kwargs))

    @settings(max_examples=100, deadline=None)
    @given(**SPATIAL_DRAWS,
           pad=st.sampled_from(["drawn", "asymmetric", "over", "same"]),
           extra=st.integers(0, 1), same_dilation=st.integers(1, 3))
    def test_property_bitwise_equals_tap_loop(self, pad, extra,
                                              same_dilation, **draws):
        (kh, kw), (ph, pw) = draws["kernel"], draws["padding"]
        dh, dw = draws["dilation"]
        if pad == "asymmetric":
            draws["padding"] = (ph, ph + 1 + extra)
        elif pad == "over":  # past the dilated kernel's reach
            draws["padding"] = (ph, (kw - 1) * dw + 1 + extra)
        elif pad == "same":
            draws.update(stride=(1, 1), dilation=(dh, same_dilation),
                         padding=(dh * (kh - 1) // 2,
                                  same_dilation * (kw - 1) // 2))
        x, w, b, kwargs = _drawn_case(**draws)
        got = conv2d(x, w, b, **kwargs)
        want = _tap_loop_conv2d(x, w, b, **kwargs)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), kwargs


class TestShapeValidation:
    def test_channel_mismatch_names_both_shapes(self, rng):
        x = rng.normal(size=(1, 5, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        with pytest.raises(ValueError) as err:
            conv2d(x, w, None, padding=(1, 1))
        assert "(1, 5, 6, 6)" in str(err.value)
        assert "(4, 3, 3, 3)" in str(err.value)

    def test_grouped_channel_mismatch(self, rng):
        x = rng.normal(size=(1, 6, 6, 6))
        w = rng.normal(size=(4, 2, 3, 3))  # groups=2 needs C_in == 4
        with pytest.raises(ValueError, match="groups=2"):
            conv2d(x, w, None, padding=(1, 1), groups=2)

    def test_out_channels_not_divisible_by_groups(self, rng):
        x = rng.normal(size=(1, 4, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        with pytest.raises(ValueError, match=r"\(3, 2, 3, 3\)"):
            conv2d(x, w, None, padding=(1, 1), groups=2)

    def test_pointwise_channel_mismatch(self, rng):
        # checked before the 1x1 dispatch, not left to tensordot
        with pytest.raises(ValueError, match="groups=1"):
            conv2d(rng.normal(size=(1, 5, 4, 4)),
                   rng.normal(size=(2, 3, 1, 1)))

    def test_window_larger_than_padded_input(self, rng):
        with pytest.raises(ValueError, match="does not fit"):
            conv2d(rng.normal(size=(1, 2, 4, 4)),
                   rng.normal(size=(2, 2, 3, 3)), dilation=(2, 2))


class TestScratchMeasured:
    """Beyond the array it returns, ``conv2d`` holds one copy of the input
    — the ``pad2d`` copy, or on the flat path the vertically padded planes
    with their ``pw`` margins, which is never larger — and one column
    buffer; an unpadded C-contiguous input is not copied at all.  There is
    no output-sized temporary (the bias lands in place, the GEMM writes
    NCHW directly), so the transient does not grow with ``C_out``."""

    N, C, HW = 2, 8, 48
    #: NumPy's fixed-size ufunc buffer for the broadcast bias add + views
    SLACK = 72 * 1024

    #: name -> kernel, stride, padding, groups, dilation
    GEOMETRIES = {
        "dense3x3": ((3, 3), (1, 1), (1, 1), 1, (1, 1)),
        "dilated": ((3, 3), (1, 1), (4, 4), 1, (4, 4)),
        "5x5/s2": ((5, 5), (2, 2), (2, 2), 1, (1, 1)),
        "grouped": ((3, 3), (1, 1), (1, 1), 2, (1, 1)),
        "depthwise": ((3, 1), (1, 1), (1, 0), 8, (1, 1)),
        "same1x3": ((1, 3), (1, 1), (0, 1), 1, (1, 1)),
        "dilated_same": ((3, 3), (1, 1), (2, 3), 1, (2, 3)),
    }

    def _transient(self, rng, cout, name):
        (kh, kw), stride, padding, groups, dilation = self.GEOMETRIES[name]
        x = rng.normal(size=(self.N, self.C, self.HW, self.HW)).astype(
            np.float32)
        w = rng.normal(size=(cout, self.C // groups, kh, kw)).astype(
            np.float32)
        b = rng.normal(size=cout).astype(np.float32)
        out, peak = _traced_peak(lambda: conv2d(
            x, w, b, stride=stride, padding=padding, groups=groups,
            dilation=dilation))
        padded = pad2d(x, padding).nbytes
        cols = self.N * self.C * kh * kw * out.shape[2] * out.shape[3] * 4
        return peak - out.nbytes, padded + cols

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_transient_bounded_and_independent_of_cout(self, rng, name):
        narrow, bound = self._transient(rng, 8, name)
        wide, _ = self._transient(rng, 64, name)
        assert abs(wide - narrow) <= self.SLACK, (narrow, wide)
        assert wide <= bound + self.SLACK, (name, wide, bound)

    @pytest.mark.parametrize("kh,kw", [(3, 3), (3, 1)], ids=["3x3", "3x1"])
    def test_unpadded_input_is_not_copied(self, rng, kh, kw):
        x = rng.normal(size=(self.N, self.C, self.HW, self.HW)).astype(
            np.float32)
        w = rng.normal(size=(8, self.C, kh, kw)).astype(np.float32)
        out, peak = _traced_peak(lambda: conv2d(x, w, None))
        cols = self.N * self.C * kh * kw * out.shape[2] * out.shape[3] * 4
        assert peak - out.nbytes <= cols + self.SLACK


class TestPad2d:
    def test_zero_padding_is_identity(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        assert pad2d(x, (0, 0)) is x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    @pytest.mark.parametrize("value", [0, -7])
    def test_matches_np_pad(self, rng, dtype, value):
        x = (rng.normal(size=(2, 3, 4, 5)) * 10).astype(dtype)
        got = pad2d(x[..., ::-1], (2, 1), value=value)
        want = np.pad(x[..., ::-1], ((0, 0), (0, 0), (2, 2), (1, 1)),
                      constant_values=value)
        assert got.dtype == dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

    def test_negative_infinity_fill(self, rng):
        # what `train.gradients`' max-pool backward pads with
        x = rng.normal(size=(1, 1, 2, 2)).astype(np.float32)
        got = pad2d(x, 1, value=-np.inf)
        assert got.shape == (1, 1, 4, 4)
        assert np.isneginf(got[0, 0, 0]).all() and np.isneginf(got[0, 0, :, 3]).all()
        np.testing.assert_array_equal(got[:, :, 1:3, 1:3], x)


class TestPointwiseConv:
    def test_equals_matmul_per_pixel(self, rng):
        x = rng.normal(size=(2, 5, 4, 4))
        w2d = rng.normal(size=(3, 5))
        got = pointwise_conv(x, w2d)
        want = np.einsum("oc,nchw->nohw", w2d, x)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_bias(self, rng):
        x = rng.normal(size=(1, 2, 2, 2))
        w2d = rng.normal(size=(2, 2))
        b = np.array([10.0, -10.0])
        got = pointwise_conv(x, w2d, b)
        np.testing.assert_allclose(got - pointwise_conv(x, w2d),
                                   b[None, :, None, None] * np.ones_like(got))


class TestConvTranspose:
    def test_inverts_spatial_downsampling_shape(self, rng):
        x = rng.normal(size=(2, 6, 5, 5))
        w = rng.normal(size=(6, 4, 2, 2))
        out = conv_transpose2d(x, w, stride=(2, 2))
        assert out.shape == (2, 4, 10, 10)

    @pytest.mark.parametrize("stride,padding,output_padding", [
        ((2, 2), (0, 0), (0, 0)), ((2, 2), (1, 1), (1, 1)),
        ((3, 2), (1, 0), (2, 1)), ((1, 1), (1, 1), (0, 0)),
    ])
    def test_matches_scatter_reference(self, rng, stride, padding,
                                       output_padding):
        # each input pixel scatters its kernel-weighted copy into the output
        x = rng.normal(size=(2, 3, 4, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=2)
        (sh, sw), (ph, pw), (oph, opw) = stride, padding, output_padding
        full = np.zeros((2, 2, (4 - 1) * sh + 3 + oph, (5 - 1) * sw + 3 + opw))
        for i in range(4):
            for j in range(5):
                full[:, :, i * sh:i * sh + 3, j * sw:j * sw + 3] += np.einsum(
                    "nc,cokl->nokl", x[:, :, i, j], w)
        want = full[:, :, ph:full.shape[2] - ph, pw:full.shape[3] - pw] \
            + b[None, :, None, None]
        got = conv_transpose2d(x, w, b, stride=stride, padding=padding,
                               output_padding=output_padding)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_stride1_equals_full_correlation(self, rng):
        # stride-1 transpose conv == conv with flipped kernel, full padding
        x = rng.normal(size=(1, 3, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        got = conv_transpose2d(x, w)
        flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        want = naive_conv2d(x, flipped, padding=(2, 2))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_adjointness(self, rng):
        # <conv(x), y> == <x, conv_transpose(y)> — the defining property.
        # Stride-1 same-padding keeps the shapes aligned exactly.
        x = rng.normal(size=(1, 3, 8, 8))
        y = rng.normal(size=(1, 5, 8, 8))
        w = rng.normal(size=(5, 3, 3, 3))
        fwd = conv2d(x, w, None, stride=(1, 1), padding=(1, 1))
        # conv_transpose weight layout: (Cin of adjoint input = 5, Cout = 3)
        back = conv_transpose2d(y, w, None, stride=(1, 1), padding=(1, 1))
        lhs = float((fwd * y).sum())
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_channel_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 3, 4, 4))
        w = rng.normal(size=(5, 2, 2, 2))
        with pytest.raises(ValueError, match="in-channels"):
            conv_transpose2d(x, w)
