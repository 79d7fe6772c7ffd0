"""The fused kernels vs running the layers separately (Listing 1 claim)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _pool_geometry import pool_geometry
from repro.kernels import (avgpool2d, bind_fused, fused_block, fused_restore,
                           fused_scratch_bytes, get_activation, maxpool2d,
                           pointwise_conv, upsample_nearest)
from repro.kernels import fused as fused_module


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def reference_chain(x, w1, b1, w2, b2, act=None, pool=None, upsample=0):
    """lconv → act → resample → fconv, each as a separate full kernel."""
    full = pointwise_conv(x, w1, b1)
    if act is not None:
        full = get_activation(act)(full)
    if pool is not None:
        fn = maxpool2d if pool["kind"] == "max" else avgpool2d
        full = fn(full, pool["kernel"], pool.get("stride", pool["kernel"]),
                  pool.get("padding", 0))
    elif upsample:
        full = upsample_nearest(full, upsample)
    if w2 is None:
        return full
    return pointwise_conv(full, w2, b2)


class TestFusedBlock:
    @pytest.mark.parametrize("act", [None, "relu", "silu", "sigmoid", "tanh"])
    def test_matches_reference(self, rng, act):
        x = rng.normal(size=(2, 4, 6, 6))
        w1, b1 = rng.normal(size=(24, 4)), rng.normal(size=24)
        w2, b2 = rng.normal(size=(5, 24)), rng.normal(size=5)
        got = fused_block(x, w1, b1, w2, b2, act=act, block_size=7)
        want = reference_chain(x, w1, b1, w2, b2, act=act)
        np.testing.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("kind", ["max", "avg"])
    def test_with_pool(self, rng, kind):
        x = rng.normal(size=(2, 4, 8, 8))
        w1, b1 = rng.normal(size=(16, 4)), rng.normal(size=16)
        w2, b2 = rng.normal(size=(3, 16)), rng.normal(size=3)
        pool = {"kind": kind, "kernel": (2, 2), "stride": (2, 2), "padding": (0, 0)}
        got = fused_block(x, w1, b1, w2, b2, act="relu", pool=pool, block_size=5)
        want = reference_chain(x, w1, b1, w2, b2, act="relu", pool=pool)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_with_upsample(self, rng):
        x = rng.normal(size=(1, 3, 4, 4))
        w1 = rng.normal(size=(12, 3))
        w2 = rng.normal(size=(2, 12))
        got = fused_block(x, w1, None, w2, None, act="relu", upsample=2,
                          block_size=4)
        want = reference_chain(x, w1, None, w2, None, act="relu", upsample=2)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_block_size_invariance(self, rng):
        x = rng.normal(size=(1, 5, 6, 6))
        w1, b1 = rng.normal(size=(17, 5)), rng.normal(size=17)
        w2, b2 = rng.normal(size=(4, 17)), rng.normal(size=4)
        reference = fused_block(x, w1, b1, w2, b2, act="relu", block_size=17)
        for block in (1, 2, 3, 5, 16, 100):
            got = fused_block(x, w1, b1, w2, b2, act="relu", block_size=block)
            np.testing.assert_allclose(got, reference, atol=1e-10)

    def test_pool_and_upsample_rejected(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        with pytest.raises(ValueError, match="cannot both"):
            fused_block(x, rng.normal(size=(4, 2)), None,
                        rng.normal(size=(2, 4)), None,
                        pool={"kind": "max", "kernel": (2, 2)}, upsample=2)

    def test_weight_shape_mismatch_rejected(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        with pytest.raises(ValueError, match="w1 in-channels"):
            fused_block(x, rng.normal(size=(4, 3)), None,
                        rng.normal(size=(2, 4)), None)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), block=st.integers(1, 40),
           cprime=st.integers(1, 33))
    def test_property_blocked_equals_dense(self, seed, block, cprime):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 3, 4, 4))
        w1 = rng.normal(size=(cprime, 3))
        w2 = rng.normal(size=(2, cprime))
        got = fused_block(x, w1, None, w2, None, act="relu", block_size=block)
        want = reference_chain(x, w1, None, w2, None, act="relu")
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestBiasInTheGemm:
    """The bias is the last column of ``[w1 | b1]`` against ``[x; 1]``: one
    more product inside the restore GEMM instead of a pass over the tile."""

    C_PRIME = 24

    @pytest.mark.parametrize("block", [1, 5, C_PRIME - 1, C_PRIME])
    @pytest.mark.parametrize("bias", [True, False], ids=["b1", "no_b1"])
    @pytest.mark.parametrize("variant", ["plain", "maxpool"])
    def test_fused_equals_unfused(self, rng, variant, bias, block):
        x = rng.normal(size=(2, 4, 8, 8))
        w1 = rng.normal(size=(self.C_PRIME, 4))
        b1 = rng.normal(size=self.C_PRIME) if bias else None
        w2, b2 = rng.normal(size=(5, self.C_PRIME)), rng.normal(size=5)
        kwargs = VARIANTS[variant]
        np.testing.assert_allclose(
            fused_block(x, w1, b1, w2, b2, act="relu", block_size=block,
                        **kwargs),
            reference_chain(x, w1, b1, w2, b2, act="relu", **kwargs),
            atol=1e-10)
        np.testing.assert_allclose(
            fused_restore(x, w1, b1, act="relu", block_size=block, **kwargs),
            reference_chain(x, w1, b1, None, None, act="relu", **kwargs),
            atol=1e-10)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_per_sample_independent_without_a_bias_too(self, rng, n):
        x = _f32(rng, n, 5, 8, 8)
        w1, w2 = _f32(rng, 40, 5), _f32(rng, 7, 40)
        whole = fused_block(x, w1, None, w2, None, act="relu", block_size=16)
        restored = fused_restore(x, w1, None, act="relu", block_size=16)
        for i in range(n):
            assert whole[i:i + 1].tobytes() == fused_block(
                x[i:i + 1], w1, None, w2, None, act="relu",
                block_size=16).tobytes()
            assert restored[i:i + 1].tobytes() == fused_restore(
                x[i:i + 1], w1, None, act="relu", block_size=16).tobytes()

    def test_weight_is_packed_once_when_bound(self, rng, monkeypatch):
        x = _f32(rng, 2, 3, 4, 4)
        w1, b1 = _f32(rng, 6, 3), _f32(rng, 6)
        packs = []
        concatenate = np.concatenate

        def counting(arrays, *args, **kwargs):
            packs.append(len(arrays))
            return concatenate(arrays, *args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counting)
        kernel = bind_fused(x.shape, w1, b1, act="relu")
        assert packs == [2]
        first = kernel(x)
        assert kernel(x).tobytes() == first.tobytes()
        assert packs == [2]  # calls only compute
        assert first.tobytes() == fused_restore(x, w1, b1, act="relu").tobytes()
        np.testing.assert_allclose(
            first, reference_chain(x, w1, b1, None, None, act="relu"),
            rtol=1e-5, atol=1e-6)


class TestFusedRestore:
    @pytest.mark.parametrize("act", ["relu", "silu"])
    def test_matches_reference(self, rng, act):
        x = rng.normal(size=(2, 3, 6, 6))
        w1, b1 = rng.normal(size=(20, 3)), rng.normal(size=20)
        got = fused_restore(x, w1, b1, act=act, block_size=6)
        want = reference_chain(x, w1, b1, None, None, act=act)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_with_maxpool(self, rng):
        x = rng.normal(size=(1, 4, 8, 8))
        w1 = rng.normal(size=(10, 4))
        pool = {"kind": "max", "kernel": (3, 3), "stride": (2, 2), "padding": (1, 1)}
        got = fused_restore(x, w1, None, act="relu", pool=pool, block_size=3)
        want = reference_chain(x, w1, None, None, None, act="relu", pool=pool)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_with_upsample(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        w1 = rng.normal(size=(5, 2))
        got = fused_restore(x, w1, None, act="tanh", upsample=3, block_size=2)
        want = reference_chain(x, w1, None, None, None, act="tanh", upsample=3)
        np.testing.assert_allclose(got, want, atol=1e-10)


class TestPooledSweep:
    """A pooled site streams a channels-last tile; over every window
    geometry it must still equal the layers run separately, and a
    sample's answer must not depend on its batch neighbours."""

    @settings(max_examples=100, deadline=None)
    @given(geometry=pool_geometry(), seed=st.integers(0, 10_000),
           n=st.sampled_from([1, 2, 4, 32]), r_in=st.integers(1, 4),
           block=st.integers(2, 8), blocks=st.integers(1, 3),
           spare=st.integers(1, 7), bias=st.booleans(),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_equals_separate_layers_and_is_batch_invariant(
            self, geometry, seed, n, r_in, block, blocks, spare, bias,
            dtype):
        pool, (h, w) = geometry
        c_prime = block * blocks + min(spare, block - 1)  # block ∤ C'
        rng = np.random.default_rng(seed)

        def draw(*shape, fan_in=1):
            # unit-variance layer outputs, as an initialised network has
            return (rng.normal(size=shape) / np.sqrt(fan_in)).astype(dtype)

        x = draw(n, r_in, h, w)
        w1, w2 = draw(c_prime, r_in, fan_in=r_in), draw(3, c_prime,
                                                         fan_in=c_prime)
        b1, b2 = (draw(c_prime), draw(3)) if bias else (None, None)
        tol = (dict(atol=1e-10) if dtype == np.float64
               else dict(rtol=1e-5, atol=1e-6))
        for w2_, b2_ in ((w2, b2), (None, None)):
            kernel = bind_fused(x.shape, w1, b1, w2_, b2_, act="relu",
                                pool=pool, block_size=block)
            got = kernel(x)
            assert got.dtype == dtype
            np.testing.assert_allclose(
                got, reference_chain(x, w1, b1, w2_, b2_, act="relu",
                                     pool=pool), **tol)
            for i in range(n):
                assert got[i:i + 1].tobytes() == kernel(
                    x[i:i + 1]).tobytes(), (i, w2_ is None)


class TestScratchAccounting:
    def test_scratch_scales_with_block(self):
        shape = (4, 8, 10, 10)
        small = fused_scratch_bytes(shape, 4, block_size=4)
        large = fused_scratch_bytes(shape, 4, block_size=16)
        assert large == 4 * small
        assert small == 4 * 4 * 10 * 10 * 4

    def test_scratch_clamped_by_cprime(self):
        shape = (1, 8, 10, 10)
        assert fused_scratch_bytes(shape, 4, block_size=64, c_prime=5) == \
            fused_scratch_bytes(shape, 4, block_size=5)


MAXPOOL_3S2P1 = {"kind": "max", "kernel": (3, 3), "stride": (2, 2),
                 "padding": (1, 1)}
AVGPOOL_2 = {"kind": "avg", "kernel": (2, 2), "stride": (2, 2),
             "padding": (0, 0)}
#: the resampling forms a fused kernel runs in
VARIANTS = {
    "plain": {},
    "maxpool": {"pool": MAXPOOL_3S2P1},
    "avgpool": {"pool": AVGPOOL_2},
    "upsample": {"upsample": 2},
}


def _f32(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


class TestPerSampleIndependence:
    """``kernel(x)[i]`` is bitwise ``kernel(x[i:i+1])``: a sample's answer
    does not depend on its batch neighbours.  The micro-batcher's
    "padded batch == direct run" promise rests on this property."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_fused_block(self, rng, n, variant):
        x = _f32(rng, n, 5, 8, 8)
        w1, b1 = _f32(rng, 40, 5), _f32(rng, 40)
        w2, b2 = _f32(rng, 7, 40), _f32(rng, 7)
        kwargs = dict(act="relu", block_size=16, **VARIANTS[variant])
        whole = fused_block(x, w1, b1, w2, b2, **kwargs)
        for i in range(n):
            alone = fused_block(x[i:i + 1], w1, b1, w2, b2, **kwargs)
            assert whole[i:i + 1].tobytes() == alone.tobytes(), (variant, i)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_fused_restore(self, rng, n, variant):
        x = _f32(rng, n, 3, 8, 8)
        w1, b1 = _f32(rng, 40, 3), _f32(rng, 40)
        kwargs = dict(act="silu", block_size=16, **VARIANTS[variant])
        whole = fused_restore(x, w1, b1, **kwargs)
        for i in range(n):
            alone = fused_restore(x[i:i + 1], w1, b1, **kwargs)
            assert whole[i:i + 1].tobytes() == alone.tobytes(), (variant, i)


class TestSampleGroups:
    """A batch whose tile outgrows ``TILE_BYTES`` runs in balanced sample
    groups.  Every per-sample GEMM, block and accumulation keeps its
    order, so a grouped call is bitwise the one-group call."""

    #: (bias, act): with a bias ``[x; 1]`` is a per-group copy, without
    #: one a whole-plane input is read in place
    SITES = {"b1_relu": (True, "relu"), "no_b1_silu": (False, "silu")}

    @pytest.mark.parametrize("n, sample_bytes, size", [
        (32, 1 << 17, 4),       # unet_small/cp at batch 32: 8 groups of 4
        (4, 1 << 17, 4),        # a whole-batch tile of TILE_BYTES: one group
        (9, 1 << 16, 5),        # 2 groups, the last smaller
        (10, 1 << 16, 5),
        (7, 1 << 19, 1),        # a sample per group
        (3, 1 << 21, 1),        # a sample's tile alone outgrows the budget
        (1, 1, 1),
    ])
    def test_group_size(self, n, sample_bytes, size):
        assert fused_module._group_size(n, sample_bytes) == size

    @pytest.mark.parametrize("groups", ["one_sample", "two", "three"])
    @pytest.mark.parametrize("fconv", [True, False],
                             ids=["fused_block", "fused_restore"])
    @pytest.mark.parametrize("site", sorted(SITES))
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("n", [*range(1, 10), 32])
    def test_grouped_is_bitwise_one_group_and_batch_invariant(
            self, rng, monkeypatch, n, variant, site, fconv, groups):
        bias, act = self.SITES[site]
        x = _f32(rng, n, 5, 8, 8)
        w1, b1 = _f32(rng, 40, 5), _f32(rng, 40) if bias else None
        w2, b2 = (_f32(rng, 7, 40), _f32(rng, 7)) if fconv else (None, None)
        kernel = bind_fused(x.shape, w1, b1, w2, b2, act=act, block_size=16,
                            **VARIANTS[variant])
        one_group = kernel(x)
        # the default constant runs these small tiles as one group
        sample = fused_scratch_bytes((1,) + x.shape[1:], 4, block_size=16,
                                     c_prime=40)
        assert fused_module._group_size(n, sample) == n
        count = {"one_sample": n, "two": 2, "three": 3}[groups]
        monkeypatch.setattr(fused_module, "TILE_BYTES",
                            -(-n * sample // count))
        grouped = kernel(x)
        assert grouped.tobytes() == one_group.tobytes()
        for i in range(n):
            assert grouped[i:i + 1].tobytes() == kernel(
                x[i:i + 1]).tobytes(), i


def _dense_merged(w1, b1, runs, c_prime, r_in):
    """The dense block-diagonal matrix a merged lconv with pass-through
    ``runs`` stands for: ``w1`` over the rows and columns outside the
    runs, an identity block on each run.  Only this test's reference."""
    dense = np.zeros((c_prime, r_in), dtype=w1.dtype)
    rows = np.ones(c_prime, bool)
    cols = np.ones(r_in, bool)
    for out_row, in_col, width in runs:
        dense[out_row + np.arange(width), in_col + np.arange(width)] = 1
        rows[out_row:out_row + width] = False
        cols[in_col:in_col + width] = False
    dense[np.ix_(rows, cols)] = w1
    bias = None
    if b1 is not None:
        bias = np.zeros(c_prime, dtype=b1.dtype)
        bias[rows] = b1
    return dense, bias


@st.composite
def _merged_site(draw):
    """Branches in any order — pass-through runs leading, trailing or
    between restored ones — as ``(runs, restored rows, restored columns,
    C', R_in)``."""
    branches = draw(st.lists(
        st.tuples(st.booleans(), st.integers(1, 5), st.integers(1, 3)),
        min_size=1, max_size=4))
    if all(passed for passed, _w, _r in branches):
        branches.append((False, 4, 2))
    runs, rows, cols = [], 0, 0
    c_prime = r_in = 0
    for passed, width, rank in branches:
        if passed:
            runs.append((c_prime, r_in, width))
            c_prime, r_in = c_prime + width, r_in + width
        else:  # a restore chain: ``rank`` reduced channels to more rows
            rows, cols = rows + rank + width, cols + rank
            c_prime, r_in = c_prime + rank + width, r_in + rank
    return tuple(runs), rows, cols, c_prime, r_in


class TestPassThroughRuns:
    """A merged lconv's pass-through runs are read from the input into
    the tile (activated, or copied): over any run layout, block width,
    resampling, activation and dtype the kernels equal the layers run
    separately on the dense block-diagonal matrix with identity blocks,
    and a sample's answer stays bitwise its own in any sample grouping."""

    UNPOOLED = ("plain", "upsample")

    @settings(max_examples=150, deadline=None)
    @given(site=_merged_site(), seed=st.integers(0, 10_000),
           block=st.integers(1, 12), bias=st.booleans(),
           act=st.sampled_from([None, "relu", "leaky_relu"]),
           pooled=st.one_of(st.none(), pool_geometry()),
           unpooled=st.sampled_from(UNPOOLED),
           n=st.sampled_from([*range(1, 10), 32]),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_equals_dense_identity_blocks_and_is_batch_invariant(
            self, site, seed, block, bias, act, pooled, unpooled, n, dtype):
        runs, rows, cols, c_prime, r_in = site
        if pooled is None:
            variant, (h, w) = dict(VARIANTS[unpooled]), (8, 8)
        else:
            pool, (h, w) = pooled
            variant = {"pool": pool}
        rng = np.random.default_rng(seed)

        def draw(*shape, fan_in=1):
            return (rng.normal(size=shape) / np.sqrt(fan_in)).astype(dtype)

        x = draw(n, r_in, h, w)
        w1, b1 = draw(rows, cols, fan_in=cols), draw(rows) if bias else None
        w2, b2 = draw(3, c_prime, fan_in=c_prime), draw(3)
        dense, dense_b1 = _dense_merged(w1, b1, runs, c_prime, r_in)
        tol = (dict(atol=1e-10) if dtype == np.float64
               else dict(rtol=1e-5, atol=1e-6))
        for w2_, b2_ in ((w2, b2), (None, None)):
            kernel = bind_fused(x.shape, w1, b1, w2_, b2_, act=act,
                                block_size=block, passthrough=runs, **variant)
            got = kernel(x)
            assert got.dtype == dtype
            np.testing.assert_allclose(
                got, reference_chain(x, dense, dense_b1, w2_, b2_, act=act,
                                     pool=variant.get("pool"),
                                     upsample=variant.get("upsample", 0)),
                **tol)
            sample = fused_scratch_bytes(
                (1,) + x.shape[1:], x.itemsize, block_size=block,
                c_prime=c_prime)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fused_module, "TILE_BYTES",
                              -(-n * sample // min(n, 3)))
                grouped = kernel(x)
                alone = [kernel(x[i:i + 1]) for i in range(n)]
            assert grouped.tobytes() == got.tobytes()
            for i in range(n):
                assert got[i:i + 1].tobytes() == alone[i].tobytes(), i

    def test_runs_must_match_the_input(self, rng):
        x = _f32(rng, 2, 6, 4, 4)
        with pytest.raises(ValueError, match="pass-through"):
            fused_restore(x, _f32(rng, 8, 4), None, act="relu",
                          passthrough=[(0, 0, 3)])


def _traced_peak(fn):
    """(result, peak bytes allocated while ``fn`` ran, result included)."""
    fn()  # first-call caches (ufunc loops, BLAS buffers) are not scratch
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScratchMeasured:
    """`fused_scratch_bytes` against what a bound kernel really holds per
    call: beyond the returned array, at most the tile + one resample call
    on that tile + one fconv accumulator (`fused_block`) + the
    rank-``R+1`` augmented input that carries the bias into the restore
    GEMM — whatever ``C'`` is.  The packed ``[w1 | b1]`` is made when the
    kernel is bound and lives with the weights, as a session holds it."""

    N, R, HW, BLOCK, R_OUT = 2, 8, 64, 16, 8  # tile 512 KiB, accumulator 256 KiB
    ACT = "relu"
    #: NumPy's own fixed-size ufunc buffers (8192 elements each: two for
    #: ``+=`` into a strided region) + views
    SLACK = 72 * 1024

    def _transient(self, rng, c_prime, fconv, **variant):
        x = _f32(rng, self.N, self.R, self.HW, self.HW)
        w1, b1 = _f32(rng, c_prime, self.R), _f32(rng, c_prime)
        w2 = b2 = None
        if fconv:
            w2, b2 = _f32(rng, self.R_OUT, c_prime), _f32(rng, self.R_OUT)
        kernel = bind_fused(x.shape, w1, b1, w2, b2, act=self.ACT,
                            block_size=self.BLOCK, **variant)
        out, peak = _traced_peak(lambda: kernel(x))
        return peak - out.nbytes, out

    def _input_and_mask(self):
        """``[x; 1]`` (the bias rides in the restore GEMM) and leaky
        relu's one temporary, the tile's boolean ``x < 0``."""
        plane = self.HW * self.HW
        mask = self.N * self.BLOCK * plane * (self.ACT == "leaky_relu")
        return self.N * (self.R + 1) * plane * 4 + mask

    def _bound(self, rng, out, fconv, pool=None, upsample=0):
        scratch = fused_scratch_bytes((self.N, self.R, self.HW, self.HW), 4,
                                      block_size=self.BLOCK)
        assert scratch == self.N * self.BLOCK * self.HW * self.HW * 4
        tile = _f32(rng, self.N, self.BLOCK, self.HW, self.HW)
        resample = 0
        if pool is not None:
            fn = maxpool2d if pool["kind"] == "max" else avgpool2d
            resample = _traced_peak(lambda: fn(
                tile, pool["kernel"], pool["stride"], pool["padding"]))[1]
        elif upsample:
            resample = _traced_peak(
                lambda: upsample_nearest(tile, upsample))[1]
        accumulator = out.nbytes if fconv else 0
        return (scratch + resample + accumulator + self._input_and_mask()
                + self.SLACK)

    @pytest.mark.parametrize("fconv", [True, False],
                             ids=["fused_block", "fused_restore"])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_transient_bounded_and_independent_of_cprime(self, rng, fconv,
                                                         variant):
        kwargs = VARIANTS[variant]
        narrow, out = self._transient(rng, 64, fconv, **kwargs)
        wide, _ = self._transient(rng, 512, fconv, **kwargs)
        assert abs(wide - narrow) <= self.SLACK, (narrow, wide)
        assert wide <= self._bound(rng, out, fconv, **kwargs), (variant, wide)

    @pytest.mark.parametrize("fconv", [True, False],
                             ids=["fused_block", "fused_restore"])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_batch_32_holds_one_sample_group(self, rng, fconv, variant):
        # the whole-batch tile is 16 x TILE_BYTES; the kernel holds what
        # one group of samples needs
        kwargs = VARIANTS[variant]
        # `_transient` and `_bound` read the batch from self.N: measure
        # at batch 32, bound by one group
        self.N = 32
        transient, out = self._transient(rng, 2 * self.BLOCK, fconv,
                                         **kwargs)
        sample = fused_scratch_bytes(
            (1, self.R, self.HW, self.HW), 4, block_size=self.BLOCK)
        self.N = fused_module._group_size(32, sample)
        assert self.N < 32
        assert transient <= self._bound(rng, out[:self.N], fconv,
                                        **kwargs), (variant, transient)

    def test_plain_restore_needs_no_tile(self, rng):
        # nothing to resample: each block lands in its slice of the output
        transient, _ = self._transient(rng, 512, fconv=False)
        assert transient <= self._input_and_mask() + self.SLACK


class TestScratchMeasuredLeakyRelu(TestScratchMeasured):
    """The same bounds under leaky relu, whose ``out=`` form may hold the
    tile's boolean mask but nothing tile-sized in the tile's dtype."""

    ACT = "leaky_relu"
