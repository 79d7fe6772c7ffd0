"""Tucker-2 / CP / TT factorization quality and structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decompose import (cp_decompose, plan_ranks, tt_decompose,
                             tucker2_decompose)


@pytest.fixture
def kernel():
    return np.random.default_rng(5).normal(size=(12, 10, 3, 3))


class TestTucker2:
    def test_full_rank_is_exact(self, kernel):
        f = tucker2_decompose(kernel, 12, 10)
        assert f.error(kernel) < 1e-12

    def test_shapes(self, kernel):
        f = tucker2_decompose(kernel, 5, 4)
        assert f.core.shape == (5, 4, 3, 3)
        assert f.u_out.shape == (12, 5)
        assert f.u_in.shape == (10, 4)
        assert (f.rank_out, f.rank_in) == (5, 4)

    def test_ranks_clamped(self, kernel):
        f = tucker2_decompose(kernel, 100, 100)
        assert (f.rank_out, f.rank_in) == (12, 10)

    def test_error_monotone_in_rank(self, kernel):
        errors = [tucker2_decompose(kernel, r, r).error(kernel)
                  for r in (2, 4, 6, 8, 10)]
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))

    def test_hooi_improves_on_hosvd(self, kernel):
        hosvd = tucker2_decompose(kernel, 3, 3, hooi_iters=0).error(kernel)
        hooi = tucker2_decompose(kernel, 3, 3, hooi_iters=5).error(kernel)
        assert hooi <= hosvd + 1e-9

    def test_factors_orthonormal(self, kernel):
        f = tucker2_decompose(kernel, 5, 4)
        np.testing.assert_allclose(f.u_out.T @ f.u_out, np.eye(5), atol=1e-6)
        np.testing.assert_allclose(f.u_in.T @ f.u_in, np.eye(4), atol=1e-6)

    def test_preserves_dtype(self):
        k32 = np.random.default_rng(0).normal(size=(8, 8, 3, 3)).astype(np.float32)
        f = tucker2_decompose(k32, 4, 4)
        assert f.core.dtype == np.float32

    def test_non_4d_rejected(self):
        with pytest.raises(ValueError, match="4D"):
            tucker2_decompose(np.zeros((3, 3, 3)), 2, 2)


class TestCP:
    def test_rank1_tensor_recovered(self):
        rng = np.random.default_rng(1)
        a, b, c, d = (rng.normal(size=s) for s in (6, 5, 3, 3))
        t = np.einsum("o,c,h,w->ochw", a, b, c, d)
        f = cp_decompose(t, 1, max_iters=100)
        assert f.error(t) < 1e-8

    def test_error_decreases_with_rank(self, kernel):
        errs = [cp_decompose(kernel, r, max_iters=40, seed=0).error(kernel)
                for r in (1, 8, 64)]
        assert errs[0] > errs[1] > errs[2]

    def test_deterministic_given_seed(self, kernel):
        f1 = cp_decompose(kernel, 4, max_iters=10, seed=3)
        f2 = cp_decompose(kernel, 4, max_iters=10, seed=3)
        np.testing.assert_array_equal(f1.a, f2.a)

    def test_factor_shapes(self, kernel):
        f = cp_decompose(kernel, 7, max_iters=5)
        assert f.a.shape == (12, 7) and f.b.shape == (10, 7)
        assert f.c.shape == (3, 7) and f.d.shape == (3, 7)
        assert f.rank == 7

    def test_non_4d_rejected(self):
        with pytest.raises(ValueError, match="4D"):
            cp_decompose(np.zeros((2, 2)), 1)

    def test_zero_kernel_gives_zero_factors(self):
        # was ``LinAlgError: Singular matrix`` from the second mode's
        # solve; Tucker and TT have always returned zero factors
        zero = np.zeros((16, 8, 3, 3), np.float32)
        f = cp_decompose(zero, 2)
        assert all(np.isfinite(x).all() for x in (f.a, f.b, f.c, f.d))
        assert not f.reconstruct().any() and f.error(zero) == 0.0

    def test_zero_column_does_not_poison_the_rest(self):
        # one dead output channel and one dead input channel
        k = np.random.default_rng(6).normal(size=(12, 10, 3, 3))
        k[3] = 0.0
        k[:, 7] = 0.0
        f = cp_decompose(k, 4, max_iters=20)
        assert np.isfinite(f.reconstruct()).all() and f.error(k) < 1.0


class TestTT:
    def test_full_rank_is_exact(self, kernel):
        # maximal TT ranks for a (Cout=12, Cin=10, 3, 3) kernel
        f = tt_decompose(kernel, (10, 30, 36))
        assert f.error(kernel) < 1e-12

    def test_core_shapes(self, kernel):
        f = tt_decompose(kernel, (4, 6, 5))
        r1, r2, r3 = f.ranks
        assert f.g1.shape == (10, r1)
        assert f.g2.shape == (r1, 3, r2)
        assert f.g3.shape == (r2, 3, r3)
        assert f.g4.shape == (r3, 12)

    def test_ranks_clamped_to_achievable(self, kernel):
        f = tt_decompose(kernel, (1000, 1000, 1000))
        r1, r2, r3 = f.ranks
        assert r1 <= 10 and r3 <= 36

    def test_error_monotone_in_rank(self, kernel):
        errs = [tt_decompose(kernel, (r, r, r)).error(kernel)
                for r in (1, 3, 6, 10)]
        assert all(a >= b - 1e-9 for a, b in zip(errs, errs[1:]))


class TestRankPlanning:
    def test_paper_ratio(self):
        plan = plan_ranks(256, 512, 0.1)
        assert plan.rank_in == 26 and plan.rank_out == 51

    def test_floor_at_one(self):
        plan = plan_ranks(3, 8, 0.1)
        assert plan.rank_in == 1 and plan.rank_out == 1

    def test_ratio_one_is_identity(self):
        plan = plan_ranks(64, 32, 1.0)
        assert plan.rank_in == 64 and plan.rank_out == 32

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            plan_ranks(8, 8, 0.0)
        with pytest.raises(ValueError, match="ratio"):
            plan_ranks(8, 8, 1.5)

    def test_bad_channels_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            plan_ranks(0, 8, 0.5)

    @settings(max_examples=30, deadline=None)
    @given(cin=st.integers(1, 512), cout=st.integers(1, 512),
           ratio=st.floats(0.01, 1.0))
    def test_property_ranks_bounded(self, cin, cout, ratio):
        plan = plan_ranks(cin, cout, ratio)
        assert 1 <= plan.rank_in <= cin
        assert 1 <= plan.rank_out <= cout
        assert plan.cp_rank >= 1 and plan.tt_mid >= 1
