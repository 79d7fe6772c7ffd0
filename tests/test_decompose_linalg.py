"""Multilinear algebra primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decompose import (fold, leading_subspace, mode_dot, multi_mode_dot,
                             relative_error, unfold)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestUnfoldFold:
    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_fold_inverts_unfold(self, rng, mode):
        t = rng.normal(size=(3, 4, 5, 2))
        np.testing.assert_array_equal(fold(unfold(t, mode), mode, t.shape), t)

    def test_unfold_shape(self, rng):
        t = rng.normal(size=(3, 4, 5))
        assert unfold(t, 1).shape == (4, 15)

    def test_unfold_rows_are_mode_fibers(self, rng):
        t = rng.normal(size=(2, 3, 4))
        m = unfold(t, 1)
        # row j of the unfolding collects every element with index j in mode 1
        for j in range(3):
            np.testing.assert_array_equal(np.sort(m[j]),
                                          np.sort(t[:, j, :].ravel()))


class TestModeDot:
    def test_matches_einsum(self, rng):
        t = rng.normal(size=(3, 4, 5))
        m = rng.normal(size=(7, 4))
        np.testing.assert_allclose(mode_dot(t, m, 1),
                                   np.einsum("iak,ja->ijk", t, m), atol=1e-12)

    def test_dim_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="mode-0"):
            mode_dot(rng.normal(size=(3, 4)), rng.normal(size=(2, 5)), 0)

    def test_multi_mode_dot_composes(self, rng):
        t = rng.normal(size=(3, 4, 5))
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(6, 5))
        got = multi_mode_dot(t, [a, b], [0, 2])
        want = mode_dot(mode_dot(t, a, 0), b, 2)
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestLeadingSubspace:
    def test_full_rank_reconstructs(self, rng):
        m = rng.normal(size=(6, 9))
        u = leading_subspace(m, 6)
        np.testing.assert_allclose(u @ (u.T @ m), m, atol=1e-10)

    def test_rank_clamped(self, rng):
        # to the unfolding's smaller side, as a thin SVD's U is
        assert leading_subspace(rng.normal(size=(4, 3)), 100).shape == (4, 3)
        assert leading_subspace(rng.normal(size=(3, 7)), 100).shape == (3, 3)

    def test_truncation_is_best_approximation(self, rng):
        # Eckart–Young: rank-k projection error equals the tail singular values
        m = rng.normal(size=(8, 8))
        s_full = np.linalg.svd(m, compute_uv=False)
        u = leading_subspace(m, 3)
        err = np.linalg.norm(m - u @ (u.T @ m))
        np.testing.assert_allclose(err, np.linalg.norm(s_full[3:]), atol=1e-8)

    @pytest.mark.parametrize("shape", [(6, 40), (40, 6)])
    def test_columns_are_the_left_singular_vectors(self, rng, shape):
        # orthonormal, strongest first, and ``U.T @ M`` is ``diag(s) @ Vt``
        m = rng.normal(size=shape)
        u_ref, s, vt = np.linalg.svd(m, full_matrices=False)
        u = leading_subspace(m, 4)
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(u @ u.T, u_ref[:, :4] @ u_ref[:, :4].T,
                                   atol=1e-10)
        signs = np.sign(np.sum(u * u_ref[:, :4], axis=0))
        np.testing.assert_allclose(signs[:, None] * (u.T @ m),
                                   s[:4, None] * vt[:4], atol=1e-10)

    def test_bad_rank_rejected(self, rng):
        with pytest.raises(ValueError, match="rank"):
            leading_subspace(rng.normal(size=(3, 3)), 0)


class TestRelativeError:
    def test_zero_for_identical(self, rng):
        t = rng.normal(size=(3, 3))
        assert relative_error(t, t) == 0.0

    def test_scale_invariant(self, rng):
        t = rng.normal(size=(4, 4))
        p = t + rng.normal(size=(4, 4)) * 0.1
        assert relative_error(t, p) == pytest.approx(
            relative_error(10 * t, 10 * p))

    def test_zero_original(self):
        z = np.zeros((2, 2))
        assert relative_error(z, z) == 0.0
        assert relative_error(z, np.ones((2, 2))) == 2.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 9999), mode=st.integers(0, 2))
def test_property_mode_dot_linearity(seed, mode):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(3, 4, 5))
    dims = t.shape[mode]
    a = rng.normal(size=(2, dims))
    b = rng.normal(size=(2, dims))
    np.testing.assert_allclose(mode_dot(t, a + b, mode),
                               mode_dot(t, a, mode) + mode_dot(t, b, mode),
                               atol=1e-10)
