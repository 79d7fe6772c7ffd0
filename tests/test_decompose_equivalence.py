"""The Gram-matrix Tucker-2 / TT-SVD and the Khatri–Rao-free CP-ALS
against the solves they replaced (``_decompose_oracle``): same shapes,
same subspaces, same reconstructed kernels, same fit, same sweep count.

Single factor *columns* are never compared — an eigensolver and an SVD
are each free to pick a column's sign; projectors and products are not.
"""

import warnings

import numpy as np
import pytest

import _decompose_oracle as oracle
from repro.decompose import (CPFactors, DecompositionConfig, TTFactors,
                             Tucker2Factors, cp_decompose, plan_ranks,
                             relative_error, tt_decompose, tucker2_decompose)
from repro.decompose.rewrite import _eligible
from repro.models import build_model

KERNEL_RTOL = 1e-7      # reconstructed kernels, relative Frobenius
FIT_ATOL = 1e-6         # the ``fit_error`` a decomposed graph records
PROJECTOR_ATOL = 1e-8   # U @ U.T, on the float64 factors
ORTHONORMAL_ATOL = 1e-6


def assert_same_form(got, want):
    for name in want.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype) == (b.shape, b.dtype), name


def assert_same_kernel(got, want, weight):
    assert_same_form(got, want)
    assert np.isfinite(got.reconstruct()).all()
    assert relative_error(want.reconstruct(), got.reconstruct()) <= KERNEL_RTOL
    assert abs(got.error(weight) - want.error(weight)) <= FIT_ATOL


def assert_same_basis(got, want, subspace=True):
    """Columns orthonormal and, unless the oracle's trailing columns are
    an arbitrary basis of a null space, spanning the oracle's subspace."""
    np.testing.assert_allclose(got.T @ got, np.eye(got.shape[1]),
                               atol=ORTHONORMAL_ATOL)
    if subspace:
        np.testing.assert_allclose(got @ got.T, want @ want.T,
                                   atol=PROJECTOR_ATOL)


def check_tucker(weight, rank_out, rank_in, hooi_iters=2, subspace=True):
    dtype = weight.dtype
    got = tucker2_decompose(weight, rank_out, rank_in, hooi_iters=hooi_iters)
    core, u_out, u_in = oracle.tucker2(weight, rank_out, rank_in, hooi_iters)
    assert_same_kernel(got, Tucker2Factors(core.astype(dtype), u_out.astype(dtype),
                                           u_in.astype(dtype)), weight)
    # the library's factors before they are rounded to the weight dtype
    wide = tucker2_decompose(weight.astype(np.float64), rank_out, rank_in,
                             hooi_iters=hooi_iters)
    assert_same_basis(wide.u_out, u_out, subspace)
    assert_same_basis(wide.u_in, u_in, subspace)
    return got


def check_tt(weight, ranks, subspace=True):
    dtype = weight.dtype
    got = tt_decompose(weight, ranks)
    cores = oracle.tt_svd(weight, ranks)
    assert_same_kernel(got, TTFactors(*(g.astype(dtype) for g in cores)), weight)
    assert_same_basis(tt_decompose(weight.astype(np.float64), ranks).g1,
                      cores[0], subspace)
    return got


def check_cp(weight, rank, monkeypatch, *, max_iters=40, tol=1e-7):
    """Also asserts the library swept as often as the oracle did (four
    ``solve`` calls a sweep)."""
    solves = []
    solve = np.linalg.solve
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve",
                      lambda a, b: solves.append(1) or solve(a, b))
        got = cp_decompose(weight, rank, max_iters=max_iters, tol=tol)
    factors, sweeps = oracle.cp_als(weight, rank, max_iters, tol)
    assert len(solves) == 4 * sweeps
    assert_same_kernel(got, CPFactors(*(f.astype(weight.dtype) for f in factors)),
                       weight)
    return got


def zoo_kernels(model):
    graph = build_model(model, batch=1, hw=32)
    return [node.params["weight"] for node in graph.nodes
            if _eligible(node)]


#: ``tol`` the CP comparison runs at.  No zoo site stops before the 40
#: sweeps a compile allows at the default 1e-7, which costs the oracle
#: 54 s on alexnet's five sites (the library 2 s) to show nothing the
#: 3-9 sweeps to 1e-3 do not.
CP_TOLS = {"alexnet": (1e-3,), "unet_small": (1e-7, 1e-3),
           "fractalnet": (1e-7, 1e-3)}


@pytest.mark.parametrize("ratio", [0.1, 0.25])
@pytest.mark.parametrize("model", list(CP_TOLS))
def test_every_zoo_site(model, ratio, monkeypatch):
    kernels = zoo_kernels(model)
    assert kernels
    for weight in kernels:
        plan = plan_ranks(weight.shape[1], weight.shape[0], ratio)
        check_tucker(weight, plan.rank_out, plan.rank_in)
        check_tt(weight, (plan.rank_in, plan.tt_mid, plan.rank_out))
        for tol in CP_TOLS[model]:
            check_cp(weight, plan.cp_rank, monkeypatch, tol=tol)


def gaussian(shape, dtype=np.float32, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(dtype)


def low_rank(cout, cin, k, rank_out, rank_in):
    rng = np.random.default_rng(3)
    core = rng.normal(size=(rank_out, rank_in, k, k))
    return np.einsum("abhw,oa,cb->ochw", core, rng.normal(size=(cout, rank_out)),
                     rng.normal(size=(cin, rank_in))).astype(np.float32)


class TestGeneratedKernels:
    def test_tall_unfolding_stem(self, monkeypatch):
        # mode 0 unfolds to 64 x 27 and, with R_in = 1, HOOI's to 64 x 9
        weight = gaussian((64, 3, 3, 3))
        plan = plan_ranks(3, 64, 0.1)
        assert plan.rank_in == 1
        check_tucker(weight, plan.rank_out, plan.rank_in)
        check_tt(weight, (plan.rank_in, plan.tt_mid, plan.rank_out))
        check_cp(weight, plan.cp_rank, monkeypatch)

    def test_rank_above_the_unfoldings_columns(self):
        # HOOI's 256 x (1*1*3) unfolding has three columns: rank 26 -> 3
        weight = gaussian((256, 3, 1, 3))
        got = check_tucker(weight, 26, 1)
        assert got.u_out.shape == (256, 3) and got.core.shape == (3, 1, 1, 3)
        # without HOOI the 256 x 9 mode unfolding clamps it to 9
        assert check_tucker(weight, 26, 1, hooi_iters=0).u_out.shape == (256, 9)
        check_tt(weight, (1, 26, 26))

    def test_exactly_low_rank(self, monkeypatch):
        weight = low_rank(32, 16, 3, 4, 3)
        assert check_tucker(weight, 4, 3).error(weight) <= 1e-6
        assert check_tt(weight, (3, 27, 4)).error(weight) <= 1e-6
        # asked for more than there is: the trailing columns are any
        # basis of the null space, the kernel is the same
        assert check_tucker(weight, 6, 5, subspace=False).error(weight) <= 1e-6
        rng = np.random.default_rng(4)
        rank_two = np.einsum("or,cr,hr,wr->ochw", *(rng.normal(size=(dim, 2))
                                                  for dim in (12, 10, 3, 3)))
        assert check_cp(rank_two, 2, monkeypatch,
                        max_iters=200).error(rank_two) <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_kernel(self, dtype):
        weight = np.zeros((16, 8, 3, 3), dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_tucker(weight, 2, 2, subspace=False)
            check_tt(weight, (2, 2, 2), subspace=False)
            got = cp_decompose(weight, 2)   # the oracle cannot: singular Gram
        assert got.a.shape == (16, 2) and got.a.dtype == dtype
        assert not got.reconstruct().any()

    @pytest.mark.parametrize("shape", [(24, 12, 1, 5), (24, 12, 5, 3),
                                       (20, 30, 3, 1)])
    def test_non_square_taps(self, shape, monkeypatch):
        weight = gaussian(shape, seed=1)
        check_tucker(weight, 5, 4)
        check_tt(weight, (4, 5, 5))
        check_cp(weight, 5, monkeypatch)
        check_cp(weight, 5, monkeypatch, tol=1e-3)

    def test_float64_weights(self, monkeypatch):
        weight = gaussian((20, 10, 3, 3), np.float64, seed=2)
        assert check_tucker(weight, 4, 3).core.dtype == np.float64
        check_tt(weight, (3, 4, 4))
        check_cp(weight, 4, monkeypatch)

    @pytest.mark.parametrize("hooi_iters", [0, 1, 5])
    def test_hooi_sweeps(self, hooi_iters):
        check_tucker(gaussian((32, 24, 3, 3), seed=5), 6, 5,
                     hooi_iters=hooi_iters)

