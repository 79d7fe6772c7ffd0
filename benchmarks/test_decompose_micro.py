"""Factorisation micro-benchmarks (pytest-benchmark proper timing).

The factor solves are nearly all of perfbench's `setup_s`; these time
them one kernel at a time, the way `test_kernels_micro.py::TestHotSites`
times the run-time call sites.  One BLAS thread, idle box:

    OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/test_decompose_micro.py --benchmark-only
"""

import numpy as np
import pytest

from repro.decompose import (cp_decompose, plan_ranks, tt_decompose,
                             tucker2_decompose)

#: alexnet conv3 (the single most expensive `graph_b4` site), a mid-size
#: square site, and the RGB stem whose mode-0 unfolding is tall
SITES = {"alexnet_conv3": (384, 192, 3, 3), "square_128": (128, 128, 3, 3),
         "stem_64x3": (64, 3, 3, 3)}


@pytest.fixture(params=list(SITES))
def site(request):
    """``(kernel, rank plan)`` at the paper's ratio 0.1."""
    shape = SITES[request.param]
    weight = np.random.default_rng(0).normal(size=shape).astype(np.float32)
    return weight, plan_ranks(shape[1], shape[0], 0.1)


class TestFactorSolves:
    def test_tucker2(self, benchmark, site):
        weight, plan = site
        benchmark(tucker2_decompose, weight, plan.rank_out, plan.rank_in,
                  hooi_iters=2)

    def test_tt(self, benchmark, site):
        weight, plan = site
        benchmark(tt_decompose, weight,
                  (plan.rank_in, plan.tt_mid, plan.rank_out))

    def test_cp_40_sweeps(self, benchmark, site):
        weight, plan = site
        benchmark(cp_decompose, weight, plan.cp_rank, max_iters=40)
