"""Shared pytest fixtures for the test suite."""

from __future__ import annotations

import os

# one BLAS thread, set before NumPy loads its BLAS: at these sizes the
# Tucker factor solves' eigh runs about 2x slower on two threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def decomposed():
    """``decomposed(name, hw, method="tucker", ratio=0.25, batch=1)``: a
    zoo (or extra) model, decomposed.

    Factorising the convolutions is nearly all a model test costs
    (``resnet34``: build 0.6 s, decompose 7 s on two BLAS threads — 3.7 s
    on one — optimize + two runs < 0.1 s) and depends on no test, so
    each combination is factorised once per session; every caller gets
    its own ``clone()``.
    """
    from repro.decompose import DecompositionConfig, decompose_graph
    from repro.models import EXTRA_MODELS, build_extra, build_model

    cache = {}

    def get(name, hw, method="tucker", ratio=0.25, batch=1):
        key = (name, hw, method, ratio, batch)
        if key not in cache:
            build = build_extra if name in EXTRA_MODELS else build_model
            cache[key] = decompose_graph(
                build(name, batch=batch, hw=hw),
                DecompositionConfig(method=method, ratio=ratio))
        return cache[key].clone()

    return get


@pytest.fixture
def fleet_timing(monkeypatch):
    """Fast fleet timing for one test, and a setter for the rest of it.

    The fleet's timing is module constants of ``repro.fleet.pool`` and
    ``repro.fleet.router``.  Requesting this fixture polls replica
    health every 10 ms and re-admits an ejected replica after 50 ms;
    ``fleet_timing(NAME=value, ...)`` sets any constant of either module
    until the test ends.
    """
    from repro.fleet import pool, router

    def set_constants(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(pool if hasattr(pool, name) else router,
                                name, value)

    set_constants(HEALTH_INTERVAL_S=0.01, READMIT_BACKOFF_S=0.05)
    return set_constants
