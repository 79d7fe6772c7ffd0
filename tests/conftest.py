"""Shared pytest fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


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
