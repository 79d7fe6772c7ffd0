"""Installation self-check: one small end-to-end pass over every claim.

``python -m repro selfcheck`` runs miniature versions of the core
invariants in a few seconds and prints a scorecard — the quick "is my
install sane?" gate before launching the full test or benchmark suites.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["CheckResult", "run_selfcheck", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    seconds: float
    detail: str


def _tiny_graph(seed: int = 0):
    from .ir import GraphBuilder

    b = GraphBuilder("selfcheck", seed=seed)
    x = b.input("x", (2, 12, 16, 16))
    h = b.relu(b.conv2d(x, 24, 3, padding=1, name="c1"))
    skip = h
    h = b.maxpool2d(h, 2)
    h = b.relu(b.conv2d(h, 32, 3, padding=1, name="c2"))
    h = b.upsample_nearest(h, 2)
    h = b.concat(skip, h)
    h = b.relu(b.conv2d(h, 24, 3, padding=1, name="c3"))
    return b.finish(h)


def _check_kernels() -> str:
    from .kernels import conv2d, fused_block

    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 3, 8, 8))
    w = rng.normal(size=(4, 3, 3, 3))
    out = conv2d(x, w, None, padding=(1, 1))
    assert out.shape == (1, 4, 8, 8)
    w1, w2 = rng.normal(size=(16, 3)), rng.normal(size=(2, 16))
    fused = fused_block(x, w1, None, w2, None, act="relu", block_size=5)
    assert fused.shape == (1, 2, 8, 8)
    return "conv2d + fused_block shapes OK"


def _check_decompositions() -> str:
    from .decompose import DecompositionConfig, decompose_graph

    g = _tiny_graph()
    for method in ("tucker", "cp", "tt"):
        dg = decompose_graph(g, DecompositionConfig(method=method, ratio=0.3,
                                                    cp_iters=5))
        dg.validate()
    return "tucker/cp/tt rewrites validate"


def _check_optimizer_equivalence() -> str:
    from .core import compare_graphs, optimize
    from .decompose import DecompositionConfig, decompose_graph

    g = _tiny_graph()
    dg = decompose_graph(g, DecompositionConfig(ratio=0.3))
    opt, report = optimize(dg)
    rng = np.random.default_rng(1)
    inputs = {"x": rng.normal(size=(2, 12, 16, 16)).astype(np.float32)}
    eq = compare_graphs(dg, opt, inputs)
    assert eq.within(1e-3, 1e-5), f"divergence {eq.max_abs_error:.2e}"
    assert report.peak_after < report.peak_before
    return (f"peak {report.peak_before / 1024:.0f} -> "
            f"{report.peak_after / 1024:.0f} KiB, outputs equal")


def _check_estimator_parity() -> str:
    from .core import estimate_peak_internal, optimize
    from .decompose import DecompositionConfig, decompose_graph
    from .runtime import execute

    g = _tiny_graph()
    opt, _ = optimize(decompose_graph(g, DecompositionConfig(ratio=0.3)))
    rng = np.random.default_rng(2)
    inputs = {"x": rng.normal(size=(2, 12, 16, 16)).astype(np.float32)}
    measured = execute(opt, inputs).memory.peak_internal_bytes
    estimated = estimate_peak_internal(opt)
    assert measured == estimated, f"{measured} != {estimated}"
    return f"static estimate == measured ({measured} B)"


def _check_memory_audit() -> str:
    from .obs.audit import audit_graph

    g = _tiny_graph()
    rng = np.random.default_rng(3)
    inputs = {"x": rng.normal(size=(2, 12, 16, 16)).astype(np.float32)}
    audit = audit_graph(g, inputs)
    assert audit.passed, [f.message for f in audit.errors]
    return f"ledger == simulated events, {audit.ledger_events} events"


def _check_training() -> str:
    from .train import SGDConfig, train_classifier
    from .ir import GraphBuilder

    b = GraphBuilder("sc_train", seed=0)
    x = b.input("image", (8, 3, 8, 8))
    h = b.relu(b.conv2d(x, 8, 3, padding=1))
    h = b.flatten(b.global_avgpool(h))
    g = b.finish(b.linear(h, 3))
    result = train_classifier(g, steps=8, num_classes=3, hw=8,
                              config=SGDConfig(learning_rate=0.05))
    assert result.losses[-1] < result.losses[0] * 1.5
    return f"loss {result.losses[0]:.3f} -> {result.losses[-1]:.3f}"


CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("kernels", _check_kernels),
    ("decompositions", _check_decompositions),
    ("temco-equivalence", _check_optimizer_equivalence),
    ("estimator-parity", _check_estimator_parity),
    ("memory-audit", _check_memory_audit),
    ("training", _check_training),
]


def run_selfcheck(verbose: bool = True) -> list[CheckResult]:
    """Run every check; returns results (and prints a scorecard)."""
    results = []
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            detail = fn()
            passed = True
        except Exception as exc:  # noqa: BLE001 - scorecard reports anything
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        results.append(CheckResult(name=name, passed=passed,
                                   seconds=time.perf_counter() - start,
                                   detail=detail))
    if verbose:
        width = max(len(r.name) for r in results)
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"[{mark}] {r.name:<{width}}  {r.seconds * 1e3:7.1f} ms  {r.detail}")
        ok = sum(r.passed for r in results)
        print(f"\n{ok}/{len(results)} checks passed")
    return results
