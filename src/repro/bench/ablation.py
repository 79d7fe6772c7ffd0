"""Ablation drivers for the design choices DESIGN.md calls out.

A1 — skip-opt thresholds (DISTANCE_THRESHOLD / COMPUTE_THRESHOLD):
     how selectivity changes what gets optimized (§4.2's ResNet note)
     and the peak the rest of the pipeline then reaches.
A2 — decomposition method/ratio: weight memory, fit error and peak
     internal memory across Tucker/CP/TT and rank ratios.
A4 — fused-kernel channel-block size: scratch bytes vs wall-clock, and
     per fused site the compiled block against the fastest block that
     fits the compiler's scratch budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core import (FusionConfig, SkipOptConfig, TeMCOConfig, optimize,
                    simulate)
from ..core.skip_opt import optimize_skip_connections
from ..data.synthetic import random_inputs
from ..decompose import DecompositionConfig, decompose_graph, decomposition_records
from ..ir.ops import tile_channels
from ..kernels import DEFAULT_BLOCK_SIZE, bind, site_scratch_bytes
from ..models import build_model
from ..runtime import InferenceSession
from .harness import MIB

__all__ = ["ThresholdPoint", "ablate_thresholds", "DecompositionPoint",
           "ablate_decomposition", "TilePoint", "ablate_tile_size",
           "TileSiteChoice", "tile_site_choices", "PERFBENCH_COMPILES"]


# ---------------------------------------------------------------------------
# A1: skip-opt thresholds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdPoint:
    distance_threshold: int
    compute_slack: float
    candidates: int
    optimized: int
    peak_mib: float


def ablate_thresholds(model: str = "densenet", batch: int = 2,
                      distance_thresholds: tuple[int, ...] = (2, 4, 8, 16, 32),
                      compute_slacks: tuple[float, ...] = (0.1, 1.0, 10.0),
                      seed: int = 0) -> list[ThresholdPoint]:
    """Sweep Algorithm 1's thresholds: skip-opt at each setting, then the
    rest of the pipeline (transforms, fusion, scheduling) on its result.
    A restore copy pays off only once fusion collapses it, so the peak
    is the pipeline's; skip-opt alone raises it at every setting."""
    original = build_model(model, batch=batch, seed=seed)
    decomposed = decompose_graph(original, DecompositionConfig(seed=seed))
    points = []
    for dist in distance_thresholds:
        for slack in compute_slacks:
            work = decomposed.clone()
            stats = optimize_skip_connections(
                work, SkipOptConfig(distance_threshold=dist,
                                    compute_slack=slack))
            _, report = optimize(work, TeMCOConfig(enable_skip_opt=False))
            points.append(ThresholdPoint(
                distance_threshold=dist, compute_slack=slack,
                candidates=stats.candidates, optimized=stats.optimized,
                peak_mib=report.peak_after / MIB))
    return points


# ---------------------------------------------------------------------------
# A2: decomposition method / ratio
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionPoint:
    method: str
    ratio: float
    weight_mib: float
    mean_fit_error: float
    peak_decomposed_mib: float
    peak_optimized_mib: float


def ablate_decomposition(model: str = "vgg16", batch: int = 2, hw: int = 32,
                         methods: tuple[str, ...] = ("tucker", "cp", "tt"),
                         ratios: tuple[float, ...] = (0.05, 0.1, 0.25, 0.5),
                         seed: int = 0) -> list[DecompositionPoint]:
    """Weight/fit/memory trade-off across decomposition methods & ratios."""
    original = build_model(model, batch=batch, hw=hw, seed=seed)
    points = []
    for method in methods:
        for ratio in ratios:
            decomposed = decompose_graph(
                original, DecompositionConfig(method=method, ratio=ratio,
                                              seed=seed, cp_iters=15))
            optimized, report = optimize(decomposed)
            records = decomposition_records(decomposed)
            errors = [r.fit_error for r in records if np.isfinite(r.fit_error)]
            points.append(DecompositionPoint(
                method=method, ratio=ratio,
                weight_mib=decomposed.weight_bytes() / MIB,
                mean_fit_error=float(np.mean(errors)) if errors else float("nan"),
                peak_decomposed_mib=report.peak_before / MIB,
                peak_optimized_mib=report.peak_after / MIB))
    return points


# ---------------------------------------------------------------------------
# A4: fused-kernel tile size
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TilePoint:
    block_size: int
    scratch_mib: float
    seconds: float


@dataclass(frozen=True)
class TileSiteChoice:
    """One fused site: its compiled block and the fastest swept block,
    among all of them and among those whose tile fits the budget of
    :func:`~repro.core.fusion.widen_tiles` next to the site's live
    bytes.  ``ms`` maps each swept block to its best time."""

    compile: str
    site: str
    compiled: int
    ms: dict[int, float]
    feasible: tuple[int, ...]

    def near(self, blocks) -> bool:
        """Is the compiled block within 5 % of the best of ``blocks``?"""
        return self.ms[self.compiled] <= 1.05 * min(self.ms[b] for b in blocks)


#: the perfbench graph workloads' ``(model, method, batch)`` compiles
PERFBENCH_COMPILES = (
    *((m, "tucker", 4) for m in ("alexnet", "densenet", "unet_small",
                                 "wavenet2d", "fractalnet")),
    ("alexnet", "tt", 32), ("densenet", "tucker", 32), ("unet_small", "cp", 32))


def tile_site_choices(compiles=PERFBENCH_COMPILES, hw: int = 32,
                      block_sizes: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256),
                      repeats: int = 5, seed: int = 0) -> list[TileSiteChoice]:
    """Time every fused site of each compile at each swept block (and
    its compiled one); the budget is ``widen_tiles``' own, the
    scratch-counted peak at ``DEFAULT_BLOCK_SIZE`` tiles."""
    choices = []
    rng = np.random.default_rng(seed)
    for model, method, batch in compiles:
        graph, _report = optimize(decompose_graph(
            build_model(model, batch=batch, hw=hw, seed=seed),
            DecompositionConfig(method=method, ratio=0.1, seed=seed)))
        schedule = simulate(graph)
        sites = [(i, node) for i, node in enumerate(graph.nodes)
                 if node.op in ("fused_block", "fused_restore")]
        budget = max([schedule.peak_bytes] + [
            schedule.live[i] + site_scratch_bytes(node, DEFAULT_BLOCK_SIZE)
            for i, node in sites])
        for i, node in sites:
            compiled = node.attrs["block_size"]
            x = [rng.normal(size=v.shape).astype(v.dtype.np)
                 for v in node.inputs]
            ms = {}
            for block in sorted({min(b, tile_channels(node))
                                 for b in block_sizes} | {compiled}):
                node.attrs["block_size"] = block
                kernel = bind(node)
                kernel(x)
                ms[block] = 1e3 * min(_seconds(kernel, x) for _ in range(repeats))
            node.attrs["block_size"] = compiled
            feasible = tuple(b for b in ms if schedule.live[i]
                             + site_scratch_bytes(node, b) <= budget)
            choices.append(TileSiteChoice(
                f"{model}/{method}/b{batch}", node.name, compiled, ms, feasible))
    return choices


def _seconds(kernel, x) -> float:
    start = time.perf_counter()
    kernel(x)
    return time.perf_counter() - start


def ablate_tile_size(model: str = "vgg16", batch: int = 4, hw: int = 32,
                     block_sizes: tuple[int, ...] = (4, 16, 32, 64, 256),
                     repeats: int = 3, seed: int = 0) -> list[TilePoint]:
    """Channel-block width of Listing 1's tiles: scratch vs wall-clock."""
    original = build_model(model, batch=batch, hw=hw, seed=seed)
    decomposed = decompose_graph(original, DecompositionConfig(seed=seed))
    inputs = random_inputs(original, seed)
    points = []
    for block in block_sizes:
        optimized, _report = optimize(
            decomposed, TeMCOConfig(fusion=FusionConfig(block_size=block)))
        session = InferenceSession(optimized)
        timing = session.time_inference(inputs, warmup=1, repeats=repeats)
        profile = session.run(inputs).memory
        points.append(TilePoint(block_size=block,
                                scratch_mib=profile.peak_scratch_bytes / MIB,
                                seconds=timing.median))
    return points
