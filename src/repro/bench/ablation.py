"""Ablation drivers for the design choices DESIGN.md calls out.

A1 — skip-opt thresholds (DISTANCE_THRESHOLD / COMPUTE_THRESHOLD):
     how selectivity changes what gets optimized (§4.2's ResNet note).
A2 — decomposition method/ratio: weight memory, fit error and peak
     internal memory across Tucker/CP/TT and rank ratios.
A4 — fused-kernel channel-block size: scratch bytes vs wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import (FusionConfig, SkipOptConfig, TeMCOConfig,
                    estimate_peak_internal, optimize)
from ..core.skip_opt import optimize_skip_connections
from ..data.synthetic import random_inputs
from ..decompose import DecompositionConfig, decompose_graph, decomposition_records
from ..models import build_model
from ..runtime import InferenceSession
from .harness import MIB

__all__ = ["ThresholdPoint", "ablate_thresholds", "DecompositionPoint",
           "ablate_decomposition", "TilePoint", "ablate_tile_size",
           "TunedTileChoice", "tuned_tile_choices"]


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
    """Sweep Algorithm 1's thresholds; skip-opt only (no fusion), so the
    peak differences are attributable to the guard settings."""
    original = build_model(model, batch=batch, seed=seed)
    decomposed = decompose_graph(original, DecompositionConfig(seed=seed))
    points = []
    for dist in distance_thresholds:
        for slack in compute_slacks:
            work = decomposed.clone()
            stats = optimize_skip_connections(
                work, SkipOptConfig(distance_threshold=dist,
                                    compute_slack=slack, global_check=True))
            points.append(ThresholdPoint(
                distance_threshold=dist, compute_slack=slack,
                candidates=stats.candidates, optimized=stats.optimized,
                peak_mib=estimate_peak_internal(work) / MIB))
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
class TunedTileChoice:
    """What the autotuner picked for one fusion site."""

    site: str
    block_size: int
    spatial_tile: int
    best_ms: float
    default_ms: float


def tuned_tile_choices(model: str = "vgg16", batch: int = 4, hw: int = 32,
                       repeats: int = 1, seed: int = 0,
                       ) -> list[TunedTileChoice]:
    """The autotuner's per-site picks on the same fused graph the A4
    sweep times — lets the ablation report show where the measured
    optimum lands relative to the swept grid."""
    from ..tune import TuneConfig, tune_graph
    original = build_model(model, batch=batch, hw=hw, seed=seed)
    decomposed = decompose_graph(original, DecompositionConfig(seed=seed))
    optimized, _report = optimize(decomposed)
    result = tune_graph(optimized, TuneConfig(repeats=repeats, seed=seed))
    return [TunedTileChoice(site=s.site_key, block_size=s.block_size,
                            spatial_tile=s.spatial_tile,
                            best_ms=s.seconds * 1e3,
                            default_ms=s.baseline_seconds * 1e3)
            for s in result.sites]


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
