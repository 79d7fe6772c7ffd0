"""The autotuner: measured tile selection + cache/compiler integration.

Two tuning modes over an optimized (post-fusion) graph:

- ``per-site`` (default) — each fused kernel is timed *in isolation*
  on its real weights and representative input shapes; the greedy
  search picks the fastest ``(block_size, spatial_tile)`` per site.
- ``global`` — one shared pair, scored by whole-graph wall-clock; far
  fewer trials, useful when sites are many and similar.

Either way the tuner ends with a whole-graph A/B guard: the tuned
graph is re-timed against the default configuration and *falls back*
to the default tiles if it lost (measurement noise or per-site wins
that do not compose), so accepting a tuning result can never make the
model slower than the untuned fused path.  Peak internal-tensor bytes
are unaffected by tile choices by construction (tiles are scratch, not
internal tensors); the record stores the estimate as evidence.

Every trial and every selection is emitted through :mod:`repro.obs`
(pass name ``"tune"``), so ``repro trace`` shows why each tile won.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

import numpy as np

from ..core import TeMCOConfig, estimate_peak_internal, optimize
from ..data.synthetic import random_inputs
from ..decompose import DecompositionConfig, decompose_graph
from ..ir.graph import Graph
from ..ir.node import Node
from ..kernels import DEFAULT_BLOCK_SIZE, fused_block, fused_restore
from ..obs import get_tracer
from ..runtime import InferenceSession
from .cache import SiteRecord, TuneCache, TuneRecord, new_record
from .cost_model import (DEFAULT_BLOCK_SIZES, DEFAULT_SPATIAL_TILES, SiteSpec,
                         prune_candidates, site_candidates)
from .search import Trial, greedy_search

logger = logging.getLogger(__name__)

__all__ = ["TuneConfig", "TuneResult", "collect_sites", "tune_graph",
           "apply_overrides", "tune_model", "cached_overrides",
           "load_cached_plan"]


@dataclass(frozen=True)
class TuneConfig:
    """Search-space and budget knobs for one tuning run."""

    mode: str = "per-site"  #: ``per-site`` or ``global``
    #: measured trials per site (``per-site``) or in total (``global``)
    budget: int = 12
    #: timing repeats per trial; the minimum is kept (least-noise estimator)
    repeats: int = 2
    block_sizes: tuple[int, ...] = DEFAULT_BLOCK_SIZES
    spatial_tiles: tuple[int, ...] = DEFAULT_SPATIAL_TILES
    #: candidates surviving cost-model pruning, per site
    keep: int = 8
    #: consecutive non-improving trials before the climb stops
    patience: int = 3
    #: optional hard cap on per-site scratch bytes (None = uncapped; the
    #: C' clamp already bounds scratch at one full-width tile)
    max_scratch_bytes: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("per-site", "global"):
            raise ValueError(f"bad tune mode {self.mode!r}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")


@dataclass
class TuneResult:
    """Chosen tiles for one optimized graph."""

    mode: str
    sites: list[SiteRecord] = field(default_factory=list)

    @property
    def overrides(self) -> dict[str, tuple[int, int]]:
        return {s.site_key: (s.block_size, s.spatial_tile) for s in self.sites}

    @property
    def total_trials(self) -> int:
        return sum(s.trials for s in self.sites)


def collect_sites(graph: Graph) -> list[Node]:
    """The fused-kernel nodes of an optimized graph, schedule order."""
    return [n for n in graph.nodes if n.op in ("fused_block", "fused_restore")]


def apply_overrides(graph: Graph,
                    overrides: dict[str, tuple[int, int]]) -> int:
    """Patch fused nodes' tile attrs in place; returns #sites patched."""
    patched = 0
    for node in collect_sites(graph):
        key = str((node.attrs.get("fused_from") or [node.name])[0])
        if key not in overrides:
            continue
        block, tile = overrides[key]
        node.attrs["block_size"] = min(max(1, int(block)),
                                       int(node.params["w1"].shape[0]))
        node.attrs["spatial_tile"] = int(tile)
        patched += 1
    return patched


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _site_measurer(node: Node, repeats: int,
                   seed: int) -> Callable[[int, int], float]:
    """Time the fused kernel directly on a representative input."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=node.inputs[0].shape).astype(node.inputs[0].dtype.np)
    kwargs: dict[str, Any] = dict(
        act=node.attrs.get("act"),
        pool=node.attrs.get("pool"),
        upsample=int(node.attrs.get("upsample", 0) or 0),
        act_params=node.attrs.get("act_params"))

    def measure(block_size: int, spatial_tile: int) -> float:
        best = float("inf")
        for rep in range(max(1, repeats) + 1):  # +1 warmup, discarded
            start = time.perf_counter()
            if node.op == "fused_block":
                fused_block(x, node.params["w1"], node.params.get("b1"),
                            node.params["w2"], node.params.get("b2"),
                            block_size=block_size, spatial_tile=spatial_tile,
                            **kwargs)
            else:
                fused_restore(x, node.params["w1"], node.params.get("b1"),
                              block_size=block_size, spatial_tile=spatial_tile,
                              **kwargs)
            elapsed = time.perf_counter() - start
            if rep > 0:
                best = min(best, elapsed)
        return best

    return measure


def _graph_seconds(graph: Graph, *, repeats: int, seed: int) -> float:
    timing = InferenceSession(graph).time_inference(
        random_inputs(graph, seed), warmup=1, repeats=max(1, repeats))
    return timing.best


# ---------------------------------------------------------------------------
# search drivers
# ---------------------------------------------------------------------------

def tune_graph(optimized: Graph,
               config: TuneConfig | None = None) -> TuneResult:
    """Pick tile configurations for every fusion site of ``optimized``.

    The graph is not modified; apply the result with
    :func:`apply_overrides` or via ``FusionConfig(site_overrides=...)``.
    """
    config = config or TuneConfig()
    tracer = get_tracer()
    result = TuneResult(mode=config.mode)
    sites = collect_sites(optimized)
    if not sites:
        return result
    with tracer.span("tune", category="tuner", graph=optimized.name,
                     mode=config.mode, sites=len(sites)):
        if config.mode == "per-site":
            for node in sites:
                result.sites.append(_tune_site(node, config, tracer))
        else:
            result.sites.extend(_tune_global(optimized, sites, config, tracer))
    return result


def _tune_site(node: Node, config: TuneConfig, tracer) -> SiteRecord:
    site = SiteSpec.from_node(node)
    candidates = prune_candidates(
        site, site_candidates(site, config.block_sizes, config.spatial_tiles),
        keep=config.keep, max_scratch_bytes=config.max_scratch_bytes)
    default_key = (min(DEFAULT_BLOCK_SIZE, site.c_prime), 0)
    measure = _site_measurer(node, config.repeats, config.seed)

    def on_trial(trial: Trial) -> None:
        tracer.decision("tune", site.name, "trial", "measured",
                        block_size=trial.block_size,
                        spatial_tile=trial.spatial_tile,
                        seconds=trial.seconds,
                        scratch_bytes=trial.scratch_bytes)

    with tracer.span("tune.site", category="tuner", site=site.name,
                     candidates=len(candidates)):
        outcome = greedy_search(candidates, measure, budget=config.budget,
                                patience=config.patience,
                                seeds=[default_key], on_trial=on_trial)
    baseline = outcome.trial_for(default_key) or outcome.best
    best = outcome.best
    tracer.decision("tune", site.name, "select", "measured_best",
                    block_size=best.block_size,
                    spatial_tile=best.spatial_tile,
                    seconds=best.seconds,
                    baseline_seconds=baseline.seconds,
                    trials=outcome.measured)
    logger.info("tune: %s -> block %d tile %d (%.3f ms vs default %.3f ms, "
                "%d trials)", site.name, best.block_size, best.spatial_tile,
                best.seconds * 1e3, baseline.seconds * 1e3, outcome.measured)
    return SiteRecord(
        site_key=site.site_key, node=site.name,
        block_size=best.block_size, spatial_tile=best.spatial_tile,
        seconds=best.seconds, baseline_seconds=baseline.seconds,
        scratch_bytes=best.scratch_bytes,
        baseline_scratch_bytes=baseline.scratch_bytes,
        trials=outcome.measured)


def _tune_global(optimized: Graph, sites: list[Node], config: TuneConfig,
                 tracer) -> list[SiteRecord]:
    """One shared tile pair scored by whole-graph wall-clock."""
    specs = [SiteSpec.from_node(n) for n in sites]
    blocks = sorted({min(max(1, b), max(s.c_prime for s in specs))
                     for b in config.block_sizes})
    tiles = sorted({int(t) for t in config.spatial_tiles if t >= 0})
    pairs = [(b, t) for t in tiles for b in blocks]
    work = optimized.clone(f"{optimized.name}.tune")
    measured: list[tuple[int, int, float]] = []

    def measure(block: int, tile: int) -> float:
        apply_overrides(work, {s.site_key: (block, tile) for s in specs})
        seconds = _graph_seconds(work, repeats=config.repeats,
                                 seed=config.seed)
        tracer.decision("tune", optimized.name, "trial", "measured_global",
                        block_size=block, spatial_tile=tile, seconds=seconds)
        measured.append((block, tile, seconds))
        return seconds

    default_key = (DEFAULT_BLOCK_SIZE, 0)
    ordered = sorted(pairs, key=lambda p: (p != default_key, p))
    for block, tile in ordered[:max(1, config.budget)]:
        measure(block, tile)
    best_block, best_tile, best_secs = min(measured, key=lambda m: m[2])
    baseline = next((m for m in measured
                     if (m[0], m[1]) == default_key), measured[0])
    tracer.decision("tune", optimized.name, "select", "measured_best_global",
                    block_size=best_block, spatial_tile=best_tile,
                    seconds=best_secs, baseline_seconds=baseline[2],
                    trials=len(measured))
    records = []
    for spec in specs:
        blk = min(best_block, spec.c_prime)
        records.append(SiteRecord(
            site_key=spec.site_key, node=spec.name,
            block_size=blk, spatial_tile=best_tile,
            seconds=best_secs, baseline_seconds=baseline[2],
            scratch_bytes=0, baseline_scratch_bytes=0,
            trials=len(measured) if spec is specs[0] else 0))
    return records


# ---------------------------------------------------------------------------
# cache-aware entry points
# ---------------------------------------------------------------------------

def _cache_extra(decomposition: DecompositionConfig, temco: TeMCOConfig,
                 config: TuneConfig) -> dict[str, Any]:
    """The non-graph inputs that determine a tuning result.

    Deliberately excludes the pipeline enable/disable flags: overrides
    are keyed by lconv name, so a variant that fuses only a subset of
    sites simply ignores the extra entries — one tuning run serves the
    fusion-only and full-pipeline variants alike.  (The cached *plan*
    is always the full default pipeline's output.)
    """
    fusion = temco.fusion
    return {
        "decomposition": asdict(decomposition),
        "concat_strategy": temco.concat_strategy,
        "mode": config.mode,
        "block_sizes": list(config.block_sizes),
        "spatial_tiles": list(config.spatial_tiles),
        "fusion_defaults": [fusion.block_size, fusion.spatial_tile,
                            fusion.allow_pool, fusion.allow_upsample,
                            fusion.require_activation, fusion.allow_epilogue],
    }


def tune_model(original: Graph, *,
               cache: TuneCache | None = None,
               decomposition: DecompositionConfig | None = None,
               temco: TeMCOConfig | None = None,
               config: TuneConfig | None = None,
               force: bool = False) -> tuple[Graph, TuneRecord, bool]:
    """End-to-end: decompose → optimize → tune → cache.

    Returns ``(compiled plan, record, cache_hit)``.  On a hit both the
    tuner *and* the compiler are skipped — the plan graph comes
    straight off disk.
    """
    cache = cache or TuneCache()
    decomposition = decomposition or DecompositionConfig()
    temco = temco or TeMCOConfig()
    config = config or TuneConfig()
    tracer = get_tracer()
    key = cache.key_for(original,
                        extra=_cache_extra(decomposition, temco, config))

    if not force:
        record = cache.load(key)
        plan = cache.load_plan(key) if record is not None else None
        if record is not None and plan is not None:
            tracer.decision("tune", original.name, "cache_hit", "key_match",
                            key=key, sites=len(record.sites))
            logger.info("tune cache hit for %s (key %s)", original.name, key)
            return plan, record, True
    tracer.decision("tune", original.name, "cache_miss",
                    "forced" if force else "no_entry", key=key)

    decomposed = decompose_graph(original, decomposition)
    optimized, _report = optimize(decomposed, temco)
    result = tune_graph(optimized, config)

    record = new_record(key, original.name, mode=config.mode,
                        budget=config.budget)
    record.sites = result.sites
    record.total_trials = result.total_trials

    if result.sites:
        # whole-graph A/B guard: tuned tiles must beat the default tiles
        record.default_seconds = _graph_seconds(
            optimized, repeats=config.repeats, seed=config.seed)
        apply_overrides(optimized, result.overrides)
        record.tuned_seconds = _graph_seconds(
            optimized, repeats=config.repeats, seed=config.seed)
        if record.tuned_seconds > record.default_seconds:
            apply_overrides(optimized, {s.site_key: (DEFAULT_BLOCK_SIZE, 0)
                                        for s in result.sites})
            for s in record.sites:
                s.block_size, s.spatial_tile = DEFAULT_BLOCK_SIZE, 0
            record.fell_back_to_default = True
            tracer.decision("tune", original.name, "fallback",
                            "default_not_beaten",
                            tuned_seconds=record.tuned_seconds,
                            default_seconds=record.default_seconds)
            logger.info("tune: %s fell back to default tiles (%.3f ms > "
                        "%.3f ms)", original.name,
                        record.tuned_seconds * 1e3,
                        record.default_seconds * 1e3)
    record.peak_internal_bytes = estimate_peak_internal(optimized)

    cache.store(record, plan=optimized)
    tracer.decision("tune", original.name, "cache_store", "tuned",
                    key=key, sites=len(record.sites),
                    trials=record.total_trials)
    return optimized, record, False


def load_cached_plan(original: Graph, *,
                     cache: TuneCache | None = None,
                     decomposition: DecompositionConfig | None = None,
                     temco: TeMCOConfig | None = None,
                     config: TuneConfig | None = None,
                     ) -> tuple[Graph, TuneRecord] | None:
    """The cached compiled plan + record for ``original``; None on a miss.

    Lookup-only companion of :func:`tune_model` — never tunes, never
    compiles.
    """
    cache = cache or TuneCache()
    key = cache.key_for(original, extra=_cache_extra(
        decomposition or DecompositionConfig(), temco or TeMCOConfig(),
        config or TuneConfig()))
    record = cache.load(key)
    plan = cache.load_plan(key) if record is not None else None
    if record is None or plan is None:
        get_tracer().decision("tune", original.name, "cache_miss",
                              "no_entry", key=key)
        return None
    get_tracer().decision("tune", original.name, "cache_hit", "key_match",
                          key=key, sites=len(record.sites))
    return plan, record


def cached_overrides(original: Graph, *,
                     cache: TuneCache | None = None,
                     decomposition: DecompositionConfig | None = None,
                     temco: TeMCOConfig | None = None,
                     config: TuneConfig | None = None,
                     ) -> dict[str, tuple[int, int]] | None:
    """Look up tuned site overrides without tuning; None on a miss.

    This is the compiler-side hook: ``TeMCOCompiler`` can consult it to
    fuse with tuned tiles while recompiling from source.
    """
    cache = cache or TuneCache()
    record = cache.load(cache.key_for(
        original, extra=_cache_extra(decomposition or DecompositionConfig(),
                                     temco or TeMCOConfig(),
                                     config or TuneConfig())))
    if record is None or record.fell_back_to_default:
        return {} if record is not None else None
    return record.overrides
