"""The autotuner: measured tile selection + cache/compiler integration.

Each fused kernel of an optimized (post-fusion) graph is timed *in
isolation* on its real weights and a representative input, once for
every valid ``(block_size, spatial_tile)`` pair — the whole space is at
most 7 block widths x 4 spatial tiles of a sub-millisecond kernel, so
it is enumerated, not searched — and the fastest pair wins.

The tuner ends with a whole-graph A/B guard: the tuned graph is
re-timed against the graph as compiled and *falls back* to the
compiled tiles if it lost (measurement noise or per-site wins that do
not compose), so accepting a tuning result can never make the model
slower than the untuned fused path.  Peak internal-tensor bytes are
unaffected by tile choices by construction (tiles are scratch, not
internal tensors); the record stores the estimate as evidence.  The
scratch-counted peak is bounded only for the tiles as compiled
(:func:`repro.core.fusion.widen_tiles`); a tuned tile may exceed it.

Every trial and every selection is emitted through :mod:`repro.obs`
(pass name ``"tune"``), so ``repro trace`` shows why each tile won.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from ..core import TeMCOConfig, estimate_peak_internal, optimize
from ..data.synthetic import random_inputs
from ..decompose import DecompositionConfig, decompose_graph
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.ops import tile_channels
from ..kernels import DEFAULT_BLOCK_SIZE, bind, site_scratch_bytes
from ..kernels.fused import spatially_tileable
from ..obs import get_tracer
from ..runtime import InferenceSession
from .cache import SiteRecord, TuneCache, TuneRecord, new_record

logger = logging.getLogger(__name__)

__all__ = ["TuneConfig", "TuneResult", "collect_sites", "site_candidates",
           "tune_graph", "apply_overrides", "tune_model", "cached_overrides",
           "load_cached_plan"]

#: Channel-block widths tried at every site (clamped to its C').
DEFAULT_BLOCK_SIZES = (4, 8, 16, 32, 64, 128, 256)
#: Spatial tile edges tried at every site (0 = channel blocking only); a
#: tile survives only where the kernel would actually apply it exactly.
SPATIAL_TILES = (0, 8, 16, 32)


@dataclass(frozen=True)
class TuneConfig:
    """The grid one tuning run measures, and how carefully."""

    #: timed calls per trial after one warm-up; the minimum is kept
    #: (least-noise estimator)
    repeats: int = 2
    block_sizes: tuple[int, ...] = DEFAULT_BLOCK_SIZES
    seed: int = 0

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")


@dataclass
class TuneResult:
    """Chosen tiles for one optimized graph."""

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


def _site_key(node: Node) -> str:
    """The anchoring lconv's name — stable across recompiles."""
    return str((node.attrs.get("fused_from") or [node.name])[0])


def _compiled_tile(node: Node) -> tuple[int, int]:
    """The ``(block_size, spatial_tile)`` pair the node carries."""
    return (int(node.attrs.get("block_size", DEFAULT_BLOCK_SIZE)),
            int(node.attrs.get("spatial_tile", 0) or 0))


def apply_overrides(graph: Graph,
                    overrides: dict[str, tuple[int, int]]) -> int:
    """Patch fused nodes' tile attrs in place; returns #sites patched."""
    patched = 0
    for node in collect_sites(graph):
        key = _site_key(node)
        if key not in overrides:
            continue
        block, tile = overrides[key]
        node.attrs["block_size"] = min(max(1, int(block)),
                                       tile_channels(node))
        node.attrs["spatial_tile"] = int(tile)
        patched += 1
    return patched


def site_candidates(node: Node,
                    block_sizes: tuple[int, ...] = DEFAULT_BLOCK_SIZES,
                    ) -> list[tuple[int, int]]:
    """Valid, deduplicated ``(block_size, spatial_tile)`` pairs of a site.

    Block sizes clamp to ``C'`` (so 128 and 256 collapse onto one
    candidate for a 96-channel site); spatial tiles survive only where
    the kernel would apply them exactly rather than silently falling
    back to channel-only blocking.
    """
    _n, _r, h, w = node.inputs[0].shape
    c_prime = tile_channels(node)
    blocks = sorted({min(max(1, int(b)), c_prime) for b in block_sizes})
    tiles = [0] + sorted({int(t) for t in SPATIAL_TILES if t > 0
                          and spatially_tileable(h, w, t,
                                                 node.attrs.get("pool"))})
    return [(b, t) for t in tiles for b in blocks]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _site_seconds(node: Node, x: np.ndarray, block_size: int,
                  spatial_tile: int, repeats: int) -> float:
    """Best of ``repeats`` timed kernel calls after one warm-up; the
    kernel is bound, as a session binds it, before the clock starts."""
    trial = node.clone(node.name, node.inputs, node.output)
    trial.attrs.update(block_size=block_size, spatial_tile=spatial_tile)
    kernel = bind(trial)
    best = float("inf")
    for rep in range(repeats + 1):
        start = time.perf_counter()
        kernel([x])
        elapsed = time.perf_counter() - start
        if rep > 0:  # the first call is the warm-up
            best = min(best, elapsed)
    return best


def _graph_seconds(graph: Graph, *, repeats: int, seed: int) -> float:
    timing = InferenceSession(graph).time_inference(
        random_inputs(graph, seed), warmup=1, repeats=repeats)
    return timing.best


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

def tune_graph(optimized: Graph,
               config: TuneConfig | None = None) -> TuneResult:
    """Pick tile configurations for every fusion site of ``optimized``.

    The graph is not modified; apply the result with
    :func:`apply_overrides` or via ``FusionConfig(site_overrides=...)``.
    """
    config = config or TuneConfig()
    tracer = get_tracer()
    result = TuneResult()
    sites = collect_sites(optimized)
    if not sites:
        return result
    with tracer.span("tune", category="tuner", graph=optimized.name,
                     sites=len(sites)):
        for node in sites:
            result.sites.append(_tune_site(node, config, tracer))
    return result


def _tune_site(node: Node, config: TuneConfig, tracer) -> SiteRecord:
    """Time every candidate of one site; the fastest wins, a tie goes
    to the tile the graph was compiled with."""
    compiled = _compiled_tile(node)
    candidates = site_candidates(node, config.block_sizes)
    if compiled not in candidates:  # always price the baseline
        candidates.insert(0, compiled)
    value = node.inputs[0]
    x = np.random.default_rng(config.seed).normal(
        size=value.shape).astype(value.dtype.np)

    def scratch(tile: tuple[int, int]) -> int:
        return site_scratch_bytes(node, *tile)

    seconds: dict[tuple[int, int], float] = {}
    with tracer.span("tune.site", category="tuner", site=node.name,
                     candidates=len(candidates)):
        for block, tile in candidates:
            seconds[block, tile] = _site_seconds(node, x, block, tile,
                                                 config.repeats)
            tracer.decision("tune", node.name, "trial", "measured",
                            block_size=block, spatial_tile=tile,
                            seconds=seconds[block, tile],
                            scratch_bytes=scratch((block, tile)))
    best = min(candidates, key=lambda c: (seconds[c], c != compiled))
    tracer.decision("tune", node.name, "select", "measured_best",
                    block_size=best[0], spatial_tile=best[1],
                    seconds=seconds[best],
                    baseline_seconds=seconds[compiled],
                    trials=len(candidates))
    logger.info("tune: %s -> block %d tile %d (%.3f ms vs compiled %.3f ms, "
                "%d trials)", node.name, *best, seconds[best] * 1e3,
                seconds[compiled] * 1e3, len(candidates))
    return SiteRecord(
        site_key=_site_key(node), node=node.name,
        block_size=best[0], spatial_tile=best[1],
        seconds=seconds[best], baseline_seconds=seconds[compiled],
        scratch_bytes=scratch(best),
        baseline_scratch_bytes=scratch(compiled),
        trials=len(candidates))


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
    return {
        "decomposition": asdict(decomposition),
        "block_sizes": list(config.block_sizes),
        "spatial_tiles": list(SPATIAL_TILES),
        "fusion_block_size": temco.fusion.block_size,
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

    record = new_record(key, original.name)
    record.sites = result.sites
    record.total_trials = result.total_trials

    if result.sites:
        # whole-graph A/B guard: tuned tiles must beat the compiled ones
        compiled = {_site_key(n): _compiled_tile(n)
                    for n in collect_sites(optimized)}
        record.default_seconds = _graph_seconds(
            optimized, repeats=config.repeats, seed=config.seed)
        apply_overrides(optimized, result.overrides)
        record.tuned_seconds = _graph_seconds(
            optimized, repeats=config.repeats, seed=config.seed)
        if record.tuned_seconds > record.default_seconds:
            apply_overrides(optimized, compiled)
            for s in record.sites:
                s.block_size, s.spatial_tile = compiled[s.site_key]
            record.fell_back_to_default = True
            tracer.decision("tune", original.name, "fallback",
                            "default_not_beaten",
                            tuned_seconds=record.tuned_seconds,
                            default_seconds=record.default_seconds)
            logger.info("tune: %s fell back to the compiled tiles (%.3f ms "
                        "> %.3f ms)", original.name,
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

    Passed as ``FusionConfig(site_overrides=...)``, it makes
    :func:`repro.core.optimize` fuse with tuned tiles while recompiling
    from source.
    """
    cache = cache or TuneCache()
    record = cache.load(cache.key_for(
        original, extra=_cache_extra(decomposition or DecompositionConfig(),
                                     temco or TeMCOConfig(),
                                     config or TuneConfig())))
    if record is None or record.fell_back_to_default:
        return {} if record is not None else None
    return record.overrides
