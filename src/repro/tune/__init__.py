"""Autotuning + persistent compiled-plan cache for fused-kernel tiles.

The fused kernels (paper Listing 1) expose a tile size that trades
scratch memory against GEMM efficiency.  This package turns that knob
from a hardcoded default into a measured, cached decision:

- :mod:`repro.tune.tuner` — times every valid
  ``(block_size, spatial_tile)`` pair of every fused kernel, keeps the
  fastest, A/B-guards the whole graph against the tiles as compiled;
  plus the compiler-side hooks (:func:`tune_model`,
  :func:`cached_overrides`),
- :mod:`repro.tune.cache` — content-addressed persistent cache keyed
  on graph fingerprint × compiler settings × hardware fingerprint,
  storing tuned configs *and* serialized compiled plans.

See ``docs/tuning.md`` for the search space, cache layout and the
hardware-fingerprint caveats.
"""

from .cache import (CACHE_VERSION, SiteRecord, TuneCache, TuneRecord,
                    default_cache_dir)
from .fingerprint import hardware_digest, hardware_fingerprint
from .tuner import (TuneConfig, TuneResult, apply_overrides, cached_overrides,
                    collect_sites, load_cached_plan, site_candidates,
                    tune_graph, tune_model)

__all__ = [
    "CACHE_VERSION",
    "TuneCache",
    "TuneRecord",
    "SiteRecord",
    "default_cache_dir",
    "hardware_fingerprint",
    "hardware_digest",
    "TuneConfig",
    "TuneResult",
    "collect_sites",
    "site_candidates",
    "tune_graph",
    "apply_overrides",
    "tune_model",
    "cached_overrides",
    "load_cached_plan",
]
