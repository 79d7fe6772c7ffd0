"""Experiment harness shared by the ``benchmarks/`` suite.

Builds the paper's model variants, runs the measurements, and prints
the same rows the paper's figures report:

- **Original** — the undecomposed model,
- **Decomposed** — Tucker-decomposed at ratio 0.1 (the paper's baseline),
- **Fusion** — activation layer fusion only (AlexNet/VGG),
- **Skip-Opt** — skip-connection optimization only,
- **Skip-Opt+Fusion** — the full TeMCO pipeline (skip models).
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..core import TeMCOConfig, estimate_peak_internal, optimize
from ..data.synthetic import random_inputs
from ..decompose import DecompositionConfig, decompose_graph
from ..ir.graph import Graph
from ..models import MODEL_ZOO, build_model

__all__ = ["VariantSet", "build_variants", "variant_names_for", "format_table",
           "bar_chart", "geomean", "fast_mode", "use_tuned_fusion", "MIB"]

MIB = 1024 * 1024

#: TeMCO variant -> pipeline configuration
_VARIANT_CONFIGS: dict[str, TeMCOConfig] = {
    "fusion": TeMCOConfig(enable_skip_opt=False, enable_transforms=False,
                          enable_fusion=True),
    "skip_opt": TeMCOConfig(enable_skip_opt=True, enable_transforms=False,
                            enable_fusion=False),
    "skip_opt_fusion": TeMCOConfig(enable_skip_opt=True, enable_transforms=True,
                                   enable_fusion=True),
}

PAPER_LABELS = {
    "original": "Original",
    "decomposed": "Decomposed",
    "fusion": "Fusion",
    "skip_opt": "Skip-Opt",
    "skip_opt_fusion": "Skip-Opt+Fusion",
}


def fast_mode() -> bool:
    """Honour ``REPRO_BENCH_FAST=1`` to shrink benchmark workloads."""
    return os.environ.get("REPRO_BENCH_FAST", "0") not in ("0", "")


#: ambient tuned-tile lookup installed by :func:`use_tuned_fusion`;
#: ``(original graph, variant TeMCOConfig) -> site overrides | None``
_TUNED_LOOKUP: Callable[[Graph, TeMCOConfig],
                        "dict[str, tuple[int, int]] | None"] | None = None


@contextlib.contextmanager
def use_tuned_fusion(lookup: Callable[[Graph, TeMCOConfig],
                                      "dict[str, tuple[int, int]] | None"]):
    """Make ``build_variants`` fuse with tuned tiles for the ``with`` body.

    ``lookup`` is called once per fusing variant with the *original*
    (undecomposed) graph and that variant's :class:`TeMCOConfig`;
    returning a non-empty ``{lconv_name: (block_size, spatial_tile)}``
    mapping merges it into the variant's ``FusionConfig.site_overrides``
    (typically :func:`repro.tune.cached_overrides` curried over a
    cache — a miss returns ``None`` and the variant builds untuned).
    ``build_variants``' memo cache is cleared on entry and exit so
    tuned and untuned builds never alias.
    """
    global _TUNED_LOOKUP
    prev = _TUNED_LOOKUP
    _TUNED_LOOKUP = lookup
    _build_variants.cache_clear()
    try:
        yield
    finally:
        _TUNED_LOOKUP = prev
        _build_variants.cache_clear()


def _variant_config(original: Graph, config: TeMCOConfig) -> TeMCOConfig:
    """Apply the ambient tuned-tile lookup (if any) to one variant."""
    if _TUNED_LOOKUP is None or not config.enable_fusion:
        return config
    overrides = _TUNED_LOOKUP(original, config)
    if not overrides:
        return config
    merged = dict(config.fusion.site_overrides or {})
    merged.update(overrides)
    return replace(config, fusion=replace(config.fusion,
                                          site_overrides=merged))


def variant_names_for(model: str) -> list[str]:
    """The paper's Figure-10 bar set for one model (§4.1)."""
    spec = MODEL_ZOO[model]
    if spec.has_skip_connections:
        return ["original", "decomposed", "skip_opt", "skip_opt_fusion"]
    return ["original", "decomposed", "fusion"]


@dataclass(frozen=True)
class VariantSet:
    """All graph variants of one benchmark model."""

    model: str
    batch: int
    hw: int
    graphs: dict[str, Graph]

    def input_batch(self, seed: int = 0) -> dict[str, np.ndarray]:
        return random_inputs(self.graphs["original"], seed)

    def peak_internal(self, variant: str) -> int:
        return estimate_peak_internal(self.graphs[variant])

    def weight_bytes(self, variant: str) -> int:
        return self.graphs[variant].weight_bytes()


def build_variants(model: str, batch: int = 4, hw: int | None = None,
                   ratio: float = 0.1, seed: int = 0,
                   method: str = "tucker") -> VariantSet:
    """Build original/decomposed/TeMCO variants for one model.

    Cached on the resolved arguments: positional and keyword spellings,
    and ``hw=None`` and the model's default resolution, share one
    :class:`VariantSet`, so a model is factorised once per process.
    """
    if hw is None and model in MODEL_ZOO:
        hw = MODEL_ZOO[model].default_hw
    return _build_variants(model, batch, hw, ratio, seed, method)


@functools.lru_cache(maxsize=64)
def _build_variants(model: str, batch: int, hw: int | None, ratio: float,
                    seed: int, method: str) -> VariantSet:
    original = build_model(model, batch=batch, hw=hw, seed=seed)
    actual_hw = original.inputs[0].shape[2]
    decomposed = decompose_graph(
        original, DecompositionConfig(method=method, ratio=ratio, seed=seed))
    graphs = {"original": original, "decomposed": decomposed}
    for variant in variant_names_for(model):
        if variant in graphs:
            continue
        config = _variant_config(original, _VARIANT_CONFIGS[variant])
        optimized, _report = optimize(decomposed, config)
        graphs[variant] = optimized
    return VariantSet(model=model, batch=batch, hw=actual_hw, graphs=graphs)


def geomean(values: list[float]) -> float:
    arr = np.asarray(values, dtype=np.float64)
    if (arr <= 0).any():
        raise ValueError(f"geomean requires positive values, got {values}")
    return float(np.exp(np.log(arr).mean()))


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Plain-text table, right-aligned numerics, for bench stdout."""
    def fmt(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) if _numeric(c) else c.ljust(w)
                               for c, w in zip(row, widths)))
    return "\n".join(lines)


def _numeric(s: str) -> bool:
    try:
        float(s.rstrip("x%"))
        return True
    except ValueError:
        return False


def bar_chart(items: list[tuple[str, float]], *, width: int = 48,
              unit: str = "MiB", title: str = "") -> str:
    """Horizontal ASCII bar chart — the benchmarks' stand-in for the
    paper's figures (no plotting dependency)."""
    if not items:
        return title
    peak = max(value for _, value in items) or 1.0
    label_w = max(len(label) for label, _ in items)
    lines = [title] if title else []
    for label, value in items:
        bar = "#" * max(1, round(width * value / peak)) if value > 0 else ""
        lines.append(f"{label:<{label_w}} |{bar:<{width}}| {value:8.3f} {unit}")
    return "\n".join(lines)
