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

import functools
import os
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ..core import TeMCOConfig, estimate_peak_internal, optimize
from ..data.synthetic import random_inputs
from ..decompose import DecompositionConfig, decompose_graph
from ..ir.graph import Graph
from ..models import MODEL_ZOO, build_model

__all__ = ["VariantSet", "build_variants", "variant_names_for", "format_table",
           "bar_chart", "geomean", "fast_mode", "MIB"]

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


def variant_names_for(model: str) -> list[str]:
    """The paper's Figure-10 bar set for one model (§4.1)."""
    spec = MODEL_ZOO[model]
    if spec.has_skip_connections:
        return ["original", "decomposed", "skip_opt", "skip_opt_fusion"]
    return ["original", "decomposed", "fusion"]


@dataclass(frozen=True)
class VariantSet:
    """All graph variants of one benchmark model.

    ``graphs`` is read-only: :func:`build_variants` hands one cached set
    to every caller, so a swap in place would leak into later callers.
    Derive a changed set with ``dataclasses.replace(vs, graphs={...})``.
    """

    model: str
    batch: int
    hw: int
    graphs: Mapping[str, Graph]

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
        optimized, _report = optimize(decomposed, _VARIANT_CONFIGS[variant])
        graphs[variant] = optimized
    return VariantSet(model=model, batch=batch, hw=actual_hw,
                      graphs=MappingProxyType(graphs))


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
