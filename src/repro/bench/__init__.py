"""Benchmark harness: variant building, figure drivers, ablations."""

from .ablation import (PERFBENCH_COMPILES, DecompositionPoint,
                       ThresholdPoint, TilePoint, TileSiteChoice,
                       ablate_decomposition, ablate_thresholds,
                       ablate_tile_size, tile_site_choices)
from .figures import (Figure4Result, Figure10Row, Figure11Row, Figure12Row,
                      figure4, figure10, figure11, figure12,
                      internal_reduction_geomean, overhead_ratios)
from .harness import (MIB, PAPER_LABELS, VariantSet, bar_chart, build_variants,
                      fast_mode, format_table, geomean, variant_names_for)

__all__ = [
    "MIB",
    "PAPER_LABELS",
    "VariantSet",
    "build_variants",
    "fast_mode",
    "format_table",
    "bar_chart",
    "geomean",
    "variant_names_for",
    "figure4",
    "figure10",
    "figure11",
    "figure12",
    "Figure4Result",
    "Figure10Row",
    "Figure11Row",
    "Figure12Row",
    "internal_reduction_geomean",
    "overhead_ratios",
    "ablate_thresholds",
    "ablate_decomposition",
    "ablate_tile_size",
    "tile_site_choices",
    "PERFBENCH_COMPILES",
    "TileSiteChoice",
    "ThresholdPoint",
    "DecompositionPoint",
    "TilePoint",
]
