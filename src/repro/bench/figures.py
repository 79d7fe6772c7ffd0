"""Drivers that regenerate the paper's figures as data tables.

Each ``figure*`` function runs the measurement and returns a structured
result; the ``benchmarks/`` suite prints them through
:func:`repro.bench.harness.format_table` and asserts the paper's
qualitative claims (who wins, roughly by how much, where the crossovers
are).  Absolute values differ from the paper — our substrate is a NumPy
executor at reduced resolution, not PyTorch/CUDA on an RTX 4090 — but
the series *shapes* are the reproduction target (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.liveness import analyze_liveness, find_skip_connections
from ..data import (classification_batch, dice_score, prediction_agreement,
                    segmentation_batch, topk_accuracy)
from ..models import MODEL_ZOO
from ..runtime import InferenceSession, execute
from .harness import MIB, PAPER_LABELS, VariantSet, build_variants, geomean, variant_names_for

__all__ = ["figure4", "figure10", "figure11", "figure12",
           "Figure4Result", "Figure10Row", "Figure11Row", "Figure12Row"]


# ---------------------------------------------------------------------------
# Figure 4: internal-tensor memory over the layer timeline
# ---------------------------------------------------------------------------

@dataclass
class Figure4Result:
    model: str
    batch: int
    #: variant -> [(layer index, live internal MiB)]
    timelines: dict[str, list[tuple[int, float]]]
    #: variant -> peak internal MiB
    peaks: dict[str, float]
    #: maximum bytes simultaneously held by skip-connection tensors in
    #: the decomposed model, as a fraction of its peak — the paper's
    #: Figure 4a quantity ("memory usage of skip connections takes
    #: 76.2% of the peak memory usage by internal tensors" for UNet)
    skip_share_decomposed: float
    #: maximum instantaneous fraction of live bytes held by skips
    #: (≈1.0 mid-hourglass: only the skips remain resident)
    skip_share_instantaneous: float
    #: skip fraction measured exactly at the peak event
    skip_share_at_peak: float


def figure4(model: str = "unet", batch: int = 4, hw: int | None = None,
            distance_threshold: int = 4, seed: int = 0) -> Figure4Result:
    """Memory-usage-over-time comparison (paper Figure 4a/4b)."""
    vs = build_variants(model, batch=batch, hw=hw, seed=seed)
    inputs = vs.input_batch(seed)
    timelines: dict[str, list[tuple[int, float]]] = {}
    peaks: dict[str, float] = {}
    skip_share = 0.0
    skip_share_inst = 0.0
    skip_share_at_peak = 0.0
    for variant in ("original", "decomposed"):
        graph = vs.graphs[variant]
        profile = execute(graph, inputs).memory
        timelines[variant] = [(i, b / MIB)
                              for i, b in enumerate(profile.events)]
        peaks[variant] = profile.peak_internal_bytes / MIB
        if variant == "decomposed":
            skips = find_skip_connections(graph, distance_threshold)
            skip_values = {s.value.name for s in skips}
            if profile.peak_internal_bytes:
                skip_share_at_peak = (profile.live_bytes_by_value(skip_values)
                                      / profile.peak_internal_bytes)
            # residency share over the whole timeline (exact: the static
            # liveness model equals the executor's accounting)
            intervals = analyze_liveness(graph)
            skip_ivs = [iv for v, iv in intervals.items()
                        if v.name in skip_values]
            max_skip_resident = 0
            for index in range(len(graph.nodes)):
                total = sum(iv.value.nbytes for iv in intervals.values()
                            if iv.live_at(index))
                held = sum(iv.value.nbytes for iv in skip_ivs
                           if iv.live_at(index))
                max_skip_resident = max(max_skip_resident, held)
                if total:
                    skip_share_inst = max(skip_share_inst, held / total)
            if profile.peak_internal_bytes:
                skip_share = max_skip_resident / profile.peak_internal_bytes
    return Figure4Result(model=model, batch=batch, timelines=timelines,
                         peaks=peaks, skip_share_decomposed=skip_share,
                         skip_share_instantaneous=skip_share_inst,
                         skip_share_at_peak=skip_share_at_peak)


# ---------------------------------------------------------------------------
# Figure 10: peak memory of the 10 models across variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Figure10Row:
    model: str
    variant: str
    weight_mib: float
    internal_mib: float

    @property
    def total_mib(self) -> float:
        return self.weight_mib + self.internal_mib

    @property
    def label(self) -> str:
        return PAPER_LABELS[self.variant]


def figure10(models: list[str] | None = None, batch: int = 4,
             ratio: float = 0.1, seed: int = 0,
             hw: int | None = None) -> list[Figure10Row]:
    """Peak memory (weights + internal) per model/variant (Figure 10)."""
    models = models or list(MODEL_ZOO)
    rows: list[Figure10Row] = []
    for model in models:
        vs = build_variants(model, batch=batch, hw=hw, ratio=ratio, seed=seed)
        for variant in variant_names_for(model):
            rows.append(Figure10Row(
                model=model, variant=variant,
                weight_mib=vs.weight_bytes(variant) / MIB,
                internal_mib=vs.peak_internal(variant) / MIB))
    return rows


def internal_reduction_geomean(rows: list[Figure10Row]) -> float:
    """Geomean internal-tensor reduction of the best TeMCO variant vs the
    original model — the paper's 75.7% headline."""
    by_model: dict[str, dict[str, Figure10Row]] = {}
    for row in rows:
        by_model.setdefault(row.model, {})[row.variant] = row
    ratios = []
    for variants in by_model.values():
        best = min(row.internal_mib for v, row in variants.items()
                   if v not in ("original", "decomposed"))
        ratios.append(best / variants["original"].internal_mib)
    return 1.0 - geomean(ratios)


# ---------------------------------------------------------------------------
# Figure 11: end-to-end inference time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Figure11Row:
    model: str
    variant: str
    batch: int
    seconds: float
    #: tail percentiles over the timing repeats (0.0 when unmeasured,
    #: e.g. rows constructed analytically in tests)
    p50_seconds: float = 0.0
    p95_seconds: float = 0.0
    p99_seconds: float = 0.0


def figure11(models: list[str] | None = None, batches: tuple[int, ...] = (4, 32),
             hw: int | None = None, repeats: int = 3, warmup: int = 1,
             seed: int = 0) -> list[Figure11Row]:
    """End-to-end inference time, decomposed vs fully optimized (Figure 11)."""
    models = models or list(MODEL_ZOO)
    rows: list[Figure11Row] = []
    for model in models:
        best_variant = variant_names_for(model)[-1]
        for batch in batches:
            vs = build_variants(model, batch=batch, hw=hw, seed=seed)
            inputs = vs.input_batch(seed)
            for variant in ("decomposed", best_variant):
                session = InferenceSession(vs.graphs[variant])
                timing = session.time_inference(inputs, warmup=warmup,
                                                repeats=repeats)
                rows.append(Figure11Row(model=model, variant=variant,
                                        batch=batch, seconds=timing.median,
                                        p50_seconds=timing.p50,
                                        p95_seconds=timing.p95,
                                        p99_seconds=timing.p99))
    return rows


def overhead_ratios(rows: list[Figure11Row]) -> dict[int, float]:
    """Geomean optimized/decomposed time ratio per batch size (the paper
    reports 1.08× at batch 4 and 1.70× at batch 32)."""
    by_key: dict[tuple[str, int], dict[str, float]] = {}
    for row in rows:
        kind = "decomposed" if row.variant == "decomposed" else "optimized"
        by_key.setdefault((row.model, row.batch), {})[kind] = row.seconds
    per_batch: dict[int, list[float]] = {}
    for (model, batch), t in by_key.items():
        if "decomposed" in t and "optimized" in t:
            per_batch.setdefault(batch, []).append(t["optimized"] / t["decomposed"])
    return {batch: geomean(vals) for batch, vals in sorted(per_batch.items())}


# ---------------------------------------------------------------------------
# Figure 12: accuracy preservation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Figure12Row:
    model: str
    variant: str
    #: task metric (top-5 accuracy against synthetic labels, or dice)
    metric: float
    #: top-1 prediction agreement with the decomposed baseline
    #: (1.0 = TeMCO changed nothing, the paper's claim)
    agreement_with_decomposed: float


def figure12(models: list[str] | None = None, batch: int = 16,
             seed: int = 0, hw: int | None = None) -> list[Figure12Row]:
    """Accuracy of decomposed vs TeMCO-optimized variants (Figure 12).

    The zoo's weights are random (no offline ImageNet/Carvana), so the
    *absolute* metric is chance-level; what reproduces the paper's
    claim is that every TeMCO variant scores identically to the
    decomposed baseline and agrees with it on every prediction.
    """
    models = models or list(MODEL_ZOO)
    rows: list[Figure12Row] = []
    for model in models:
        spec = MODEL_ZOO[model]
        vs = build_variants(model, batch=batch, hw=hw, seed=seed)
        if spec.task == "classification":
            data = classification_batch(batch, hw=vs.hw, seed=seed)
            inputs = {"image": data.images}
        else:
            data = segmentation_batch(batch, hw=vs.hw, seed=seed)
            inputs = {"image": data.images}
        baseline_out = execute(vs.graphs["decomposed"], inputs).output()
        for variant in variant_names_for(model)[1:]:
            out = execute(vs.graphs[variant], inputs).output()
            if spec.task == "classification":
                metric = topk_accuracy(out, data.labels, k=5)
                agreement = prediction_agreement(out, baseline_out)
            else:
                metric = dice_score(out, data.masks)
                base_pred = (baseline_out >= 0.5)
                agreement = float(((out >= 0.5) == base_pred).mean())
            rows.append(Figure12Row(model=model, variant=variant, metric=metric,
                                    agreement_with_decomposed=agreement))
    return rows
