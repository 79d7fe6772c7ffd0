"""The TeMCO compiler pipeline (paper Figure 6).

Stage order follows the paper: *skip connection optimization* first
(it creates the copied restore chains), then *layer transformations*
(merging or splitting the concat/add joins so the chains expose
``lconv → act → fconv`` patterns), then *activation layer fusion*
(collapsing every exposed pattern into a tiled fused kernel), the
memory-aware schedule and the tile widths, and last the gather (a merged
join's fused kernel reads the concat's branches in place of the
concat).

:func:`optimize` is the whole API; each stage is also callable on its
own (``optimize_skip_connections``, the transforms,
``fuse_activation_layers``, ``reschedule``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

from ..ir.graph import Graph
from ..obs import get_tracer
from .fusion import (FusionConfig, FusionStats, fuse_activation_layers,
                     widen_tiles)
from .liveness import estimate_peak_internal
from .scheduling import ScheduleStats, reschedule
from .skip_opt import SkipOptStats, optimize_skip_connections
from .transform import (TransformStats, commute_upsample_lconv,
                        gather_concat_inputs, merge_lconv_add,
                        merge_lconv_concat, merge_sum_fconv,
                        push_act_through_concat, split_concat_fconv)

__all__ = ["TeMCOConfig", "OptimizationReport", "optimize"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TeMCOConfig:
    """End-to-end optimization configuration.

    The layer transformations run one fixed rule list (Figure 9a's
    block-diagonal merges first, Figure 9c's split only for the
    concats the merge refuses); ``enable_transforms`` switches them
    all on or off.
    """

    enable_skip_opt: bool = True
    enable_transforms: bool = True
    enable_fusion: bool = True
    #: memory-aware greedy rescheduling after fusion (extension: the
    #: paper defers to layer-scheduling work [19, 31, 50]); the pass is
    #: peak-guarded so enabling it can never hurt
    enable_scheduling: bool = True
    fusion: FusionConfig = field(default_factory=FusionConfig)


@dataclass
class OptimizationReport:
    """Per-stage statistics plus before/after peak estimates."""

    peak_before: int = 0
    peak_after: int = 0
    weight_bytes_before: int = 0
    weight_bytes_after: int = 0
    skip_opt: SkipOptStats | None = None
    transforms: TransformStats | None = None
    fusion: FusionStats | None = None
    schedule: ScheduleStats | None = None

    @property
    def peak_reduction(self) -> float:
        """Fractional reduction of estimated peak internal memory."""
        if self.peak_before == 0:
            return 0.0
        return 1.0 - self.peak_after / self.peak_before

    def summary(self) -> str:
        mib = 1024 * 1024
        lines = [
            f"peak internal: {self.peak_before / mib:.2f} MiB -> "
            f"{self.peak_after / mib:.2f} MiB ({self.peak_reduction:.1%} reduction)",
            f"weights: {self.weight_bytes_before / mib:.2f} MiB -> "
            f"{self.weight_bytes_after / mib:.2f} MiB",
        ]
        if self.skip_opt:
            s = self.skip_opt
            lines.append(f"skip-opt: {s.optimized}/{s.candidates} connections "
                         f"optimized, {s.copies_inserted} restore copies")
        if self.transforms:
            t = self.transforms
            lines.append(f"transforms: {t.merged_concats} concat merges, "
                         f"{t.merged_adds} add merges, {t.split_concats} splits, "
                         f"{t.commuted_upsamples} upsample commutes"
                         + (f", {t.gathered_concats} concats gathered"
                            if t.gathered_concats else ""))
        if self.fusion:
            f_ = self.fusion
            lines.append(f"fusion: {f_.fused} fused kernels "
                         f"({f_.with_pool} with pool, {f_.with_upsample} "
                         f"with upsample, {f_.widened} widened into slack)")
        if self.schedule and self.schedule.changed:
            lines.append(f"scheduling: peak {self.schedule.peak_before:,} B -> "
                         f"{self.schedule.peak_after:,} B")
        return "\n".join(lines)


def optimize(graph: Graph, config: TeMCOConfig | None = None
             ) -> tuple[Graph, OptimizationReport]:
    """One-call TeMCO: returns ``(optimized graph, report)``; the input
    (typically a decomposed graph) is untouched.

    Skip-connection rewrites only pay off once the transform/fusion
    stages collapse the copied restore chains, so the per-rewrite
    guard is local (Algorithm 1's ``Overhead``); as a global
    safety net, if the fully optimized graph's estimated peak ends
    up worse than running the pipeline *without* skip-opt, the
    compiler falls back to the latter.
    """
    config = config or TeMCOConfig()
    tracer = get_tracer()
    with tracer.span("pipeline", category="compiler", graph=graph.name):
        optimized, report = _compile_once(graph, config)
        if (config.enable_skip_opt
                and report.skip_opt is not None
                and report.skip_opt.optimized > 0):
            alt, alt_report = _compile_once(
                graph, replace(config, enable_skip_opt=False))
            if alt_report.peak_after < report.peak_after:
                tracer.decision(
                    "pipeline", graph.name, "fallback", "no_skip_better",
                    with_skip_peak_bytes=report.peak_after,
                    without_skip_peak_bytes=alt_report.peak_after)
                logger.info("pipeline: %s kept the no-skip-opt variant "
                            "(peak %d B < %d B)", graph.name,
                            alt_report.peak_after, report.peak_after)
                optimized, report = alt, alt_report
        if (report.peak_after > report.peak_before
                and (config.enable_skip_opt or config.enable_transforms)
                and config.enable_fusion):
            # last-resort guard: fusion alone only ever removes tensors
            alt, alt_report = _compile_once(graph, replace(
                config, enable_skip_opt=False, enable_transforms=False))
            if alt_report.peak_after < report.peak_after:
                tracer.decision(
                    "pipeline", graph.name, "fallback", "fusion_only_better",
                    full_pipeline_peak_bytes=report.peak_after,
                    fusion_only_peak_bytes=alt_report.peak_after)
                logger.info("pipeline: %s fell back to fusion-only "
                            "(peak %d B < %d B)", graph.name,
                            alt_report.peak_after, report.peak_after)
                optimized, report = alt, alt_report
        tracer.metrics.gauge("pipeline.peak_before_bytes", report.peak_before)
        tracer.metrics.gauge("pipeline.peak_after_bytes", report.peak_after)
        tracer.metrics.gauge("pipeline.peak_reduction", report.peak_reduction)
    return optimized, report


def _compile_once(graph: Graph,
                  config: TeMCOConfig) -> tuple[Graph, OptimizationReport]:
    """One pass of every enabled stage over a working copy of ``graph``."""
    tracer = get_tracer()
    work = graph.clone(f"{graph.name}.temco")
    report = OptimizationReport(
        peak_before=estimate_peak_internal(work),
        weight_bytes_before=work.weight_bytes())

    if config.enable_skip_opt:
        report.skip_opt = optimize_skip_connections(work)

    if config.enable_transforms:
        tstats = TransformStats()
        with tracer.span("transforms", category="compiler",
                         graph=work.name):
            # merge the all-restore-chain joins (Fig. 9a), then fall back
            # to splitting the concats the merge refused (Fig. 9c)
            commute_upsample_lconv(work, tstats)
            merge_lconv_concat(work, tstats)
            merge_lconv_add(work, tstats)
            merge_sum_fconv(work, tstats)
            push_act_through_concat(work, tstats)
            split_concat_fconv(work, tstats)
        report.transforms = tstats

    if config.enable_fusion:
        report.fusion = fuse_activation_layers(work, config.fusion)

    if config.enable_scheduling:
        report.schedule = reschedule(work)

    work.dead_code_eliminate()
    work.validate()
    if config.enable_fusion:
        # tiles are sized against the live bytes of the final schedule
        report.fusion.widened = widen_tiles(work, config.fusion)
        if report.transforms is not None:
            # a merged lconv's fused kernel reads its concat's branches.
            # That only lowers live bytes, so every tile still fits; run
            # before widen_tiles, it would re-size the gathered sites'
            # tiles, and their outputs would round differently
            gather_concat_inputs(work, report.transforms)
    report.peak_after = estimate_peak_internal(work)
    report.weight_bytes_after = work.weight_bytes()
    logger.debug("pipeline: %s peak %d B -> %d B", work.name,
                 report.peak_before, report.peak_after)
    return work, report
