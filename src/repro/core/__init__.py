"""TeMCO: the paper's compiler optimizations.

- :mod:`liveness` — tensor liveness, skip-connection discovery and
  the one memory-schedule simulator every static peak comes from,
- :mod:`memory_model` — the paper's Eq. 1–4 closed forms,
- :mod:`skip_opt` — skip connection optimization (Algorithms 1–2),
- :mod:`fusion` — activation layer fusion (Listing 1),
- :mod:`transform` — concat/add layer transformations (Figure 9),
- :mod:`pipeline` — the full compiler (Figure 6),
- :mod:`equivalence` — semantics-preservation checks (§4.4),
- :mod:`folding` — inference-time batchnorm folding.
"""

from .equivalence import (EquivalenceReport, assert_equivalent, compare_graphs,
                          topk_agreement)
from .folding import fold_batchnorm
from .fusion import (FusionConfig, FusionStats, fuse_activation_layers,
                     widen_tiles)
from .liveness import (LiveInterval, MemorySchedule, SkipConnection,
                       analyze_liveness, estimate_peak_floor,
                       estimate_peak_internal, find_skip_connections, simulate)
from .memory_model import (ConvPairSpec, eq1_weight_elems_original,
                           eq2_weight_elems_decomposed,
                           eq3_peak_internal_original,
                           eq4_peak_internal_decomposed, fused_peak_internal)
from .pipeline import OptimizationReport, TeMCOConfig, optimize
from .scheduling import ScheduleStats, greedy_order, reschedule
from .skip_opt import (RestorePlan, SkipOptConfig, SkipOptStats, find_reduced,
                       optimize_skip_connections)
from .transform import (TransformStats, commute_upsample_lconv,
                        gather_concat_inputs, merge_lconv_add,
                        merge_lconv_concat, merge_sum_fconv,
                        push_act_through_concat, split_concat_fconv)

__all__ = [
    "LiveInterval",
    "SkipConnection",
    "analyze_liveness",
    "estimate_peak_internal",
    "estimate_peak_floor",
    "find_skip_connections",
    "MemorySchedule",
    "simulate",
    "ConvPairSpec",
    "eq1_weight_elems_original",
    "eq2_weight_elems_decomposed",
    "eq3_peak_internal_original",
    "eq4_peak_internal_decomposed",
    "fused_peak_internal",
    "RestorePlan",
    "SkipOptConfig",
    "SkipOptStats",
    "find_reduced",
    "optimize_skip_connections",
    "FusionConfig",
    "FusionStats",
    "fuse_activation_layers",
    "widen_tiles",
    "TransformStats",
    "commute_upsample_lconv",
    "gather_concat_inputs",
    "merge_lconv_add",
    "merge_lconv_concat",
    "merge_sum_fconv",
    "push_act_through_concat",
    "split_concat_fconv",
    "ScheduleStats",
    "greedy_order",
    "reschedule",
    "TeMCOConfig",
    "OptimizationReport",
    "optimize",
    "EquivalenceReport",
    "assert_equivalent",
    "compare_graphs",
    "topk_agreement",
    "fold_batchnorm",
]
