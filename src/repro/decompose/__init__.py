"""Tensor decomposition of convolution layers (Tucker-2 / CP / TT).

Implements the decomposition substrate TeMCO optimizes on top of:
from-scratch multilinear algebra, the three factorization methods of
the paper's Figure 1, ratio-based rank planning, and the graph rewrite
that turns convolutions into fconv→core(s)→lconv sequences.
"""

from .cp import CPFactors, cp_decompose
from .linalg import (fold, leading_subspace, mode_dot, multi_mode_dot,
                     relative_error, unfold)
from .rank import RankPlan, plan_ranks, plan_ranks_energy, rank_by_energy
from .rewrite import (DecompositionConfig, DecompositionRecord,
                      decompose_graph, decomposition_records)
from .tt import TTFactors, tt_decompose
from .tucker import Tucker2Factors, tucker2_decompose

__all__ = [
    "CPFactors",
    "cp_decompose",
    "TTFactors",
    "tt_decompose",
    "Tucker2Factors",
    "tucker2_decompose",
    "RankPlan",
    "plan_ranks",
    "plan_ranks_energy",
    "rank_by_energy",
    "DecompositionConfig",
    "DecompositionRecord",
    "decompose_graph",
    "decomposition_records",
    "unfold",
    "fold",
    "mode_dot",
    "multi_mode_dot",
    "leading_subspace",
    "relative_error",
]
