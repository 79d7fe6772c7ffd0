"""Tucker-2 decomposition of convolution kernels (paper's baseline).

A conv kernel ``W ∈ R^{Cout×Cin×Kh×Kw}`` is factorized along its two
channel modes (the "Tucker-2" variant standard for CNN compression):

.. math::  W \\approx G \\times_0 U_{out} \\times_1 U_{in}

with ``U_out ∈ R^{Cout×R_out}``, ``U_in ∈ R^{Cin×R_in}`` and core
``G ∈ R^{R_out×R_in×Kh×Kw}``.  The resulting three-layer sequence
(Figure 2b of the paper):

- **fconv**: 1×1 conv ``Cin→R_in`` with weight ``U_inᵀ``,
- **core**:  Kh×Kw conv ``R_in→R_out`` carrying the original
  stride/padding, weight ``G``,
- **lconv**: 1×1 conv ``R_out→Cout`` with weight ``U_out`` and the
  original bias.

Initialized by HOSVD (the leading left singular vectors of the two mode
unfoldings) and refined with a few HOOI alternating passes.  Every one
of those solves wants only the leading ``R`` columns of ``U``, so each
goes through :func:`~repro.decompose.linalg.leading_subspace`: the
``C x C`` Gram matrix of the unfolding, not an SVD of the ``C x C*k*k``
unfolding itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import leading_subspace, mode_dot, relative_error, unfold

__all__ = ["Tucker2Factors", "tucker2_decompose"]


@dataclass(frozen=True)
class Tucker2Factors:
    """Factors of a Tucker-2 conv decomposition."""

    core: np.ndarray    # (R_out, R_in, Kh, Kw)
    u_out: np.ndarray   # (Cout, R_out)
    u_in: np.ndarray    # (Cin, R_in)

    def reconstruct(self) -> np.ndarray:
        """Approximate kernel ``G ×_0 U_out ×_1 U_in``."""
        return mode_dot(mode_dot(self.core, self.u_out, 0), self.u_in, 1)

    @property
    def rank_out(self) -> int:
        return self.core.shape[0]

    @property
    def rank_in(self) -> int:
        return self.core.shape[1]

    def num_params(self) -> int:
        return self.core.size + self.u_out.size + self.u_in.size

    def error(self, weight: np.ndarray) -> float:
        return relative_error(weight, self.reconstruct())


def tucker2_decompose(weight: np.ndarray, rank_out: int, rank_in: int,
                      *, hooi_iters: int = 3) -> Tucker2Factors:
    """Tucker-2 factorization of a 4D conv kernel.

    Parameters
    ----------
    weight:
        Kernel of shape ``(Cout, Cin, Kh, Kw)``.
    rank_out, rank_in:
        Target channel ranks (clamped to the actual dims).
    hooi_iters:
        Alternating refinement sweeps after the HOSVD init.  Each sweep
        re-solves one factor against the other from the leading
        subspace of the projected unfolding — cheap (the unfoldings are
        small) and measurably tightens the fit at low ranks.
    """
    if weight.ndim != 4:
        raise ValueError(f"expected 4D conv kernel, got shape {weight.shape}")
    cout, cin, _kh, _kw = weight.shape
    rank_out = max(1, min(int(rank_out), cout))
    rank_in = max(1, min(int(rank_in), cin))
    work = weight.astype(np.float64, copy=False)

    # HOSVD init: leading left singular vectors of each mode unfolding
    u_out = leading_subspace(unfold(work, 0), rank_out)
    u_in = leading_subspace(unfold(work, 1), rank_in)

    # HOOI refinement (orthogonal factors: projection is the transpose)
    for _ in range(max(0, hooi_iters)):
        projected = mode_dot(work, u_in.T, 1)           # fix U_in, solve U_out
        u_out = leading_subspace(unfold(projected, 0), rank_out)
        projected = mode_dot(work, u_out.T, 0)          # fix U_out, solve U_in
        u_in = leading_subspace(unfold(projected, 1), rank_in)

    core = mode_dot(mode_dot(work, u_out.T, 0), u_in.T, 1)
    dtype = weight.dtype
    return Tucker2Factors(core=core.astype(dtype), u_out=u_out.astype(dtype),
                          u_in=u_in.astype(dtype))
