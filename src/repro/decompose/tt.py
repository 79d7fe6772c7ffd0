"""Tensor-Train decomposition of convolution kernels.

The kernel is permuted to ``(Cin, Kh, Kw, Cout)`` and factorized by
TT-SVD (Oseledets) into four cores with ranks ``(r1, r2, r3)``; each of
the three steps takes its left basis ``U`` from the unfolding's small
Gram matrix (:func:`~repro.decompose.linalg.leading_subspace`) and
carries ``U.T @ M`` — which *is* ``diag(s) @ Vt`` — into the next:

.. math::
   W_{c,h,w,o} \\approx \\sum_{i,j,k} G1_{c,i}\\, G2_{i,h,j}\\,
   G3_{j,w,k}\\, G4_{k,o}

which lowers to the sequence (first/last layers again 1×1 convs, per
Figure 1c/2b of the paper):

- **fconv**: 1×1 conv ``Cin→r1`` (``G1ᵀ``),
- **core₁**: Kh×1 conv ``r1→r2`` with vertical stride/padding (``G2``),
- **core₂**: 1×Kw conv ``r2→r3`` with horizontal stride/padding (``G3``),
- **lconv**: 1×1 conv ``r3→Cout`` (``G4ᵀ``) plus original bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import leading_subspace, relative_error

__all__ = ["TTFactors", "tt_decompose"]


@dataclass(frozen=True)
class TTFactors:
    """TT cores of a conv kernel in ``(Cin, Kh, Kw, Cout)`` order."""

    g1: np.ndarray  # (Cin, r1)
    g2: np.ndarray  # (r1, Kh, r2)
    g3: np.ndarray  # (r2, Kw, r3)
    g4: np.ndarray  # (r3, Cout)

    @property
    def ranks(self) -> tuple[int, int, int]:
        return self.g1.shape[1], self.g2.shape[2], self.g3.shape[2]

    def reconstruct(self) -> np.ndarray:
        """Approximate kernel back in conv layout ``(Cout, Cin, Kh, Kw)``."""
        t = np.einsum("ci,ihj,jwk,ko->chwo", self.g1, self.g2, self.g3, self.g4,
                      optimize=True)
        return t.transpose(3, 0, 1, 2)

    def num_params(self) -> int:
        return self.g1.size + self.g2.size + self.g3.size + self.g4.size

    def error(self, weight: np.ndarray) -> float:
        return relative_error(weight, self.reconstruct())


def tt_decompose(weight: np.ndarray, ranks: tuple[int, int, int]) -> TTFactors:
    """TT-SVD factorization of a 4D conv kernel ``(Cout, Cin, Kh, Kw)``.

    ``ranks = (r1, r2, r3)`` bound the three TT bond dimensions; each is
    clamped to the maximal achievable rank of its unfolding.
    """
    if weight.ndim != 4:
        raise ValueError(f"expected 4D conv kernel, got shape {weight.shape}")
    cout, cin, kh, kw = weight.shape
    r1, r2, r3 = (max(1, int(r)) for r in ranks)
    # TT order (Cin, Kh, Kw, Cout) keeps the channel-reducing factor first
    work = weight.transpose(1, 2, 3, 0).astype(np.float64, copy=False)

    m = work.reshape(cin, kh * kw * cout)
    g1 = leading_subspace(m, r1)                       # (Cin, r1)
    r1 = g1.shape[1]
    rest = g1.T @ m                                    # (r1, Kh*Kw*Cout)

    m = rest.reshape(r1 * kh, kw * cout)
    u2 = leading_subspace(m, r2)
    r2 = u2.shape[1]
    g2 = u2.reshape(r1, kh, r2)
    rest = u2.T @ m                                    # (r2, Kw*Cout)

    m = rest.reshape(r2 * kw, cout)
    u3 = leading_subspace(m, r3)
    r3 = u3.shape[1]
    g3 = u3.reshape(r2, kw, r3)
    g4 = u3.T @ m                                      # (r3, Cout)

    dtype = weight.dtype
    return TTFactors(g1=g1.astype(dtype), g2=g2.astype(dtype),
                     g3=g3.astype(dtype), g4=g4.astype(dtype))
