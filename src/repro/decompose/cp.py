"""Canonical Polyadic (CP) decomposition of convolution kernels.

``W ∈ R^{Cout×Cin×Kh×Kw}`` is approximated by a rank-``R`` sum of
outer products

.. math::  W_{o,c,h,w} \\approx \\sum_{r=1}^{R} A_{o,r} B_{c,r} C_{h,r} D_{w,r}

fitted with alternating least squares (CP-ALS, Kolda–Bader form with
per-iteration column normalization).  Following Lebedev et al., the
rank-R kernel lowers to a four-layer sequence:

- **fconv**: 1×1 conv ``Cin→R`` (rows of ``Bᵀ``),
- **depthwise Kh×1** conv, groups=R, vertical stride/padding,
- **depthwise 1×Kw** conv, groups=R, horizontal stride/padding,
- **lconv**: 1×1 conv ``R→Cout`` (rows of ``A``) plus original bias.

The leading 1×1 reduces channels and the trailing 1×1 restores them —
structurally identical to Tucker's fconv/lconv, which is what lets
TeMCO's passes apply uniformly across decomposition methods (§5).

The sweep runs on the kernel's own layout.  Each factor's normal
equations need the kernel contracted with the other three factors
(the MTTKRP); the textbook form builds the ``(Cin·Kh·Kw, R)``
Khatri–Rao product of those three and multiplies a mode unfolding by
it.  A conv kernel's two kernel modes are tiny next to its channel
modes (3×3 to 11×11 in the zoo), so the kernel is kept as two
contiguous ``(Kh·Kw·Cout, Cin)`` / ``(Kh·Kw·Cin, Cout)`` matrices made
once, a sweep is two GEMMs against ``B`` and ``A``, and everything else
is a ``Kh·Kw·C·R``-sized contraction of their results.  The stop rule
reads the residual off the last mode's normal equations
(``‖W‖² − 2⟨W, X⟩ + ‖X‖²``) instead of rebuilding the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import relative_error

__all__ = ["CPFactors", "cp_decompose"]


@dataclass(frozen=True)
class CPFactors:
    """CP factors with weights absorbed into the first factor."""

    a: np.ndarray  # (Cout, R)
    b: np.ndarray  # (Cin, R)
    c: np.ndarray  # (Kh, R)
    d: np.ndarray  # (Kw, R)

    @property
    def rank(self) -> int:
        return self.a.shape[1]

    def reconstruct(self) -> np.ndarray:
        return np.einsum("or,cr,hr,wr->ochw", self.a, self.b, self.c, self.d,
                         optimize=True)

    def num_params(self) -> int:
        return self.a.size + self.b.size + self.c.size + self.d.size

    def error(self, weight: np.ndarray) -> float:
        return relative_error(weight, self.reconstruct())


def _gram(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Gram matrix of the Khatri–Rao product of three factors."""
    return (x.T @ x) * (y.T @ y) * (z.T @ z)


def _solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The factor ``F`` with ``F @ gram == rhs``."""
    try:
        return np.linalg.solve(gram.T, rhs.T).T
    except np.linalg.LinAlgError:
        # exactly singular: another factor has a zero column (a pruned
        # or zero-initialised kernel); take the minimum-norm solution
        return np.linalg.lstsq(gram.T, rhs.T, rcond=None)[0].T


def _move_scale(factor: np.ndarray, a: np.ndarray) -> None:
    """Normalize ``factor``'s columns, absorbing their scale into ``a``
    (the model is unchanged; final scales end up in factor 0)."""
    norms = np.linalg.norm(factor, axis=0)
    norms[norms == 0] = 1.0
    factor /= norms
    a *= norms


def cp_decompose(weight: np.ndarray, rank: int, *, max_iters: int = 60,
                 tol: float = 1e-7, seed: int = 0) -> CPFactors:
    """CP-ALS factorization of a 4D conv kernel.

    Converges when the relative change of the fit drops below ``tol``
    or after ``max_iters`` sweeps.  Deterministic given ``seed``.
    """
    if weight.ndim != 4:
        raise ValueError(f"expected 4D conv kernel, got shape {weight.shape}")
    rank = max(1, min(int(rank), weight.size))
    work = weight.astype(np.float64, copy=False)
    cout, cin, kh, kw = work.shape
    rng = np.random.default_rng(seed)
    a, b, c, d = (rng.normal(size=(dim, rank)) for dim in work.shape)
    # one channel mode innermost, the other three flattened into rows,
    # so contracting that mode with its factor is a single GEMM
    by_cin = np.ascontiguousarray(work.transpose(2, 3, 0, 1)).reshape(-1, cin)
    by_cout = np.ascontiguousarray(work.transpose(2, 3, 1, 0)).reshape(-1, cout)
    norm_w = float(np.linalg.norm(work))
    prev_fit = -np.inf

    for _ in range(max_iters):
        taps = (c[:, None, :] * d[None, :, :]).reshape(kh * kw, 1, rank)
        over_cin = (by_cin @ b).reshape(kh * kw, cout, rank)
        a = _solve(_gram(b, c, d), (over_cin * taps).sum(axis=0))

        over_cout = (by_cout @ a).reshape(kh * kw, cin, rank)
        b = _solve(_gram(a, c, d), (over_cout * taps).sum(axis=0))
        # the kernel contracted with both channel factors: all the two
        # kernel-mode solves read.  A column's scale moving between
        # factors does not change it, so each is taken before the move.
        both = (over_cout * b).sum(axis=1).reshape(kh, kw, rank)
        _move_scale(b, a)

        c = _solve(_gram(a, b, d), (both * d).sum(axis=1))
        rhs = (both * c[:, None, :]).sum(axis=0)
        _move_scale(c, a)

        gram = _gram(a, b, c)
        d = _solve(gram, rhs)
        # ||W - X||^2 = ||W||^2 - 2<W, X> + ||X||^2 from the last solve
        sq = norm_w ** 2 - 2.0 * float((rhs * d).sum()) \
            + float((gram * (d.T @ d)).sum())
        _move_scale(d, a)

        residual = np.sqrt(max(sq, 0.0)) / (norm_w or 1.0)
        fit = 1.0 - residual
        if abs(fit - prev_fit) < tol:
            break
        prev_fit = fit

    dtype = weight.dtype
    return CPFactors(*(f.astype(dtype) for f in (a, b, c, d)))
