"""The factor solves ``repro.decompose`` used before it moved to the
Gram-matrix subspace and the Khatri–Rao-free ALS, kept as the oracle
``test_decompose_equivalence.py`` compares the library against: a full
thin SVD of every unfolding for Tucker-2 / TT-SVD, and textbook CP-ALS
(Khatri–Rao MTTKRP, residual from the rebuilt kernel).  Factors come
back in float64; ``cp_als`` also returns its sweep count.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.decompose import mode_dot, relative_error, unfold


def truncated_svd(matrix, rank):
    u, s, vt = scipy.linalg.svd(matrix, full_matrices=False)
    rank = min(int(rank), s.shape[0])
    return u[:, :rank], s[:rank], vt[:rank]


def khatri_rao(a, b):
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], -1)


def tucker2(weight, rank_out, rank_in, hooi_iters=3):
    """-> ``(core, u_out, u_in)``"""
    cout, cin = weight.shape[:2]
    rank_out = max(1, min(int(rank_out), cout))
    rank_in = max(1, min(int(rank_in), cin))
    work = weight.astype(np.float64)
    u_out = truncated_svd(unfold(work, 0), rank_out)[0]
    u_in = truncated_svd(unfold(work, 1), rank_in)[0]
    for _ in range(max(0, hooi_iters)):
        projected = mode_dot(work, u_in.T, 1)
        u_out = truncated_svd(unfold(projected, 0), rank_out)[0]
        projected = mode_dot(work, u_out.T, 0)
        u_in = truncated_svd(unfold(projected, 1), rank_in)[0]
    core = mode_dot(mode_dot(work, u_out.T, 0), u_in.T, 1)
    return core, u_out, u_in


def tt_svd(weight, ranks):
    """-> ``(g1, g2, g3, g4)`` in ``(Cin, Kh, Kw, Cout)`` order"""
    cout, cin, kh, kw = weight.shape
    r1, r2, r3 = (max(1, int(r)) for r in ranks)
    work = weight.transpose(1, 2, 3, 0).astype(np.float64)
    g1, s, vt = truncated_svd(work.reshape(cin, kh * kw * cout), r1)
    r1 = g1.shape[1]
    u, s, vt = truncated_svd((s[:, None] * vt).reshape(r1 * kh, kw * cout), r2)
    r2 = u.shape[1]
    g2 = u.reshape(r1, kh, r2)
    u, s, vt = truncated_svd((s[:, None] * vt).reshape(r2 * kw, cout), r3)
    g3 = u.reshape(r2, kw, u.shape[1])
    return g1, g2, g3, s[:, None] * vt


def cp_reconstruct(factors):
    return np.einsum("or,cr,hr,wr->ochw", *factors, optimize=True)


def cp_als(weight, rank, max_iters=60, tol=1e-7, seed=0):
    """-> ``((a, b, c, d), sweeps)``"""
    rank = max(1, min(int(rank), weight.size))
    work = weight.astype(np.float64)
    rng = np.random.default_rng(seed)
    factors = [rng.normal(size=(dim, rank)) for dim in work.shape]
    unfoldings = [unfold(work, m) for m in range(4)]
    prev_fit = -np.inf
    sweeps = 0
    for _ in range(max_iters):
        sweeps += 1
        for mode in range(4):
            others = [factors[m] for m in range(4) if m != mode]
            kr = others[0]
            for f in others[1:]:
                kr = khatri_rao(kr, f)
            gram = np.ones((rank, rank))
            for f in others:
                gram *= f.T @ f
            factors[mode] = np.linalg.solve(gram.T, (unfoldings[mode] @ kr).T).T
            if mode != 0:
                norms = np.linalg.norm(factors[mode], axis=0)
                norms[norms == 0] = 1.0
                factors[mode] /= norms
                factors[0] *= norms
        fit = 1.0 - relative_error(work, cp_reconstruct(factors))
        if abs(fit - prev_fit) < tol:
            break
        prev_fit = fit
    return tuple(factors), sweeps
