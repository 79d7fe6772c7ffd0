"""Padding and sliding-window views for convolution and pooling.

``sliding_windows`` uses ``numpy.lib.stride_tricks.as_strided`` to
expose all windows as a zero-copy 6D view; `repro.train.gradients`
uses it.  The forward conv builds its own view, tap-major
``(N, C, KH, KW, OH, OW)`` — the layout its GEMM wants — and copies it
into its column buffer in one call (`repro.kernels.conv`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["pad2d", "sliding_windows", "pair"]


def pair(v) -> tuple[int, int]:
    """Normalize an int-or-pair attr to ``(int, int)``."""
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


def pad2d(x: np.ndarray, padding, value: float = 0.0) -> np.ndarray:
    """Pad the two trailing (spatial) dims of an NCHW tensor."""
    ph, pw = pair(padding)
    if ph == 0 and pw == 0:
        return x
    n, c, h, w = x.shape
    padded = np.full((n, c, h + 2 * ph, w + 2 * pw), value, dtype=x.dtype)
    padded[:, :, ph:ph + h, pw:pw + w] = x
    return padded


def sliding_windows(x: np.ndarray, kernel, stride, dilation=(1, 1)) -> np.ndarray:
    """All convolution windows of an NCHW array as a read-only view.

    Returns shape ``(N, C, OH, OW, KH, KW)``.  The caller must have
    already applied padding.  ``dilation`` spaces the kernel taps —
    still zero-copy, just larger strides on the tap axes.
    """
    kh, kw = pair(kernel)
    sh, sw = pair(stride)
    dh, dw = pair(dilation)
    n, c, h, w = x.shape
    eff_kh = dh * (kh - 1) + 1
    eff_kw = dw * (kw - 1) + 1
    oh = (h - eff_kh) // sh + 1
    ow = (w - eff_kw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(f"window {kh}x{kw} (dilation {dh}x{dw}) stride "
                         f"{sh}x{sw} does not fit in {h}x{w}")
    sn, sc, sh_, sw_ = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, sh_ * sh, sw_ * sw, sh_ * dh, sw_ * dw),
        writeable=False,
    )
    return view
