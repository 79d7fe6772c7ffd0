"""Pooling kernels (NCHW): tap-wise reductions over strided slices, rows
then columns (max and sum are separable), never the 6-D window view."""

from __future__ import annotations

import numpy as np

from ..ir.ops import conv_output_hw
from .im2col import pair

__all__ = ["maxpool2d", "avgpool2d", "global_avgpool", "upsample_nearest"]


def _reduce_windows(x: np.ndarray, kernel, stride, padding, fill,
                    combine: np.ufunc) -> np.ndarray:
    """``combine`` over every window of ``x`` padded with ``fill``, into a
    fresh C-contiguous array; ``ValueError`` when the window does not fit."""
    (kh, kw), (sh, sw), (ph, pw) = pair(kernel), pair(stride), pair(padding)
    n, c, h, w = x.shape
    oh, ow = conv_output_hw(h, w, kernel, stride, padding)
    if ph or pw:  # np.pad costs more than the whole reduction of a fused tile
        padded = np.full((n, c, h + 2 * ph, w + 2 * pw), fill, dtype=x.dtype)
        padded[:, :, ph:ph + h, pw:pw + w] = x
        x = padded
    for axis, k, s, o in ((2, kh, sh, oh), (3, kw, sw, ow)):
        taps = [x[(slice(None),) * axis + (slice(i, i + s * (o - 1) + 1, s),)]
                for i in range(k)]
        x = taps[0].copy(order="C")
        for tap in taps[1:]:
            combine(x, tap, out=x)
    return x


def maxpool2d(x: np.ndarray, kernel, stride=None, padding=(0, 0)) -> np.ndarray:
    """Max pooling; padded cells are ``-inf`` so they never win."""
    if stride is None:
        stride = kernel
    neg = np.finfo(x.dtype).min if np.issubdtype(x.dtype, np.floating) else np.iinfo(x.dtype).min
    return _reduce_windows(x, kernel, stride, padding, neg, np.maximum)


def avgpool2d(x: np.ndarray, kernel, stride=None, padding=(0, 0)) -> np.ndarray:
    """Average pooling (count_include_pad semantics, matching the common
    framework default for padded average pooling)."""
    if stride is None:
        stride = kernel
    out = _reduce_windows(x, kernel, stride, padding, 0, np.add)
    kh, kw = pair(kernel)
    # what ``mean(dtype=x.dtype)`` does with its sum, integer dtypes included
    return np.true_divide(out, kh * kw, out=out, casting="unsafe")


def global_avgpool(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3), keepdims=True, dtype=x.dtype)


def upsample_nearest(x: np.ndarray, scale: int) -> np.ndarray:
    if scale == 1:
        return x
    return np.repeat(np.repeat(x, scale, axis=2), scale, axis=3)
