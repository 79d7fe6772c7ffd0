"""Pooling kernels (NCHW): tap-wise reductions over strided slices, rows
then columns (max and sum are separable), never the 6-D window view.

:func:`bind_pool2d` resolves a window's geometry — output size, padding
and the tap slices of both passes — for one input height and width, and
returns the ``x -> pooled`` kernel; :func:`maxpool2d` and
:func:`avgpool2d` bind for the shape they are given and call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..ir.ops import conv_output_hw
from .im2col import pair

__all__ = ["bind_pool2d", "maxpool2d", "avgpool2d", "global_avgpool",
           "upsample_nearest"]


def _lowest(dtype: np.dtype):
    """The smallest value of ``dtype``: a max-pool pad that never wins."""
    if np.issubdtype(dtype, np.floating):
        return np.finfo(dtype).min
    return np.iinfo(dtype).min


def bind_pool2d(kind: str, x_shape: tuple[int, ...], kernel, stride=None,
                padding=(0, 0)) -> Callable[[np.ndarray], np.ndarray]:
    """The ``"max"`` or ``"avg"`` pooling kernel for inputs of spatial
    size ``x_shape[-2:]`` (any batch and channel count); ``ValueError``
    when the window does not fit.

    The kernel reduces into a fresh C-contiguous array.  Padded cells
    are ``-inf``-like for max (they never win) and zero for average
    (count_include_pad semantics, matching the common framework default).
    """
    if stride is None:
        stride = kernel
    (kh, kw), (sh, sw), (ph, pw) = pair(kernel), pair(stride), pair(padding)
    h, w = x_shape[-2:]
    oh, ow = conv_output_hw(h, w, kernel, stride, padding)
    everything = (slice(None),) * 2
    row_taps = tuple(everything + (slice(i, i + sh * (oh - 1) + 1, sh),)
                     for i in range(kh))
    col_taps = tuple(everything + (slice(None), slice(i, i + sw * (ow - 1) + 1, sw))
                     for i in range(kw))
    combine = np.maximum if kind == "max" else np.add
    window = kh * kw

    def pool(x: np.ndarray) -> np.ndarray:
        if ph or pw:  # np.pad costs more than the whole reduction of a fused tile
            fill = _lowest(x.dtype) if kind == "max" else 0
            padded = np.full(x.shape[:2] + (h + 2 * ph, w + 2 * pw), fill,
                             dtype=x.dtype)
            padded[:, :, ph:ph + h, pw:pw + w] = x
            x = padded
        for taps in (row_taps, col_taps):
            out = x[taps[0]].copy(order="C")
            for tap in taps[1:]:
                combine(out, x[tap], out=out)
            x = out
        if kind == "max":
            return x
        # what ``mean(dtype=x.dtype)`` does with its sum, integer dtypes included
        return np.true_divide(x, window, out=x, casting="unsafe")

    return pool


def maxpool2d(x: np.ndarray, kernel, stride=None, padding=(0, 0)) -> np.ndarray:
    """Max pooling; padded cells are ``-inf`` so they never win."""
    return bind_pool2d("max", x.shape, kernel, stride, padding)(x)


def avgpool2d(x: np.ndarray, kernel, stride=None, padding=(0, 0)) -> np.ndarray:
    """Average pooling (count_include_pad semantics, matching the common
    framework default for padded average pooling)."""
    return bind_pool2d("avg", x.shape, kernel, stride, padding)(x)


def global_avgpool(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3), keepdims=True, dtype=x.dtype)


def upsample_nearest(x: np.ndarray, scale: int) -> np.ndarray:
    if scale == 1:
        return x
    return np.repeat(np.repeat(x, scale, axis=2), scale, axis=3)
