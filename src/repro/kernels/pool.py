"""Pooling kernels: tap-wise reductions over strided slices, rows then
columns (max and sum are separable), never the 6-D window view.

:func:`bind_pool2d` resolves a window's geometry — output size and the
tap slices of both passes — for one input height and width, and returns
the ``x -> pooled`` kernel; :func:`maxpool2d` and :func:`avgpool2d` bind
for the shape they are given and call.

The spatial axes are ``(2, 3)`` of an NCHW tensor, or ``(1, 2)`` of an
``(N, H, W, C)`` one when the kernel is bound ``channels_last``: the
fused kernels' private tile layout (:mod:`.fused`), where each tap
combines contiguous runs of ``W·C`` (rows) or ``C`` (columns) elements
instead of one short image row per NumPy inner loop.

Padding is never materialised.  Each tap is clipped to the outputs whose
window cell it reads inside the input; the outputs the first tap misses
start at the pad value (the dtype's lowest for max, so it never wins;
zero for average, count_include_pad semantics), and later taps combine
into their clipped range in tap order.  A sum therefore adds the input's
cells in the order a tap loop over a zero-padded copy does, less its
additions of zero.
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


def _clipped_taps(size: int, out_size: int, kernel: int, stride: int,
                  padding: int, axis: int):
    """One pass's taps along ``axis``: per tap, the ``(source, destination)``
    index tuples of the outputs whose window cell lies inside the input
    (destination ``None``: every output), plus the destination ranges the
    first tap leaves to the pad value."""
    lead = (slice(None),) * axis
    taps = []
    first = (0, 0)  # the outputs the first tap covers
    for i in range(kernel):
        # output o reads input row o * stride + i - padding
        lo = max(0, -((i - padding) // stride))
        hi = min(out_size, (size - 1 - i + padding) // stride + 1)
        if lo >= hi:
            continue
        if not taps:
            first = (lo, hi)
        start = lo * stride + i - padding
        taps.append((lead + (slice(start, start + stride * (hi - lo - 1) + 1,
                                   stride),),
                     None if hi - lo == out_size else lead + (slice(lo, hi),)))
    unfilled = tuple(lead + (gap,) for gap in
                     (slice(0, first[0]), slice(first[1], out_size))
                     if gap.start < gap.stop)
    return tuple(taps), unfilled


def bind_pool2d(kind: str, x_shape: tuple[int, ...], kernel, stride=None,
                padding=(0, 0), channels_last: bool = False
                ) -> Callable[..., np.ndarray]:
    """The ``"max"`` or ``"avg"`` pooling kernel for inputs of shape
    ``x_shape`` — NCHW, or ``(N, H, W, C)`` when ``channels_last`` (any
    batch and channel count); ``ValueError`` when the window does not fit.

    The kernel ``pool(x, out=None)`` reduces into ``out`` when given (the
    pooled shape and ``x``'s dtype, any strides) and otherwise into a
    fresh C-contiguous array, and returns it.  Padded cells are
    ``-inf``-like for max (they never win) and zero for average
    (count_include_pad semantics, matching the common framework default).
    """
    if stride is None:
        stride = kernel
    (kh, kw), (sh, sw), (ph, pw) = pair(kernel), pair(stride), pair(padding)
    row_axis, col_axis = (1, 2) if channels_last else (2, 3)
    h, w = x_shape[row_axis], x_shape[col_axis]
    oh, ow = conv_output_hw(h, w, kernel, stride, padding)
    passes = ((row_axis, oh, *_clipped_taps(h, oh, kh, sh, ph, row_axis)),
              (col_axis, ow, *_clipped_taps(w, ow, kw, sw, pw, col_axis)))
    combine = np.maximum if kind == "max" else np.add
    window = kh * kw

    def pool(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        for axis, size, taps, unfilled in passes:
            dst = out if axis == col_axis else None
            if dst is None and not unfilled:  # the first tap covers it all
                dst = x[taps[0][0]].copy()
            else:
                if dst is None:
                    shape = x.shape[:axis] + (size,) + x.shape[axis + 1:]
                    dst = np.empty(shape, dtype=x.dtype)
                for gap in unfilled:
                    dst[gap] = _lowest(x.dtype) if kind == "max" else 0
                if taps:
                    src, into = taps[0]
                    dst[... if into is None else into] = x[src]
            for src, into in taps[1:]:
                part = dst if into is None else dst[into]
                combine(part, x[src], out=part)
            x = dst
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
