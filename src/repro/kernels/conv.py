"""Convolution kernels (forward only, NCHW).

Two code paths:

- **pointwise fast path** — 1×1 stride-1 ungrouped convs (the
  fconv/lconv layers that dominate decomposed models) run as one
  ``np.dot`` over the channel axis, no window copy needed;
- **spatial path** — everything else (dense, grouped, depthwise; any
  stride, padding, dilation, kernel shape) is one explicit im2col and
  one batched GEMM.  The column buffer ``cols[N, C, kh, kw, OH, OW]`` is
  channel-major, so the weight needs no repacking, and it is filled by
  **one** ``np.copyto`` from a strided view of the input (stride and
  dilation live only in the view's strides), in one of two forms:

  - *flat* (stride 1, output rows as wide as the input's: 'same'
    horizontal padding, or ``kw == 1`` unpadded) — the input is copied
    once into planes padded vertically only, each with a ``pw`` margin
    at both ends, and tap ``(i, j)`` of a plane is then the single run
    of ``OH*W`` values starting at ``i*dh*W + j*dw``.  A tap shifted
    by ``s = j*dw - pw`` carries ``|s|`` columns of each row in from
    the neighbouring row; at most ``kw - 1`` strided fills zero them,
    so ``cols`` holds exactly the zeros a padded copy would;
  - *windowed* (every other geometry) — the view spans the ``pad2d``
    copy, and each copied row is one ``OW``-long output row.

  An unpadded C-contiguous input is read in place.  One broadcast
  ``np.matmul`` then writes the NCHW result and the bias is added in
  place.  Scratch is one (padded) copy of the input plus ``cols`` — no
  output-sized temporary — and the GEMMs run per sample, so
  ``conv2d(x)[i]`` is bitwise ``conv2d(x[i:i+1])``.

:func:`bind_conv2d` makes every decision the weight and the input's
channel and spatial size fix — the path, the output size, the view's
strides and wrap fills, the ``(groups, C_out/g, depth)`` weight view —
once, and returns the ``x -> y`` kernel; :func:`conv2d` binds for the
shape it is given and calls.

`conv_transpose2d` is lowered to a stride-1 convolution of the
zero-stuffed input with the spatially flipped, transposed kernel —
the textbook equivalence, kept simple because transposed convs are a
tiny fraction of UNet runtime.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..ir.ops import conv_output_hw
from .im2col import pad2d, pair

__all__ = ["bind_conv2d", "conv2d", "pointwise_conv",
           "bind_conv_transpose2d", "conv_transpose2d"]


def _bind_pointwise(weight2d: np.ndarray, bias: np.ndarray | None
                    ) -> Callable[[np.ndarray], np.ndarray]:
    cout, cin = weight2d.shape
    bias4 = None if bias is None else bias[None, :, None, None]

    def pointwise(x: np.ndarray) -> np.ndarray:
        n, _c, h, w = x.shape
        # np.tensordot(weight2d, x, axes=([1], [1])) without its per-call
        # axis bookkeeping: the same transpose, reshape and one GEMM
        out = np.dot(weight2d, x.transpose(1, 0, 2, 3).reshape(cin, -1))
        out = out.reshape(cout, n, h, w).transpose(1, 0, 2, 3)
        if bias4 is not None:
            out = out + bias4
        return np.ascontiguousarray(out)

    return pointwise


def pointwise_conv(x: np.ndarray, weight2d: np.ndarray,
                   bias: np.ndarray | None = None) -> np.ndarray:
    """1×1 stride-1 convolution: ``y[n,o,h,w] = Σ_c W[o,c] x[n,c,h,w]``.

    ``weight2d`` has shape ``(C_out, C_in)``.

    A sample's output depends on that sample only, but its bits are
    *not* promised across batch sizes: the one GEMM folds the batch into
    its ``N``, and BLAS's rounding order follows the GEMM's shape.  The
    serving probe (:func:`repro.serve.batcher.probe_buckets`) decides per
    shape whether a smaller batch may stand in for a larger one.
    """
    return _bind_pointwise(weight2d, bias)(x)


def bind_conv2d(x_shape: tuple[int, ...], weight: np.ndarray,
                bias: np.ndarray | None = None, stride=(1, 1),
                padding=(0, 0), groups: int = 1,
                dilation=(1, 1)) -> Callable[[np.ndarray], np.ndarray]:
    """The convolution kernel for inputs of shape ``x_shape`` (any
    batch).  ``weight``: ``(C_out, C_in/groups, KH, KW)``."""
    cout, cin_g, kh, kw = weight.shape
    sh, sw = pair(stride)
    _n, c, h, w = x_shape
    if c != groups * cin_g or cout % groups:
        raise ValueError(f"input {tuple(x_shape)} and weight {weight.shape} "
                         f"do not form a convolution with groups={groups}")
    if groups == 1 and kh == 1 and kw == 1 and (sh, sw) == (1, 1) \
            and pair(padding) == (0, 0):
        return _bind_pointwise(weight.reshape(cout, cin_g), bias)

    dh, dw = pair(dilation)
    ph, pw = pair(padding)
    oh, ow = conv_output_hw(h, w, (kh, kw), stride, padding, dilation)
    flat = (sh, sw) == (1, 1) and ow == w
    wraps = []
    if flat:
        # rows stay w wide; the planes are padded vertically only, with a
        # margin of pw (== (kw-1)*dw - pw here) at both ends, so every tap
        # reads one run of oh*w values
        pitch, plane = w, 2 * pw + (h + 2 * ph) * w
        start = pw + ph * w
        # the run of a tap shifted by s = j*dw - pw carries |s| columns of
        # each row in from the neighbouring row (or a margin); they are the
        # cells a padded copy holds as zero
        for j in range(kw):
            s = j * dw - pw
            if s:
                cut = (slice(max(w - s, 0), None) if s > 0
                       else slice(None, min(-s, w)))
                wraps.append((slice(None),) * 3 + (j, slice(None), cut))
    else:
        pitch, plane = w + 2 * pw, (h + 2 * ph) * (w + 2 * pw)
    # the (C, kh, kw, oh, ow) window of every sample over its source, in
    # elements (the batch stride is c * plane).  np.ndarray builds it per
    # call in ~1 us; as_strided takes ~7 us, more than a small core's
    # whole copy
    window = (c, kh, kw, oh, ow)
    strides = (c * plane, plane, dh * pitch, dw, sh * pitch, sw)
    depth = cin_g * kh * kw
    grouped = weight.reshape(groups, cout // groups, depth)
    bias4 = None if bias is None else bias[None, :, None, None]

    def source(x: np.ndarray) -> np.ndarray:
        """The input as one C-contiguous buffer of ``plane``-long planes."""
        if ph == pw == 0:
            return np.ascontiguousarray(x)
        if not flat:
            return pad2d(x, padding)
        buf = np.zeros(x.shape[:2] + (plane,), dtype=x.dtype)
        buf[:, :, start:start + h * w].reshape(x.shape)[...] = x
        return buf

    def conv(x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        src = source(x)
        dtype = np.promote_types(x.dtype, weight.dtype)
        cols = np.empty((n,) + window, dtype=dtype)
        np.copyto(cols, np.ndarray((n,) + window, src.dtype, src, 0,
                                   tuple(s * src.itemsize for s in strides)))
        for wrap in wraps:
            cols[wrap] = 0
        out = np.empty((n, cout, oh, ow), dtype=dtype)
        np.matmul(grouped, cols.reshape(n, groups, depth, oh * ow),
                  out=out.reshape(n, groups, cout // groups, oh * ow))
        if bias4 is not None:
            out += bias4
        return out

    return conv


def conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None,
           stride=(1, 1), padding=(0, 0), groups: int = 1,
           dilation=(1, 1)) -> np.ndarray:
    """General 2D convolution. ``weight``: ``(C_out, C_in/groups, KH, KW)``."""
    return bind_conv2d(x.shape, weight, bias, stride, padding, groups,
                       dilation)(x)


def bind_conv_transpose2d(x_shape: tuple[int, ...], weight: np.ndarray,
                          bias: np.ndarray | None = None, stride=(1, 1),
                          padding=(0, 0), output_padding=(0, 0)
                          ) -> Callable[[np.ndarray], np.ndarray]:
    """The transposed-convolution kernel for inputs of shape ``x_shape``
    (any batch).  ``weight``: ``(C_in, C_out, KH, KW)``."""
    cin, _cout, kh, kw = weight.shape
    sh, sw = pair(stride)
    ph, pw = pair(padding)
    oph, opw = pair(output_padding)
    n, c, h, w = x_shape
    if c != cin:
        raise ValueError(f"input channels {c} != weight in-channels {cin}")

    # equivalent direct conv: flipped kernel, swapped in/out channels,
    # full padding reduced by the requested padding
    flipped = np.ascontiguousarray(
        weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))  # (Cout, Cin, KH, KW)
    pad_h, pad_w = kh - 1 - ph, kw - 1 - pw
    if pad_h < 0 or pad_w < 0:
        raise ValueError("padding larger than kernel-1 is not supported")
    # zero-stuff the input by the stride, straight into its padded buffer
    hs, ws = (h - 1) * sh + 1, (w - 1) * sw + 1
    stuffed_hw = (hs + 2 * pad_h + oph, ws + 2 * pad_w + opw)
    holes = (slice(None), slice(None), slice(pad_h, pad_h + hs, sh),
             slice(pad_w, pad_w + ws, sw))
    conv = bind_conv2d((n, c) + stuffed_hw, flipped, bias)

    def conv_transpose(x: np.ndarray) -> np.ndarray:
        stuffed = np.zeros(x.shape[:2] + stuffed_hw, dtype=x.dtype)
        stuffed[holes] = x
        return conv(stuffed)

    return conv_transpose


def conv_transpose2d(x: np.ndarray, weight: np.ndarray,
                     bias: np.ndarray | None = None, stride=(1, 1),
                     padding=(0, 0), output_padding=(0, 0)) -> np.ndarray:
    """Transposed convolution. ``weight``: ``(C_in, C_out, KH, KW)``."""
    return bind_conv_transpose2d(x.shape, weight, bias, stride, padding,
                                 output_padding)(x)
