"""Convolution kernels (forward only, NCHW).

Two code paths:

- **pointwise fast path** — 1×1 stride-1 ungrouped convs (the
  fconv/lconv layers that dominate decomposed models) run as one
  ``tensordot`` over the channel axis, no window copy needed;
- **spatial path** — everything else (dense, grouped, depthwise; any
  stride, padding, dilation, kernel shape) is one explicit im2col and
  one batched GEMM.  The input is padded once and its ``kh*kw`` shifted
  slices (stride and dilation live only in the slice expressions) are
  copied into a channel-major column buffer ``cols[N, C, kh*kw, OH,
  OW]``, so the weight needs no repacking; one broadcast ``np.matmul``
  then writes the NCHW result and the bias is added in place.  Scratch
  is the padded input plus ``cols`` — no output-sized temporary — and
  the GEMMs run per sample, so ``conv2d(x)[i]`` is bitwise
  ``conv2d(x[i:i+1])``.

`conv_transpose2d` is lowered to a stride-1 convolution of the
zero-stuffed input with the spatially flipped, transposed kernel —
the textbook equivalence, kept simple because transposed convs are a
tiny fraction of UNet runtime.
"""

from __future__ import annotations

import numpy as np

from ..ir.ops import conv_output_hw
from .im2col import pad2d, pair

__all__ = ["conv2d", "pointwise_conv", "conv_transpose2d"]


def pointwise_conv(x: np.ndarray, weight2d: np.ndarray,
                   bias: np.ndarray | None = None) -> np.ndarray:
    """1×1 stride-1 convolution: ``y[n,o,h,w] = Σ_c W[o,c] x[n,c,h,w]``.

    ``weight2d`` has shape ``(C_out, C_in)``.

    A sample's output depends on that sample only, but its bits are
    *not* promised across batch sizes: ``tensordot`` folds the batch
    into the GEMM's ``N``, and BLAS's rounding order follows the GEMM's
    shape.  The serving probe
    (:func:`repro.serve.batcher.probe_buckets`) decides per shape
    whether a smaller batch may stand in for a larger one.
    """
    out = np.tensordot(weight2d, x, axes=([1], [1]))  # (Cout, N, H, W)
    out = np.moveaxis(out, 0, 1)
    if bias is not None:
        out = out + bias[None, :, None, None]
    return np.ascontiguousarray(out)


def conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None,
           stride=(1, 1), padding=(0, 0), groups: int = 1,
           dilation=(1, 1)) -> np.ndarray:
    """General 2D convolution. ``weight``: ``(C_out, C_in/groups, KH, KW)``."""
    cout, cin_g, kh, kw = weight.shape
    sh, sw = pair(stride)
    n, c, h, w = x.shape
    if c != groups * cin_g or cout % groups:
        raise ValueError(f"input {x.shape} and weight {weight.shape} do not "
                         f"form a convolution with groups={groups}")
    if groups == 1 and kh == 1 and kw == 1 and (sh, sw) == (1, 1) \
            and pair(padding) == (0, 0):
        return pointwise_conv(x, weight.reshape(cout, cin_g), bias)

    dh, dw = pair(dilation)
    oh, ow = conv_output_hw(h, w, (kh, kw), stride, padding, dilation)
    xp = pad2d(x, padding)
    dtype = np.result_type(x, weight)
    cols = np.empty((n, c, kh * kw, oh, ow), dtype=dtype)
    for i in range(kh):
        rows = slice(i * dh, i * dh + sh * (oh - 1) + 1, sh)
        for j in range(kw):
            cols[:, :, i * kw + j] = xp[:, :, rows,
                                        j * dw:j * dw + sw * (ow - 1) + 1:sw]
    out = np.empty((n, cout, oh, ow), dtype=dtype)
    depth = cin_g * kh * kw
    np.matmul(weight.reshape(groups, cout // groups, depth),
              cols.reshape(n, groups, depth, oh * ow),
              out=out.reshape(n, groups, cout // groups, oh * ow))
    if bias is not None:
        out += bias[None, :, None, None]
    return out


def conv_transpose2d(x: np.ndarray, weight: np.ndarray,
                     bias: np.ndarray | None = None, stride=(1, 1),
                     padding=(0, 0), output_padding=(0, 0)) -> np.ndarray:
    """Transposed convolution. ``weight``: ``(C_in, C_out, KH, KW)``."""
    cin, cout, kh, kw = weight.shape
    sh, sw = pair(stride)
    ph, pw = pair(padding)
    oph, opw = pair(output_padding)
    n, c, h, w = x.shape
    if c != cin:
        raise ValueError(f"input channels {c} != weight in-channels {cin}")

    # equivalent direct conv: flipped kernel, swapped in/out channels,
    # full padding reduced by the requested padding
    wk = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # (Cout, Cin, KH, KW)
    pad_h, pad_w = kh - 1 - ph, kw - 1 - pw
    if pad_h < 0 or pad_w < 0:
        raise ValueError("padding larger than kernel-1 is not supported")
    # zero-stuff the input by the stride, straight into its padded buffer
    hs, ws = (h - 1) * sh + 1, (w - 1) * sw + 1
    stuffed = np.zeros((n, c, hs + 2 * pad_h + oph, ws + 2 * pad_w + opw),
                       dtype=x.dtype)
    stuffed[:, :, pad_h:pad_h + hs:sh, pad_w:pad_w + ws:sw] = x
    return conv2d(stuffed, wk, bias)
