"""Dense / normalization kernels."""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["linear", "bind_batchnorm2d", "batchnorm2d"]


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """``y = x @ W.T + b`` with ``W``: ``(out_features, in_features)``.

    A row of ``y`` depends on its own row of ``x`` only, but its bits
    are *not* promised across batch sizes: BLAS picks a gemv at one row
    and a gemm at several, and the two round in different orders.  The
    serving probe (:func:`repro.serve.batcher.probe_buckets`) decides
    per shape whether a smaller batch may stand in for a larger one.
    """
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def bind_batchnorm2d(gamma: np.ndarray, beta: np.ndarray, mean: np.ndarray,
                     var: np.ndarray, eps: float = 1e-5
                     ) -> Callable[[np.ndarray], np.ndarray]:
    """Inference-mode batch normalization with its running statistics
    folded into one per-channel scale and shift, once."""
    scale = gamma / np.sqrt(var + eps)
    shift = beta - mean * scale
    scale, shift = scale[None, :, None, None], shift[None, :, None, None]
    return lambda x: x * scale + shift


def batchnorm2d(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                mean: np.ndarray, var: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Inference-mode batch normalization with running statistics."""
    return bind_batchnorm2d(gamma, beta, mean, var, eps)(x)
