"""Element-wise activation kernels.

Each activation is a pure ``ndarray -> ndarray`` function; the fused
block reuses these on channel-block tiles, which is what makes
activation-layer fusion semantics-preserving (the activation is applied
to exactly the same elements, just in tiled order) and, through ``out=``
(which may be the input), in place with the same arithmetic.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["relu", "silu", "sigmoid", "tanh", "leaky_relu", "elu",
           "hardswish", "gelu", "get_activation", "softmax"]


#: columns per ``np.maximum`` call: a zeros row that stays in cache
_ZEROS_ROW = 1 << 15
#: below this many elements the ~1.5 us of view set-up outweighs the SIMD loop
_SIMD_MIN = 1 << 12
_zeros: dict[np.dtype, np.ndarray] = {}


def _sample_rows(a: np.ndarray) -> np.ndarray | None:
    """``a`` as a ``(samples, slab)`` view; None where a sample's slab is
    not contiguous, so that flattening it would copy."""
    if a.ndim < 2:
        return a.reshape(1, -1) if a.ndim and a.flags.c_contiguous else None
    if a.flags.c_contiguous or a[0].flags.c_contiguous:
        return a.reshape(a.shape[0], -1)
    return None


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.maximum(x, 0)``, bit for bit; ``out`` is ``x`` or apart from it.

    NumPy's SIMD ``maximum`` covers array-op-array only — a scalar
    operand takes the element loop, ~4x slower — so wherever every
    sample's slab is contiguous (a whole tensor, a channel slice
    ``a[:, c0:c1]``, a scratch tile) the floats are compared against a
    row of zeros over a ``(samples, slab)`` view.
    """
    x = np.asarray(x)
    rows = (_sample_rows(x) if x.size >= _SIMD_MIN and x.dtype.kind == "f"
            else None)
    if rows is None:
        return np.maximum(x, 0, out=out)
    if out is None:
        out = np.empty(x.shape, dtype=x.dtype)
        out_rows = out.reshape(rows.shape)
    elif out is x:
        out_rows = rows
    elif out.shape == x.shape and out.dtype == x.dtype:
        out_rows = _sample_rows(out)
    else:
        out_rows = None
    if out_rows is None:
        return np.maximum(x, 0, out=out)
    zeros = _zeros.get(x.dtype)
    if zeros is None:
        zeros = _zeros[x.dtype] = np.zeros(_ZEROS_ROW, dtype=x.dtype)
    slab = rows.shape[1]
    if slab <= _ZEROS_ROW:
        np.maximum(rows, zeros[:slab], out=out_rows)
    else:
        for c0 in range(0, slab, _ZEROS_ROW):
            c1 = min(c0 + _ZEROS_ROW, slab)
            np.maximum(rows[:, c0:c1], zeros[:c1 - c0],
                       out=out_rows[:, c0:c1])
    return out


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # numerically stable piecewise logistic (each half reads before it writes)
    if out is None:
        out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def silu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sigmoid-weighted linear unit (a.k.a. swish), x * sigmoid(x)."""
    return np.multiply(x, sigmoid(x), out=out)


def tanh(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.tanh(x, out=out)


def leaky_relu(x: np.ndarray, negative_slope: float = 0.01,
               out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.array(x, dtype=np.result_type(x, negative_slope), order="C")
    elif out is not x:
        out[...] = x
    # in place: only the mask is a temporary (NaN and -0.0 pass through)
    return np.multiply(x, negative_slope, out=out, where=x < 0)


def elu(x: np.ndarray, alpha: float = 1.0,
        out: np.ndarray | None = None) -> np.ndarray:
    """Exponential linear unit: x for x>0, α(eˣ−1) otherwise."""
    if out is None:
        out = x.copy()
    elif out is not x:
        out[...] = x
    neg = x < 0
    out[neg] = alpha * np.expm1(x[neg])
    return out


def hardswish(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x · clip(x+3, 0, 6) / 6 (MobileNetV3's cheap swish)."""
    return np.divide(x * np.clip(x + 3.0, 0.0, 6.0), 6.0, out=out)


def gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation)."""
    c = (2.0 / np.pi) ** 0.5  # a Python float: keeps a float32 input float32
    return np.multiply(0.5 * x, 1.0 + np.tanh(c * (x + 0.044715 * x ** 3)),
                       out=out)


def softmax(x: np.ndarray, axis: int = 1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


_ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": relu,
    "silu": silu,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "leaky_relu": leaky_relu,
    "elu": elu,
    "hardswish": hardswish,
    "gelu": gelu,
}


def get_activation(name: str, **params) -> Callable[[np.ndarray], np.ndarray]:
    """Look up an activation; extra ``params`` (e.g. ``negative_slope``,
    ``alpha``) are bound into the returned callable."""
    try:
        fn = _ACTIVATIONS[name]
    except KeyError as exc:
        raise KeyError(f"unknown activation {name!r}; known: {sorted(_ACTIVATIONS)}") from exc
    if params:
        import functools
        return functools.partial(fn, **params)
    return fn
