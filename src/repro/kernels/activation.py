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


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0, out=out)


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
    result = np.where(x >= 0, x, negative_slope * x)
    if out is None:
        return result
    out[...] = result
    return out


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
