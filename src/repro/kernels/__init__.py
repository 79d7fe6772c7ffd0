"""Vectorized NumPy kernels for every IR op, bound once per node.

``BINDERS`` maps op kind -> binder ``(node) -> kernel``, and a kernel is
``(inputs: list[ndarray]) -> ndarray``.  A binder resolves everything the
node's static input shape, attrs and weights fix — a conv's path,
geometry, im2col view strides and weight views, a batchnorm's scale and
shift, an activation with its attrs, a pool's window, a fused kernel's
tiles, packed ``[w1 | b1]`` and where each of its inputs lands in
``[x; 1]`` — so a call only computes.  A merged lconv with pass-through
runs that stays unfused runs the fused kernel's restore, one block
written straight into its output.  :func:`bind` looks the binder up; a
:class:`~repro.runtime.executor.Schedule` binds every node of its graph
once, when a session is built.  :func:`run_node` binds and runs one
node, for callers that hold no session.

A kernel keeps what it derived from the node's weights (some of it
copies), so a graph whose nodes are bound must not have its ``params``
mutated.  A kernel holds no per-call state: one may run on several
threads at once.  Individual kernels are also exported directly for
use in tests and reference implementations.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

import numpy as np

from ..ir.node import Node
from ..ir.ops import (ACTIVATION_OPS, fused_input_shape, input_scales,
                      passthrough_runs, tile_channels)
from .activation import (elu, gelu, get_activation, hardswish,
                         leaky_relu, relu, sigmoid, silu, softmax, tanh)
from .conv import (bind_conv2d, bind_conv_transpose2d, conv2d,
                   conv_transpose2d, pointwise_conv)
from .fused import (DEFAULT_BLOCK_SIZE, bind_fused, fused_block,
                    fused_restore, fused_scratch_bytes)
from .im2col import pad2d, pair, sliding_windows
from .linear import batchnorm2d, bind_batchnorm2d, linear
from .pool import (avgpool2d, bind_pool2d, global_avgpool, maxpool2d,
                   upsample_nearest)

__all__ = [
    "BINDERS",
    "Kernel",
    "bind",
    "run_node",
    "output_shape_error",
    "bind_conv2d",
    "bind_fused",
    "bind_pool2d",
    "conv2d",
    "conv_transpose2d",
    "pointwise_conv",
    "fused_block",
    "fused_restore",
    "fused_scratch_bytes",
    "site_scratch_bytes",
    "DEFAULT_BLOCK_SIZE",
    "linear",
    "batchnorm2d",
    "maxpool2d",
    "avgpool2d",
    "global_avgpool",
    "upsample_nearest",
    "relu",
    "silu",
    "sigmoid",
    "tanh",
    "leaky_relu",
    "elu",
    "hardswish",
    "gelu",
    "softmax",
    "get_activation",
    "pad2d",
    "pair",
    "sliding_windows",
]

#: a bound node: its input arrays -> its output array
Kernel = Callable[[list[np.ndarray]], np.ndarray]

#: the node attrs an activation op passes on, with their defaults
_ACTIVATION_ATTRS = {"leaky_relu": ("negative_slope", 0.01),
                     "elu": ("alpha", 1.0)}

_first: Kernel = itemgetter(0)


def _unary(fn: Callable[[np.ndarray], np.ndarray]) -> Kernel:
    return lambda inputs: fn(inputs[0])


def _bind_conv2d(node: Node) -> Kernel:
    attrs = node.attrs
    if attrs.get("passthrough"):
        # a merged lconv left unfused: the fused kernel's restore, one
        # block written straight into the output
        weight = node.params["weight"]
        return _unary(bind_fused(
            node.inputs[0].shape, weight[:, :, 0, 0], node.params.get("bias"),
            block_size=node.output.shape[1],
            passthrough=passthrough_runs(node)))
    return _unary(bind_conv2d(
        node.inputs[0].shape, node.params["weight"], node.params.get("bias"),
        stride=attrs.get("stride", (1, 1)),
        padding=attrs.get("padding", (0, 0)),
        groups=int(attrs.get("groups", 1)),
        dilation=attrs.get("dilation", (1, 1))))


def _bind_conv_transpose2d(node: Node) -> Kernel:
    attrs = node.attrs
    return _unary(bind_conv_transpose2d(
        node.inputs[0].shape, node.params["weight"], node.params.get("bias"),
        stride=attrs.get("stride", (1, 1)),
        padding=attrs.get("padding", (0, 0)),
        output_padding=attrs.get("output_padding", (0, 0))))


def _bind_linear(node: Node) -> Kernel:
    weight, bias = node.params["weight"], node.params.get("bias")
    return lambda inputs: linear(inputs[0], weight, bias)


def _bind_batchnorm2d(node: Node) -> Kernel:
    p = node.params
    return _unary(bind_batchnorm2d(p["gamma"], p["beta"], p["mean"], p["var"],
                                   eps=float(node.attrs.get("eps", 1e-5))))


def _bind_pool(kind: str) -> Callable[[Node], Kernel]:
    def binder(node: Node) -> Kernel:
        kernel = node.attrs["kernel"]
        return _unary(bind_pool2d(kind, node.inputs[0].shape, kernel,
                                  node.attrs.get("stride", kernel),
                                  node.attrs.get("padding", 0)))
    return binder


def _bind_upsample(node: Node) -> Kernel:
    scale = int(node.attrs.get("scale", 2))
    return lambda inputs: upsample_nearest(inputs[0], scale)


def _bind_flatten(node: Node) -> Kernel:
    shape = node.output.shape
    return lambda inputs: np.ascontiguousarray(inputs[0].reshape(shape))


def _bind_activation(node: Node) -> Kernel:
    params = {}
    if node.op in _ACTIVATION_ATTRS:
        key, default = _ACTIVATION_ATTRS[node.op]
        params[key] = float(node.attrs.get(key, default))
    return _unary(get_activation(node.op, **params))


def _bind_softmax(node: Node) -> Kernel:
    axis = int(node.attrs.get("axis", 1))
    return lambda inputs: softmax(inputs[0], axis)


def _bind_concat(node: Node) -> Kernel:
    axis = int(node.attrs.get("axis", 1))
    return lambda inputs: np.concatenate(inputs, axis=axis)


def _sum_all(inputs: list[np.ndarray]) -> np.ndarray:
    out = inputs[0] + inputs[1]
    for extra in inputs[2:]:
        out += extra
    return out


def _bind_fused(node: Node) -> Kernel:
    attrs, params = node.attrs, node.params
    w2, b2 = ((params["w2"], params.get("b2")) if node.op == "fused_block"
              else (None, None))
    kernel = bind_fused(
        [v.shape for v in node.inputs], params["w1"], params.get("b1"), w2,
        b2, act=attrs.get("act"), pool=attrs.get("pool"),
        block_size=int(attrs.get("block_size", DEFAULT_BLOCK_SIZE)),
        act_params=attrs.get("act_params"), passthrough=passthrough_runs(node),
        scales=input_scales(node))
    return lambda inputs: kernel(*inputs)


def site_scratch_bytes(node: Node, block_size: int | None = None) -> int:
    """:func:`fused_scratch_bytes` of a fused node — at the block its attrs
    carry, or at another one — and 0 for every other op."""
    if node.op not in ("fused_block", "fused_restore"):
        return 0
    if block_size is None:
        block_size = node.attrs.get("block_size", DEFAULT_BLOCK_SIZE)
    return fused_scratch_bytes(
        fused_input_shape(node), node.inputs[0].dtype.itemsize,
        block_size=int(block_size), c_prime=tile_channels(node))


BINDERS: dict[str, Callable[[Node], Kernel]] = {
    "conv2d": _bind_conv2d,
    "conv_transpose2d": _bind_conv_transpose2d,
    "linear": _bind_linear,
    "batchnorm2d": _bind_batchnorm2d,
    "maxpool2d": _bind_pool("max"),
    "avgpool2d": _bind_pool("avg"),
    "global_avgpool": lambda node: _unary(global_avgpool),
    "upsample_nearest": _bind_upsample,
    "flatten": _bind_flatten,
    **dict.fromkeys(ACTIVATION_OPS, _bind_activation),
    "softmax": _bind_softmax,
    "identity": lambda node: _first,
    "dropout": lambda node: _first,  # inference mode: no-op
    "add": lambda node: _sum_all,
    "concat": _bind_concat,
    "fused_block": _bind_fused,
    "fused_restore": _bind_fused,
}


def bind(node: Node) -> Kernel:
    """``node``'s kernel, with everything its shapes, attrs and weights
    fix resolved now rather than at every call."""
    try:
        binder = BINDERS[node.op]
    except KeyError as exc:
        raise KeyError(f"no kernel registered for op {node.op!r}") from exc
    return binder(node)


def output_shape_error(node: Node, out: np.ndarray) -> RuntimeError:
    """The error for a kernel whose output disagrees with the IR."""
    return RuntimeError(
        f"kernel for {node.op!r} produced shape {out.shape}, "
        f"IR says {node.output.shape} (node {node.name!r})")


def run_node(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    """Bind ``node`` and run it once on concrete arrays — for callers
    that hold no session (the serving probe, autodiff, tests); a session
    runs its :class:`~repro.runtime.executor.Schedule`'s kernels, bound
    once."""
    out = bind(node)(inputs)
    if out.shape != node.output.shape:
        raise output_shape_error(node, out)
    return out
