"""Vectorized NumPy kernels for every IR op.

``KERNELS`` maps op kind -> callable ``(node, inputs: list[ndarray]) ->
ndarray``; the executor dispatches through it.  Individual kernels are
also exported directly for use in tests and reference implementations.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..ir.node import Node
from .activation import (elu, gelu, get_activation, hardswish,
                         leaky_relu, relu, sigmoid, silu, softmax, tanh)
from .conv import conv2d, conv_transpose2d, pointwise_conv
from .fused import (DEFAULT_BLOCK_SIZE, fused_block, fused_restore,
                    fused_scratch_bytes)
from .im2col import pad2d, pair, sliding_windows
from .linear import batchnorm2d, linear
from .pool import avgpool2d, global_avgpool, maxpool2d, upsample_nearest

__all__ = [
    "KERNELS",
    "run_node",
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


def _k_conv2d(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    return conv2d(inputs[0], node.params["weight"], node.params.get("bias"),
                  stride=node.attrs.get("stride", (1, 1)),
                  padding=node.attrs.get("padding", (0, 0)),
                  groups=int(node.attrs.get("groups", 1)),
                  dilation=node.attrs.get("dilation", (1, 1)))


def _k_conv_transpose2d(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    return conv_transpose2d(inputs[0], node.params["weight"], node.params.get("bias"),
                            stride=node.attrs.get("stride", (1, 1)),
                            padding=node.attrs.get("padding", (0, 0)),
                            output_padding=node.attrs.get("output_padding", (0, 0)))


def _k_linear(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    return linear(inputs[0], node.params["weight"], node.params.get("bias"))


def _k_batchnorm2d(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    return batchnorm2d(inputs[0], node.params["gamma"], node.params["beta"],
                       node.params["mean"], node.params["var"],
                       eps=float(node.attrs.get("eps", 1e-5)))


def _k_maxpool2d(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    return maxpool2d(inputs[0], node.attrs["kernel"],
                     node.attrs.get("stride", node.attrs["kernel"]),
                     node.attrs.get("padding", 0))


def _k_avgpool2d(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    return avgpool2d(inputs[0], node.attrs["kernel"],
                     node.attrs.get("stride", node.attrs["kernel"]),
                     node.attrs.get("padding", 0))


def _k_fused_restore(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    return fused_restore(inputs[0], node.params["w1"], node.params.get("b1"),
                         act=node.attrs.get("act"),
                         pool=node.attrs.get("pool"),
                         upsample=int(node.attrs.get("upsample", 0) or 0),
                         block_size=int(node.attrs.get("block_size", DEFAULT_BLOCK_SIZE)),
                         spatial_tile=int(node.attrs.get("spatial_tile", 0) or 0),
                         act_params=node.attrs.get("act_params"))


def _k_fused_block(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    return fused_block(inputs[0], node.params["w1"], node.params.get("b1"),
                       node.params["w2"], node.params.get("b2"),
                       act=node.attrs.get("act"),
                       pool=node.attrs.get("pool"),
                       upsample=int(node.attrs.get("upsample", 0) or 0),
                       block_size=int(node.attrs.get("block_size", DEFAULT_BLOCK_SIZE)),
                       spatial_tile=int(node.attrs.get("spatial_tile", 0) or 0),
                       act_params=node.attrs.get("act_params"))


def site_scratch_bytes(node: Node, block_size: int | None = None,
                       spatial_tile: int | None = None) -> int:
    """:func:`fused_scratch_bytes` of a fused node — at the tile its attrs
    carry, or at another one — and 0 for every other op."""
    if node.op not in ("fused_block", "fused_restore"):
        return 0
    if block_size is None:
        block_size = node.attrs.get("block_size", DEFAULT_BLOCK_SIZE)
    if spatial_tile is None:
        spatial_tile = node.attrs.get("spatial_tile", 0) or 0
    return fused_scratch_bytes(
        node.input.shape, node.input.dtype.itemsize,
        block_size=int(block_size), c_prime=node.params["w1"].shape[0],
        spatial_tile=int(spatial_tile), pool=node.attrs.get("pool"))


KERNELS: dict[str, Callable[[Node, list[np.ndarray]], np.ndarray]] = {
    "conv2d": _k_conv2d,
    "conv_transpose2d": _k_conv_transpose2d,
    "linear": _k_linear,
    "batchnorm2d": _k_batchnorm2d,
    "maxpool2d": _k_maxpool2d,
    "avgpool2d": _k_avgpool2d,
    "global_avgpool": lambda node, inputs: global_avgpool(inputs[0]),
    "upsample_nearest": lambda node, inputs: upsample_nearest(
        inputs[0], int(node.attrs.get("scale", 2))),
    "flatten": lambda node, inputs: np.ascontiguousarray(
        inputs[0].reshape(node.output.shape)),
    "relu": lambda node, inputs: relu(inputs[0]),
    "silu": lambda node, inputs: silu(inputs[0]),
    "sigmoid": lambda node, inputs: sigmoid(inputs[0]),
    "tanh": lambda node, inputs: tanh(inputs[0]),
    "leaky_relu": lambda node, inputs: leaky_relu(
        inputs[0], float(node.attrs.get("negative_slope", 0.01))),
    "elu": lambda node, inputs: elu(inputs[0], float(node.attrs.get("alpha", 1.0))),
    "hardswish": lambda node, inputs: hardswish(inputs[0]),
    "gelu": lambda node, inputs: gelu(inputs[0]),
    "softmax": lambda node, inputs: softmax(inputs[0], int(node.attrs.get("axis", 1))),
    "identity": lambda node, inputs: inputs[0],
    "dropout": lambda node, inputs: inputs[0],  # inference mode: no-op
    "add": lambda node, inputs: _sum_all(inputs),
    "concat": lambda node, inputs: np.concatenate(inputs, axis=int(node.attrs.get("axis", 1))),
    "fused_block": _k_fused_block,
    "fused_restore": _k_fused_restore,
}


def _sum_all(inputs: list[np.ndarray]) -> np.ndarray:
    out = inputs[0] + inputs[1]
    for extra in inputs[2:]:
        out += extra
    return out


def run_node(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    """Execute one node on concrete arrays (used by executor and tests)."""
    try:
        kernel = KERNELS[node.op]
    except KeyError as exc:
        raise KeyError(f"no kernel registered for op {node.op!r}") from exc
    out = kernel(node, inputs)
    if out.shape != node.output.shape:
        raise RuntimeError(
            f"kernel for {node.op!r} produced shape {out.shape}, "
            f"IR says {node.output.shape} (node {node.name!r})")
    return out
