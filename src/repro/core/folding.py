"""BatchNorm folding (inference-time canonicalization).

The paper evaluates inference graphs; frameworks fold each
``conv → batchnorm`` pair into a single convolution with rescaled
weights before any memory optimization.  We do the same so batchnorm
never sits between an lconv and an activation (which would block
fusion) — and so the model zoo can be built with batchnorm for
realism without affecting the optimizer.
"""

from __future__ import annotations

import numpy as np

from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.rewrite import Splice, rewrite

__all__ = ["fold_batchnorm"]


def fold_batchnorm(graph: Graph) -> int:
    """Fold every ``conv2d → batchnorm2d`` pair in place.

    The batchnorm must be the conv's only consumer.  Returns the number
    of folds.  Batchnorms not preceded by a conv are left in the graph
    (the executor runs them directly).
    """
    return rewrite(graph, lambda node: node.op == "batchnorm2d", _fold)


def _fold(graph: Graph, bn: Node, consumers: dict) -> Splice | None:
    """Rescale the conv under ``bn`` in place; the batchnorm's uses then
    read the conv."""
    conv = graph.producer_of(bn.inputs[0])
    if conv is None or conv.op != "conv2d" or len(consumers[conv.output]) != 1:
        return None
    if conv.attrs.get("passthrough"):
        return None  # a pass-through run has no weight to rescale
    gamma = bn.params["gamma"].astype(np.float64)
    beta = bn.params["beta"].astype(np.float64)
    mean = bn.params["mean"].astype(np.float64)
    var = bn.params["var"].astype(np.float64)
    eps = float(bn.attrs.get("eps", 1e-5))
    scale = gamma / np.sqrt(var + eps)

    weight = conv.params["weight"]
    bias = conv.params.get("bias")
    new_weight = (weight.astype(np.float64)
                  * scale[:, None, None, None]).astype(weight.dtype)
    base = bias.astype(np.float64) if bias is not None else 0.0
    new_bias = (beta + (base - mean) * scale).astype(weight.dtype)

    conv.params["weight"] = new_weight
    conv.params["bias"] = new_bias
    return Splice([], bn.output, conv.output, "fold", bn.name, "apply",
                  "sole_consumer_of_conv",
                  {"conv": conv.name, "channels": int(weight.shape[0])})
