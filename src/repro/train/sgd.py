"""SGD training loop over IR graphs.

A deliberately small trainer — enough to realize the paper's accuracy
workflow on the synthetic datasets: train the original model, train (or
fine-tune) the decomposed model, then hand the decomposed weights to
TeMCO, whose optimizations provably keep the predictions (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..ir.graph import Graph
from .autodiff import backward, forward_with_tape

__all__ = ["SGDConfig", "TrainResult", "train", "train_classifier",
           "train_segmenter"]

#: velocity decay of the momentum update
MOMENTUM = 0.9
#: per-parameter gradient norm ceiling; larger gradients are rescaled
GRAD_CLIP = 5.0


@dataclass(frozen=True)
class SGDConfig:
    """Plain SGD with :data:`MOMENTUM` and :data:`GRAD_CLIP`."""

    learning_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass
class TrainResult:
    losses: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1]

    def improved(self, window: int = 3) -> bool:
        """Did the smoothed loss go down over training?"""
        if len(self.losses) < 2 * window:
            return self.losses[-1] < self.losses[0]
        head = float(np.mean(self.losses[:window]))
        tail = float(np.mean(self.losses[-window:]))
        return tail < head


def train(graph: Graph, batches, loss_fn: Callable, *,
          config: SGDConfig | None = None, steps: int | None = None) -> TrainResult:
    """Train ``graph``'s parameters in place.

    ``batches`` is an iterable of ``(inputs dict, target)``; ``loss_fn``
    maps ``(prediction, target) -> (value, grad)``.  Updates every
    parameter for which the backward pass produced a gradient (weights
    and biases of convs/linears, BN affine parameters).
    """
    config = config or SGDConfig()
    velocity: dict[tuple[str, str], np.ndarray] = {}
    result = TrainResult()
    out_name = graph.outputs[0].name
    for step, (inputs, target) in enumerate(batches):
        if steps is not None and step >= steps:
            break
        tape = forward_with_tape(graph, inputs)
        value, grad = loss_fn(tape.env[out_name], target)
        result.losses.append(value)
        grads = backward(tape, {out_name: grad})
        for node_name, param_grads in grads.params.items():
            node = graph.find_node(node_name)
            for pname, g in param_grads.items():
                g = g.astype(np.float64)
                norm = float(np.linalg.norm(g))
                if norm > GRAD_CLIP:
                    g = g * (GRAD_CLIP / norm)
                key = (node_name, pname)
                v = velocity.get(key)
                v = g if v is None else MOMENTUM * v + g
                velocity[key] = v
                node.params[pname] = (node.params[pname]
                                      - config.learning_rate * v).astype(
                    node.params[pname].dtype)
    return result


def train_classifier(graph: Graph, *, steps: int = 40, batch: int | None = None,
                     hw: int | None = None, num_classes: int = 10, seed: int = 0,
                     config: SGDConfig | None = None) -> TrainResult:
    """Train a classification graph on the synthetic labeled dataset."""
    from ..data import classification_batch
    from .losses import softmax_cross_entropy

    n, _c, h, _w = graph.inputs[0].shape
    batch = batch or n
    hw = hw or h

    def batches():
        step = 0
        while True:
            data = classification_batch(batch, hw=hw, num_classes=num_classes,
                                        seed=seed + step)
            yield {graph.inputs[0].name: data.images}, data.labels
            step += 1

    return train(graph, batches(), softmax_cross_entropy, config=config,
                 steps=steps)


def train_segmenter(graph: Graph, *, steps: int = 30, seed: int = 0,
                    config: SGDConfig | None = None) -> TrainResult:
    """Train a segmentation graph (sigmoid-mask output) on synthetic blobs."""
    from ..data import segmentation_batch
    from .losses import bce_with_probs

    n, _c, h, _w = graph.inputs[0].shape

    def batches():
        step = 0
        while True:
            data = segmentation_batch(n, hw=h, seed=seed + step)
            yield {graph.inputs[0].name: data.images}, data.masks
            step += 1

    return train(graph, batches(), bce_with_probs, config=config, steps=steps)
