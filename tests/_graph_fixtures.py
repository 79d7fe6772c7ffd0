"""Graph factories shared across the test suite (unique module name)."""

from __future__ import annotations

import numpy as np

from repro.data import random_inputs
from repro.ir import GraphBuilder


def make_chain_graph(seed: int = 0, batch: int = 2, channels: int = 16,
                     hw: int = 12):
    """conv-relu-pool-conv-relu: the Figure 3 scenario."""
    b = GraphBuilder("chain", seed=seed)
    x = b.input("x", (batch, channels, hw, hw))
    h = b.relu(b.conv2d(x, 2 * channels, 3, padding=1, name="c1"))
    h = b.maxpool2d(h, 2)
    h = b.relu(b.conv2d(h, 2 * channels, 3, padding=1, name="c2"))
    return b.finish(h)


def make_skip_graph(seed: int = 0, batch: int = 2, channels: int = 16,
                    hw: int = 16):
    """A UNet-style concat skip: Figure 7's running example."""
    b = GraphBuilder("skipnet", seed=seed)
    x = b.input("x", (batch, channels, hw, hw))
    e1 = b.relu(b.conv2d(x, 2 * channels, 3, padding=1, name="enc1"))
    h = b.maxpool2d(e1, 2)
    h = b.relu(b.conv2d(h, 4 * channels, 3, padding=1, name="enc2"))
    h = b.upsample_nearest(h, 2)
    h = b.concat(e1, h, name="join")
    h = b.relu(b.conv2d(h, 2 * channels, 3, padding=1, name="dec"))
    return b.finish(h)


def make_residual_graph(seed: int = 0, batch: int = 2, channels: int = 16,
                        hw: int = 12, blocks: int = 2):
    """ResNet-style add skips."""
    b = GraphBuilder("resnetish", seed=seed)
    x = b.input("x", (batch, channels, hw, hw))
    h = b.relu(b.conv2d(x, 2 * channels, 3, padding=1, name="stem"))
    for i in range(blocks):
        identity = h
        y = b.relu(b.conv2d(h, 2 * channels, 3, padding=1, name=f"b{i}.c1"))
        y = b.conv2d(y, 2 * channels, 3, padding=1, name=f"b{i}.c2")
        h = b.relu(b.add(y, identity))
    return b.finish(h)


def random_input(graph, seed: int = 0) -> dict[str, np.ndarray]:
    return random_inputs(graph, seed)
