"""FractalNet (Larsson et al.) with sum joins, flat resolution.

The fractal expansion ``f_{c}(x) = join(conv(x), f_{c-1}(f_{c-1}(x)))``
computes the shallow column first, so its output idles across the
entire deep sub-tree before the join — one long-lived tensor per
recursion level.  Like :mod:`~repro.models.wavenet` this puts the peak
well above the single-node working-set floor, giving the budget
planner (:mod:`repro.plan`) real spill headroom; the original
mean-join is replaced by an elementwise sum, which the skip optimizer
already models.
"""

from __future__ import annotations

from ..ir.graph import Graph, GraphBuilder
from ..ir.value import Value
from .common import classifier_head, conv_relu

__all__ = ["build_fractalnet"]


def _fractal(b: GraphBuilder, x: Value, channels: int, col: int,
             name: str) -> Value:
    if col == 1:
        return conv_relu(b, x, channels, name=f"{name}.c")
    short = conv_relu(b, x, channels, name=f"{name}.s")
    deep = _fractal(b, x, channels, col - 1, f"{name}.a")
    deep = _fractal(b, deep, channels, col - 1, f"{name}.b")
    return b.add(short, deep, name=f"{name}.join")


def build_fractalnet(batch: int = 4, hw: int = 32, num_classes: int = 10,
                     seed: int = 0, *, channels: int = 16,
                     columns: int = 6) -> Graph:
    """Build a ``columns``-column fractal block and classifier head.

    The block holds resolution and width constant so every idle column
    output is the same size; peak live bytes grow with ``columns``
    while the per-node floor stays at three tensors (the sum joins).
    """
    if columns < 2:
        raise ValueError(f"fractalnet needs at least 2 columns, got {columns}")
    b = GraphBuilder("fractalnet", seed=seed)
    x = b.input("image", (batch, 3, hw, hw))
    h = conv_relu(b, x, channels, name="stem")
    h = _fractal(b, h, channels, columns, "frac")
    return b.finish(classifier_head(b, h, num_classes))
