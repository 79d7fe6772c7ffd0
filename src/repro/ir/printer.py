"""Human-readable graph dumps.

The textual form mirrors the paper's running examples (Figure 7/8):
one SSA assignment per line, e.g. ::

    b = relu(a)                                  # 4x64x32x32 f32
    c1 = conv2d[role=fconv](b)                   # 4x6x32x32 f32

Used by examples and by failing-test output; parsing it back is not a
goal (see :mod:`repro.ir.serialize` for round-tripping).
"""

from __future__ import annotations

from .graph import Graph
from .node import Node
from .ops import input_scales

__all__ = ["format_graph", "format_node", "summarize_graph"]


def format_node(node: Node) -> str:
    """One node as ``out = op[attrs](ins)  # shape``; a fused kernel's
    input it reads nearest-upsampled by ``s`` prints as ``name↑s``."""
    ins = ", ".join(v.name + (f"↑{scale}" if scale != 1 else "")
                    for v, scale in zip(node.inputs, input_scales(node)))
    interesting = {k: v for k, v in node.attrs.items()
                   if k in ("role", "stride", "kernel", "scale", "axis", "act", "pool",
                            "groups")
                   and v not in (None, [1, 1], [0, 0], 1, {})}
    attr_str = ""
    if interesting:
        attr_str = "[" + ", ".join(f"{k}={_short(v)}" for k, v in sorted(interesting.items())) + "]"
    shape = "x".join(str(d) for d in node.output.shape)
    return f"{node.output.name} = {node.op}{attr_str}({ins})  # {shape}"


def _short(v) -> str:
    if isinstance(v, dict):
        return "{" + ",".join(f"{k}:{_short(x)}" for k, x in sorted(v.items())) + "}"
    if isinstance(v, list):
        return "x".join(str(x) for x in v)
    return str(v)


def format_graph(graph: Graph) -> str:
    """Render the whole graph, one SSA assignment per line."""
    lines = [f"graph {graph.name}:"]
    for v in graph.inputs:
        shape = "x".join(str(d) for d in v.shape)
        lines.append(f"  input {v.name}  # {shape}")
    for node in graph.nodes:
        lines.append("  " + format_node(node))
    outs = ", ".join(v.name for v in graph.outputs)
    lines.append(f"  return {outs}")
    return "\n".join(lines)


def summarize_graph(graph: Graph) -> str:
    """One-paragraph structural summary (op histogram, memory totals)."""
    histogram: dict[str, int] = {}
    for node in graph.nodes:
        histogram[node.op] = histogram.get(node.op, 0) + 1
    ops = ", ".join(f"{op}x{count}" for op, count in sorted(histogram.items()))
    weight_mib = graph.weight_bytes() / (1024 * 1024)
    return (f"{graph.name}: {len(graph.nodes)} nodes ({ops}); "
            f"{graph.num_params():,} params / {weight_mib:.2f} MiB weights")
