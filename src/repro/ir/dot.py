"""Graphviz DOT export for model graphs.

``to_dot`` renders the graph structure with per-node memory annotations
(output tensor bytes) and role-based coloring, so the effect of TeMCO's
rewrites is visible at a glance: fconv/lconv/core roles, fused kernels,
merged/split provenance.  Writes plain DOT text; rendering is left to
the user's ``dot`` binary (not a dependency).
"""

from __future__ import annotations

from pathlib import Path

from .graph import Graph
from .ops import input_scales

__all__ = ["to_dot", "save_dot"]

_ROLE_COLORS = {
    "fconv": "#cfe8ff",   # light blue: channel reducers
    "lconv": "#ffd9cf",   # light red: channel restorers
    "core": "#e8e8e8",
}

_OP_COLORS = {
    "fused_block": "#d3f2cf",    # green: TeMCO fused kernels
    "fused_restore": "#e9f8cf",
    "concat": "#fff4c2",
    "add": "#fff4c2",
}


def _label(node) -> str:
    shape = "x".join(str(d) for d in node.output.shape)
    kib = node.output.nbytes / 1024
    extras = []
    if node.attrs.get("role"):
        extras.append(node.attrs["role"])
    if "merged_from" in node.attrs:
        extras.append(f"merged x{len(node.attrs['merged_from'])}")
    if "split_from" in node.attrs:
        extras.append("split")
    suffix = f" [{', '.join(extras)}]" if extras else ""
    return f"{node.name}\\n{node.op}{suffix}\\n{shape} ({kib:.1f} KiB)"


def _color(node) -> str:
    if node.op in _OP_COLORS:
        return _OP_COLORS[node.op]
    role = node.attrs.get("role")
    if role in _ROLE_COLORS:
        return _ROLE_COLORS[role]
    return "#ffffff"


def to_dot(graph: Graph, *, rankdir: str = "TB") -> str:
    """Render ``graph`` as DOT text."""
    lines = [f'digraph "{graph.name}" {{',
             f"  rankdir={rankdir};",
             '  node [shape=box, style="rounded,filled", fontsize=10];']
    for v in graph.inputs:
        shape = "x".join(str(d) for d in v.shape)
        lines.append(f'  "{v.name}" [label="{v.name}\\ninput\\n{shape}", '
                     f'fillcolor="#f0d9ff"];')
    producer = {v.name: v.name for v in graph.inputs}
    for node in graph.nodes:
        lines.append(f'  "{node.name}" [label="{_label(node)}", '
                     f'fillcolor="{_color(node)}"];')
        producer[node.output.name] = node.name
        for v, scale in zip(node.inputs, input_scales(node)):
            src = producer.get(v.name, v.name)
            # an input a fused kernel reads nearest-upsampled
            label = f' [label="↑{scale}"]' if scale != 1 else ""
            lines.append(f'  "{src}" -> "{node.name}"{label};')
    for i, v in enumerate(graph.outputs):
        sink = f"output{i}"
        lines.append(f'  "{sink}" [label="output\\n{v.name}", '
                     f'fillcolor="#f0d9ff"];')
        lines.append(f'  "{producer.get(v.name, v.name)}" -> "{sink}";')
    lines.append("}")
    return "\n".join(lines)


def save_dot(graph: Graph, path: str | Path, **kwargs) -> None:
    Path(path).write_text(to_dot(graph, **kwargs) + "\n")
