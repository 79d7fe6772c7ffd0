"""Golden IR snapshots: the printed form of key transformations.

These freeze the *structure* TeMCO produces on the canonical Figure-3
and Figure-7 scenarios.  If a pass changes behaviour, the diff here
shows exactly what moved — much faster to review than debugging a
memory number.
"""

import numpy as np

from repro.core import optimize
from repro.decompose import DecompositionConfig, decompose_graph
from repro.ir import GraphBuilder, format_graph, ops


def _ops_signature(graph) -> list[str]:
    """Op kinds + role tags in schedule order (names elided: they carry
    counters that legitimately vary)."""
    out = []
    for node in graph.nodes:
        role = node.attrs.get("role")
        tag = f"{node.op}[{role}]" if role else node.op
        out.append(tag)
    return out


class TestGoldenStructures:
    def test_figure3_decomposition_structure(self):
        b = GraphBuilder("fig3", seed=0)
        x = b.input("x", (1, 16, 8, 8))
        h = b.conv2d(x, 32, 3, padding=1, name="conv1")
        h = b.relu(h)
        h = b.conv2d(h, 32, 3, padding=1, name="conv2")
        g = b.finish(h)
        dg = decompose_graph(g, DecompositionConfig(ratio=0.25))
        assert _ops_signature(dg) == [
            "conv2d[fconv]", "conv2d[core]", "conv2d[lconv]",
            "relu",
            "conv2d[fconv]", "conv2d[core]", "conv2d[lconv]",
        ]

    def test_figure5_fused_structure(self):
        b = GraphBuilder("fig5", seed=0)
        x = b.input("x", (1, 16, 8, 8))
        h = b.conv2d(x, 32, 3, padding=1, name="conv1")
        h = b.relu(h)
        h = b.conv2d(h, 32, 3, padding=1, name="conv2")
        g = b.finish(h)
        dg = decompose_graph(g, DecompositionConfig(ratio=0.25))
        opt, _ = optimize(dg)
        # lconv1-relu-fconv2 collapse into one fused block; the final
        # lconv (feeding the output) stays materialized
        assert _ops_signature(opt) == [
            "conv2d[fconv]", "conv2d[core]",
            "fused_block",
            "conv2d[core]", "conv2d[lconv]",
        ]

    def test_figure7_skip_structure(self):
        # Figure 7's running example: b = relu(a) is a skip connection
        b = GraphBuilder("fig7", seed=0)
        x = b.input("x", (1, 16, 8, 8))
        a = b.relu(b.conv2d(x, 32, 3, padding=1, name="conv1"))
        h = a
        for i in range(3):
            h = b.relu(b.conv2d(h, 32, 3, padding=1, name=f"mid{i}"))
        e = b.concat(a, h, name="e")
        out = b.relu(b.conv2d(e, 32, 3, padding=1, name="f"))
        g = b.finish(out)
        dg = decompose_graph(g, DecompositionConfig(ratio=0.25))
        opt, report = optimize(dg)
        # the join now reads *reduced* tensors: a merged lconv's fused
        # kernel gathers them, so no concat is allocated at all
        assert "concat" not in _ops_signature(opt)
        join = next(n for n in opt.nodes if len(n.inputs) > 1)
        assert join.op == "fused_block"
        full_width = 32 + 32
        assert ops.fused_input_shape(join)[1] < full_width
        assert report.peak_after < report.peak_before

    def test_printed_form_is_stable_for_fig3(self):
        b = GraphBuilder("fig3", seed=1)
        x = b.input("x", (1, 16, 8, 8))
        g = b.finish(b.conv2d(x, 32, 3, padding=1, name="conv1"))
        dg = decompose_graph(g, DecompositionConfig(ratio=0.25))
        text = format_graph(dg)
        assert text.splitlines()[0] == "graph fig3.tucker:"
        assert "conv1.fconv.out = conv2d[role=fconv](x)  # 1x4x8x8" in text
        assert "conv1.lconv.out = conv2d[role=lconv](conv1.core.out)  # 1x32x8x8" in text
