"""Graph serialization round-trips."""

import numpy as np
import pytest

from repro.core import fuse_activation_layers, merge_lconv_concat, optimize
from repro.decompose import DecompositionConfig, decompose_graph
from repro.ir import (GraphBuilder, graph_fingerprint, graph_from_dict,
                      graph_to_dict, load_graph, ops, save_graph)
from repro.runtime import execute

from _graph_fixtures import make_chain_graph, make_skip_graph, random_input


class TestDictRoundTrip:
    def test_structure_preserved(self):
        g = make_skip_graph()
        structure, weights = graph_to_dict(g)
        rebuilt = graph_from_dict(structure, weights)
        assert [n.name for n in rebuilt.nodes] == [n.name for n in g.nodes]
        assert [n.op for n in rebuilt.nodes] == [n.op for n in g.nodes]
        assert [v.name for v in rebuilt.outputs] == [v.name for v in g.outputs]

    def test_outputs_preserved_numerically(self):
        g = make_skip_graph()
        structure, weights = graph_to_dict(g)
        rebuilt = graph_from_dict(structure, weights)
        inp = random_input(g)
        np.testing.assert_array_equal(execute(g, inp).output(),
                                      execute(rebuilt, inp).output())

    def test_structure_is_json_safe(self):
        import json
        g = make_chain_graph()
        structure, _ = graph_to_dict(g)
        json.dumps(structure)  # must not raise

    def test_optimized_graph_round_trips(self):
        g = decompose_graph(make_skip_graph(), DecompositionConfig(ratio=0.25))
        opt, _ = optimize(g)
        structure, weights = graph_to_dict(opt)
        rebuilt = graph_from_dict(structure, weights)
        inp = random_input(opt)
        np.testing.assert_array_equal(execute(opt, inp).output(),
                                      execute(rebuilt, inp).output())


class TestFileRoundTrip:
    def test_save_load(self, tmp_path):
        g = make_chain_graph()
        path = tmp_path / "model.npz"
        save_graph(g, path)
        rebuilt = load_graph(path)
        inp = random_input(g)
        np.testing.assert_array_equal(execute(g, inp).output(),
                                      execute(rebuilt, inp).output())

    @pytest.mark.parametrize("fused", [False, True],
                             ids=["merged_lconv", "fused_block"])
    def test_merged_site_keeps_its_runs(self, tmp_path, fused):
        """A merged lconv's pass-through runs, unfused or carried by its
        fused node, survive the file and run to the same bits."""
        b = GraphBuilder("merged", seed=4)
        x = b.input("x", (2, 6, 8, 8))
        la = b.conv2d(x, 16, 1, bias_value=np.full(16, 0.5, np.float32))
        cat = b.concat(la, b.maxpool2d(x, 1), b.conv2d(x, 12, 1))
        g = b.finish(b.conv2d(b.relu(cat), 4, 1))
        merge_lconv_concat(g)
        if fused:
            fuse_activation_layers(g)
        site = next(n for n in g.nodes if ops.passthrough_runs(n))
        assert site.op == ("fused_block" if fused else "conv2d")
        path = tmp_path / "merged.npz"
        save_graph(g, path)
        rebuilt = load_graph(path)
        again = next(n for n in rebuilt.nodes if n.name == site.name)
        assert ops.passthrough_runs(again) == ops.passthrough_runs(site) \
            == ((16, 6, 6),)
        assert graph_fingerprint(rebuilt) == graph_fingerprint(g)
        inp = random_input(g)
        np.testing.assert_array_equal(execute(g, inp).output(),
                                      execute(rebuilt, inp).output())
