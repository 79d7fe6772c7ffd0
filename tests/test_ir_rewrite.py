"""The splice driver (``repro.ir.rewrite``): insertion, rewiring, the
dead-producer cascade, where the scan goes on, one decision a splice."""

import numpy as np

from repro.core import (commute_upsample_lconv, folding,
                        fuse_activation_layers, merge_lconv_add,
                        merge_lconv_concat, merge_sum_fconv,
                        push_act_through_concat, split_concat_fconv)
from repro.decompose import DecompositionConfig, decompose_graph
from repro.ir import GraphBuilder
from repro.ir.emit import make_node
from repro.ir.rewrite import Splice, rewrite
from repro.obs import Tracer, use_tracer

from _fuzz import random_cnn
from _rewrite_oracle import rewrite_checked


def _names(graph):
    return [n.name for n in graph.nodes]


def _replace_with(op, inputs_of):
    """A rule swapping the anchor for ``op`` over ``inputs_of(graph)``."""
    def rule(graph, node, _consumers):
        new = make_node(graph, op, inputs_of(graph), attrs=dict(node.attrs),
                        name=f"{node.name}.new")
        return Splice([new], node.output, new.output,
                      "test", node.name, "apply", "anchor")
    return rule


def _once(op):
    """Anchor every ``op`` node that the rule has not made itself."""
    return lambda node: node.op == op and not node.name.endswith(".new")


class TestCascade:
    def test_stops_at_a_graph_output(self):
        b = GraphBuilder("t")
        x = b.input("x", (1, 4, 4, 4))
        a = b.relu(x, name="a")
        kept = b.tanh(a, name="kept")  # an output: survives, so does a
        c = b.sigmoid(kept, name="c")
        g = b.finish(b.identity(c, name="anchor"), kept)
        assert rewrite_checked(g, _once("identity"),
                               _replace_with("identity", lambda g: g.inputs)) == 1
        assert _names(g) == ["a", "kept", "anchor.new"]
        assert g.outputs[1] is kept

    def test_stops_at_a_value_with_another_consumer(self):
        b = GraphBuilder("t")
        x = b.input("x", (1, 4, 4, 4))
        a = b.relu(x, name="a")
        dead = b.tanh(a, name="dead")
        other = b.sigmoid(a, name="other")  # keeps a alive
        g = b.finish(b.identity(dead, name="anchor"), other)
        rewrite_checked(g, _once("identity"),
                        _replace_with("identity", lambda g: g.inputs))
        assert _names(g) == ["a", "other", "anchor.new"]

    def test_a_node_reading_one_value_twice(self):
        b = GraphBuilder("t")
        x = b.input("x", (1, 4, 4, 4))
        a = b.relu(x, name="a")
        twice = b.concat(a, a, name="twice")  # a's only (double) use
        g = b.finish(b.identity(twice, name="out"))
        # the new concat reads x twice; dropping the old one frees a
        assert rewrite_checked(g, _once("concat"), _replace_with(
            "concat", lambda g: [g.inputs[0]] * 2)) == 1
        assert _names(g) == ["twice.new", "out"]
        assert g.consumer_map()[g.inputs[0]] == [g.nodes[0]] * 2

    def test_a_dead_end_stray_is_left_as_it_was(self):
        """Each splicing pass on a decomposed graph with unused inputs
        and dead-end branches leaves no dead node of its own: whatever a
        sweep would still remove was dead before the pass."""
        passes = (commute_upsample_lconv, merge_lconv_concat, merge_lconv_add,
                  merge_sum_fconv, push_act_through_concat,
                  split_concat_fconv, fuse_activation_layers)
        spliced = strayed = 0
        for seed in range(8):
            graph = decompose_graph(random_cnn(seed, strays=True),
                                    DecompositionConfig(ratio=0.3))
            strayed += bool(_dead(graph))
            for run in passes:
                strays = _dead(graph)
                before = len(graph.nodes)
                run(graph)
                spliced += len(graph.nodes) != before
                assert _dead(graph) <= strays, run.__name__
        assert spliced > 0 and strayed > 0


def _dead(graph):
    swept = graph.clone()
    swept.dead_code_eliminate()
    return set(_names(graph)) - set(_names(swept))


class TestScan:
    def test_resumes_at_the_first_inserted_node(self):
        b = GraphBuilder("t")
        x = b.input("x", (1, 4, 4, 4))
        g = b.finish(b.tanh(b.identity(b.relu(x, name="r"), name="i"),
                            name="t"))
        visited = []

        def anchor(node):
            visited.append(node.name)
            return _once("identity")(node)

        rewrite(g, anchor, _replace_with("identity", lambda g: [g.nodes[0].output]))
        assert visited == ["r", "i", "i.new", "t",   # splice, go on from i.new
                           "r", "i.new", "t"]        # a scan that finds none

    def test_a_splice_inserting_nothing_resumes_where_the_anchor_was(self):
        b = GraphBuilder("t")
        x = b.input("x", (1, 4, 6, 6))
        h = b.conv2d(x, 8, 3, padding=1, bias=False, name="c1")
        h = b.batchnorm2d(h, gamma=np.full(8, 2.0), name="bn1")
        h = b.conv2d(h, 8, 3, padding=1, name="c2")
        g = b.finish(b.batchnorm2d(h, beta=np.full(8, 0.5), name="bn2"))
        visited = []

        def anchor(node):
            visited.append(node.name)
            return node.op == "batchnorm2d"

        tracer = Tracer()
        with use_tracer(tracer):
            assert rewrite(g, anchor, folding._fold) == 2
        assert visited == ["c1", "bn1", "c2", "bn2", "c1", "c2"]
        assert _names(g) == ["c1", "c2"] and g.outputs[0] is g.nodes[1].output
        assert [(d["args"]["pass_name"], d["args"]["subject"],
                 d["args"]["conv"]) for d in tracer.decisions_for()] == [
            ("fold", "bn1", "c1"), ("fold", "bn2", "c2")]

    def test_one_decision_per_splice_and_one_validation(self, monkeypatch):
        b = GraphBuilder("t")
        x = b.input("x", (1, 4, 4, 4))
        g = b.finish(b.identity(b.identity(x, name="i1"), name="i2"))
        validations = []
        monkeypatch.setattr(type(g), "validate",
                            lambda self: validations.append(self.name))
        tracer = Tracer()
        with use_tracer(tracer):
            count = rewrite(g, _once("identity"), _replace_with(
                "relu", lambda g: [g.inputs[0]]))
        assert count == 2 == len(tracer.decisions_for("test", "apply", "anchor"))
        assert validations == ["t"]

    def test_a_rule_that_never_matches_changes_nothing(self):
        g = random_cnn(3)
        before = _names(g)
        assert rewrite(g, lambda node: True, lambda *_: None) == 0
        assert _names(g) == before
