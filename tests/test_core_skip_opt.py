"""Skip-connection optimization (Algorithms 1 & 2)."""

import numpy as np
import pytest

from repro.core import (SkipOptConfig, assert_equivalent,
                        estimate_peak_internal, find_reduced,
                        find_skip_connections, optimize_skip_connections)
from repro.decompose import DecompositionConfig, decompose_graph
from repro.ir import GraphBuilder, ops
from repro.runtime import execute

from _graph_fixtures import make_residual_graph, make_skip_graph, random_input


def _decomposed_skip_graph(ratio=0.25, **kwargs):
    return decompose_graph(make_skip_graph(**kwargs),
                           DecompositionConfig(ratio=ratio))


class TestFindReduced:
    def test_leaf_is_lconv(self):
        g = _decomposed_skip_graph()
        lconv = next(n for n in g.nodes if n.attrs.get("role") == "lconv")
        plan = find_reduced(g, lconv)
        assert plan is not None
        assert plan.nodes == (lconv,)
        assert plan.reduced == (lconv.inputs[0],)
        assert plan.size == lconv.output.nbytes

    def test_chain_through_activation(self):
        g = _decomposed_skip_graph()
        skips = find_skip_connections(g, 4)
        assert skips, "expected a skip connection"
        plan = find_reduced(g, skips[0].producer)
        assert plan is not None
        assert [n.op for n in plan.nodes] == ["conv2d", "relu"]
        assert ops.is_lconv(plan.nodes[0])

    def test_fails_at_graph_input(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 4, 4, 4))
        h = b.relu(x)
        g = b.finish(h)
        assert find_reduced(g, g.nodes[0]) is None

    def test_fails_at_non_lconv_conv(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 4, 8, 8))
        h = b.relu(b.conv2d(x, 8, 3, padding=1))  # spatial conv, not lconv
        g = b.finish(h)
        assert find_reduced(g, g.nodes[-1]) is None

    def test_budget_bails_on_deep_chains(self):
        g = decompose_graph(make_residual_graph(blocks=4),
                            DecompositionConfig(ratio=0.25))
        skips = find_skip_connections(g, 4)
        deep = max(skips, key=lambda s: s.interval.begin)
        assert find_reduced(g, deep.producer, max_nodes=2) is None

    def test_multi_branch_add_chain(self):
        g = decompose_graph(make_residual_graph(blocks=1),
                            DecompositionConfig(ratio=0.25))
        # block output = relu(add(lconv_out, stem_relu_out));
        # the stem branch ends at the stem's lconv -> traversable
        final_relu = g.nodes[-1]
        plan = find_reduced(g, final_relu)
        assert plan is not None
        assert sum(1 for n in plan.nodes if ops.is_lconv(n)) >= 2
        assert plan.peak > plan.size

    def test_peak_accounts_for_residents(self):
        g = _decomposed_skip_graph()
        skips = find_skip_connections(g, 4)
        plan = find_reduced(g, skips[0].producer)
        # running the chain needs the restored tensor plus its reduced input
        assert plan.peak >= plan.size + plan.reduced[0].nbytes


class TestOptimizePass:
    def test_unet_style_skip_replaced(self):
        g = _decomposed_skip_graph()
        stats = optimize_skip_connections(
            g, SkipOptConfig(distance_threshold=4))
        assert stats.candidates == 1
        assert stats.optimized == 1
        assert stats.copies_inserted == 1
        join = g.find_node("join")
        # the concat operand is now a freshly copied restore output
        assert join.inputs[0].producer != "relu_1"
        g.validate()

    def test_semantics_preserved(self):
        g = _decomposed_skip_graph()
        before = g.clone("before")
        optimize_skip_connections(g, SkipOptConfig(distance_threshold=4))
        assert_equivalent(before, g, random_input(g), rtol=1e-3)

    def test_reduced_tensor_kept_alive_instead(self):
        g = _decomposed_skip_graph()
        optimize_skip_connections(g, SkipOptConfig(distance_threshold=4))
        res = execute(g, random_input(g))
        # at the join, a reduced (core-output) tensor must be in the live set
        join_index = g.index_of(g.find_node("join"))
        assert res.memory.events[join_index] > 0

    def test_compute_guard_rejects_wide_fanout(self):
        # many far uses multiply the copy cost; a tight slack must reject
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 16, 8, 8))
        h = b.relu(b.conv2d(x, 32, 3, padding=1, name="c0"))
        skip = h
        for i in range(12):
            h = b.relu(b.conv2d(h, 32, 3, padding=1, name=f"c{i + 1}"))
        tails = [b.sigmoid(skip, name=f"use{i}") for i in range(6)]
        g = b.finish(b.add(h, *tails[:1]))
        for t in tails[1:]:
            pass
        dg = decompose_graph(g, DecompositionConfig(ratio=0.25))
        stats = optimize_skip_connections(
            dg, SkipOptConfig(distance_threshold=4, compute_slack=1e-9))
        assert stats.optimized == 0
        assert stats.rejected_compute >= 1

    def test_memory_guard_rejects(self):
        g = _decomposed_skip_graph()
        stats = optimize_skip_connections(
            g, SkipOptConfig(distance_threshold=4, memory_slack=1e-9))
        assert stats.optimized == 0
        assert stats.rejected_memory == 1

    def test_global_check_rolls_back_useless_rewrites(self):
        # without downstream fusion, rewriting this graph does not reduce
        # the static peak, so global_check must roll everything back
        g = _decomposed_skip_graph()
        baseline = estimate_peak_internal(g)
        names_before = [n.name for n in g.nodes]
        stats = optimize_skip_connections(
            g, SkipOptConfig(distance_threshold=4, global_check=True))
        assert estimate_peak_internal(g) <= baseline
        if stats.rejected_global:
            assert [n.name for n in g.nodes] == names_before

    def test_no_candidates_is_noop(self):
        g = _decomposed_skip_graph()
        stats = optimize_skip_connections(
            g, SkipOptConfig(distance_threshold=1000))
        assert stats.candidates == 0
        assert stats.optimized == 0

    def test_multiple_far_uses_get_independent_copies(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 16, 8, 8))
        h = b.relu(b.conv2d(x, 32, 3, padding=1, name="c0"))
        skip = h
        for i in range(5):
            h = b.relu(b.conv2d(h, 32, 3, padding=1, name=f"c{i + 1}"))
        u1 = b.add(h, skip, name="useA")
        h2 = b.relu(b.conv2d(u1, 32, 3, padding=1, name="tail"))
        u2 = b.add(h2, skip, name="useB")
        g = b.finish(u2)
        dg = decompose_graph(g, DecompositionConfig(ratio=0.25))
        before = dg.clone("before")
        stats = optimize_skip_connections(
            dg, SkipOptConfig(distance_threshold=4, compute_slack=10.0,
                              memory_slack=10.0))
        assert stats.optimized >= 1
        assert stats.copies_inserted >= 2
        assert_equivalent(before, dg, random_input(dg), rtol=1e-3)
