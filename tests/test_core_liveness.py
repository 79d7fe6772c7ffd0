"""Liveness analysis and skip-connection discovery (Algorithm 1 front half)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (analyze_liveness, estimate_peak_internal,
                        find_skip_connections)
from repro.ir import GraphBuilder
from repro.runtime import execute

from _graph_fixtures import (make_chain_graph, make_residual_graph, make_skip_graph,
                      random_input)


class TestLiveness:
    def test_begin_end_for_chain(self):
        g = make_chain_graph()
        intervals = analyze_liveness(g)
        for node_index, node in enumerate(g.nodes):
            iv = intervals[node.output]
            assert iv.begin == node_index
        # graph input is defined before node 0
        assert intervals[g.inputs[0]].begin == -1

    def test_output_lives_to_end(self):
        g = make_chain_graph()
        intervals = analyze_liveness(g)
        assert intervals[g.outputs[0]].end == len(g.nodes) - 1

    def test_chain_distances_are_short(self):
        g = make_chain_graph()
        intervals = analyze_liveness(g)
        for node in g.nodes[:-1]:
            assert intervals[node.output].distance <= 2

    def test_skip_value_has_long_distance(self):
        g = make_skip_graph()
        intervals = analyze_liveness(g)
        enc1_relu = g.nodes[1]  # relu after enc1
        assert enc1_relu.op == "relu"
        assert intervals[enc1_relu.output].distance >= 4

    def test_unused_value_distance_zero(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 2, 2, 2))
        live = b.relu(x)
        b.sigmoid(x, name="orphan")
        g = b.finish(live)
        intervals = analyze_liveness(g)
        orphan = g.find_node("orphan")
        assert intervals[orphan.output].distance == 0


class TestPeakEstimate:
    def test_matches_executor_on_all_fixtures(self):
        for factory in (make_chain_graph, make_skip_graph, make_residual_graph):
            g = factory()
            measured = execute(g, random_input(g)).memory.peak_internal_bytes
            assert estimate_peak_internal(g) == measured

    def test_empty_graph(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (4, 4))
        g = b.graph
        g.outputs = [x]
        assert estimate_peak_internal(g) == x.nbytes

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), depth=st.integers(1, 6))
    def test_property_estimate_equals_measurement(self, seed, depth):
        """Random sequential CNNs: static estimator == executor."""
        rng = np.random.default_rng(seed)
        b = GraphBuilder("rand", seed=seed)
        x = b.input("x", (1, int(rng.integers(1, 6)), 8, 8))
        h = x
        for i in range(depth):
            choice = rng.integers(0, 3)
            if choice == 0:
                h = b.conv2d(h, int(rng.integers(1, 8)), 1)
            elif choice == 1:
                h = b.relu(h)
            else:
                h = b.add(h, h) if rng.integers(0, 2) else b.sigmoid(h)
        g = b.finish(h)
        measured = execute(g, random_input(g, seed)).memory.peak_internal_bytes
        assert estimate_peak_internal(g) == measured


class TestSkipDiscovery:
    def test_finds_concat_skip(self):
        g = make_skip_graph()
        skips = find_skip_connections(g, distance_threshold=4)
        assert len(skips) == 1
        skip = skips[0]
        assert skip.producer.op == "relu"
        assert len(skip.far_uses) == 1
        assert skip.far_uses[0].op == "concat"
        assert len(skip.near_uses) == 1  # the maxpool right after

    def test_finds_residual_skips(self):
        g = make_residual_graph(blocks=2)
        skips = find_skip_connections(g, distance_threshold=3)
        assert len(skips) >= 2
        assert all(any(u.op == "add" for u in s.far_uses) for s in skips)

    def test_threshold_filters(self):
        g = make_skip_graph()
        assert find_skip_connections(g, distance_threshold=100) == []

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError, match="distance_threshold"):
            find_skip_connections(make_chain_graph(), 0)

    def test_graph_outputs_excluded(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 2, 4, 4))
        h = b.relu(x)
        for _ in range(8):
            h2 = b.sigmoid(h)  # h has a long gap to its last use below
            h2 = b.tanh(h2)
        out = b.add(h, h2)
        g = b.finish(out)
        skips = find_skip_connections(g, distance_threshold=4)
        assert all(s.value is not g.outputs[0] for s in skips)
