"""Executor semantics: correctness, memory accounting, leak freedom."""

import numpy as np
import pytest

from repro.core import estimate_peak_internal
from repro.ir import GraphBuilder
from repro.runtime import InferenceSession, execute

from _graph_fixtures import (make_chain_graph, make_residual_graph, make_skip_graph,
                      random_input)


class TestExecution:
    def test_missing_input_raises(self):
        g = make_chain_graph()
        with pytest.raises(KeyError, match="missing input"):
            execute(g, {})

    def test_wrong_shape_raises(self, rng):
        g = make_chain_graph()
        with pytest.raises(ValueError, match="shape"):
            execute(g, {"x": rng.normal(size=(1, 1, 1, 1)).astype(np.float32)})

    def test_output_matches_manual_composition(self, rng):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (2, 3, 4, 4))
        h = b.relu(b.conv2d(x, 5, 1, name="c"))
        g = b.finish(h)
        inp = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = execute(g, {"x": inp}).output()
        w = g.find_node("c").params["weight"][:, :, 0, 0]
        want = np.maximum(np.einsum("oc,nchw->nohw", w, inp), 0)
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_multi_output_graph(self, rng):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 2, 4, 4))
        a = b.relu(x)
        c = b.sigmoid(x)
        g = b.finish(a, c)
        res = execute(g, random_input(g))
        assert len(res.outputs) == 2

    def test_unused_input_allowed(self, rng):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 2, 2, 2))
        unused = b.input("aux", (1, 1, 1, 1))
        g = b.finish(b.relu(x))
        res = execute(g, random_input(g))
        assert res.output().shape == (1, 2, 2, 2)


class TestMemoryAccounting:
    def test_events_one_per_node(self):
        g = make_skip_graph()
        res = execute(g, random_input(g))
        assert len(res.memory.events) == len(g.nodes)

    def test_measured_peak_equals_static_estimate(self):
        for factory in (make_chain_graph, make_skip_graph, make_residual_graph):
            g = factory()
            res = execute(g, random_input(g))
            assert res.memory.peak_internal_bytes == estimate_peak_internal(g), \
                f"mismatch for {g.name}"

    def test_peak_event_consistent(self):
        g = make_skip_graph()
        profile = execute(g, random_input(g)).memory
        assert max(profile.events) == profile.peak_internal_bytes

    def test_weight_bytes_reported(self):
        g = make_chain_graph()
        profile = execute(g, random_input(g)).memory
        assert profile.weight_bytes == g.weight_bytes()

    def test_peak_live_set_sums_to_peak(self):
        g = make_skip_graph()
        profile = execute(g, random_input(g)).memory
        assert sum(profile.peak_live_set.values()) == profile.peak_internal_bytes

    def test_input_counted_while_used(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 8, 8, 8))       # 2048 B
        h = b.relu(x)                         # input + output live: 4096 B
        g = b.finish(h)
        profile = execute(g, random_input(g)).memory
        assert profile.peak_internal_bytes == 2 * 8 * 8 * 8 * 4

    def test_skip_connection_extends_liveness(self):
        # the concat join must see both operands resident
        g = make_skip_graph()
        profile = execute(g, random_input(g)).memory
        join_node = g.find_node("join")
        live = profile.events[g.index_of(join_node)]
        operand_bytes = sum(v.nbytes for v in join_node.inputs)
        assert live >= operand_bytes + join_node.output.nbytes

    def test_timeline_monotone_indices(self):
        g = make_chain_graph()
        ledger = execute(g, random_input(g), record_ledger=True).memory.ledger
        indices = [e.node_index for e in ledger]
        assert indices == sorted(indices)
        assert indices[0] == -1 and indices[-1] == len(g.nodes) - 1


class TestInferenceSession:
    def test_bare_array_binding(self, rng):
        g = make_chain_graph()
        session = InferenceSession(g)
        out = session.run(rng.normal(size=g.inputs[0].shape).astype(np.float32))
        assert out.output().shape == g.outputs[0].shape

    def test_bare_array_rejected_for_multi_input(self, rng):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 1, 2, 2))
        y = b.input("y", (1, 1, 2, 2))
        g = b.finish(b.add(x, y))
        session = InferenceSession(g)
        with pytest.raises(ValueError, match="pass a dict"):
            session.run(np.zeros((1, 1, 2, 2), np.float32))

    def test_time_inference(self):
        g = make_chain_graph()
        session = InferenceSession(g)
        timing = session.time_inference(random_input(g), warmup=1, repeats=3)
        assert len(timing.seconds_per_run) == 3
        assert timing.best <= timing.median <= max(timing.seconds_per_run)

    def test_invalid_graph_rejected_at_construction(self):
        g = make_chain_graph()
        g.nodes[0].output.shape = (1, 2, 3)
        with pytest.raises(ValueError):
            InferenceSession(g)
