"""Static arena planning: validity, tightness, TeMCO carry-through."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import estimate_peak_internal, optimize
from repro.decompose import DecompositionConfig, decompose_graph
from repro.ir import GraphBuilder
from repro.obs.audit import audit_graph
from repro.runtime import ArenaPlan, plan_arena

from _graph_fixtures import (make_chain_graph, make_residual_graph,
                             make_skip_graph)


class TestArenaValidity:
    @pytest.mark.parametrize("factory", [make_chain_graph, make_skip_graph,
                                         make_residual_graph])
    def test_plan_validates(self, factory):
        plan = plan_arena(factory())
        plan.validate()  # raises on overlap
        assert plan.arena_bytes > 0

    def test_every_value_placed(self):
        g = make_skip_graph()
        plan = plan_arena(g)
        placed = {s.value_name for s in plan.slots}
        expected = {v.name for v in g.values() if v.nbytes > 0}
        assert placed == expected

    def test_arena_at_least_lower_bound(self):
        for factory in (make_chain_graph, make_skip_graph, make_residual_graph):
            plan = plan_arena(factory())
            assert plan.arena_bytes >= plan.peak_lower_bound
            assert plan.fragmentation >= 0.0

    def test_arena_reasonably_tight(self):
        # greedy best-fit should stay within 2x of the lower bound on
        # these well-structured CNN graphs (usually it's exact)
        for factory in (make_chain_graph, make_skip_graph, make_residual_graph):
            plan = plan_arena(factory())
            assert plan.fragmentation < 1.0

    def test_alignment_respected(self):
        plan = plan_arena(make_chain_graph(), alignment=128)
        assert all(s.offset % 128 == 0 for s in plan.slots)

    def test_bad_alignment_rejected(self):
        with pytest.raises(ValueError, match="alignment"):
            plan_arena(make_chain_graph(), alignment=0)


class TestArenaReuse:
    def test_sequential_tensors_share_memory(self):
        # a long chain of same-sized tensors must reuse two-ish buffers,
        # not allocate one per layer
        b = GraphBuilder("longchain", seed=0)
        x = b.input("x", (1, 8, 16, 16))
        h = x
        for _ in range(10):
            h = b.relu(h)
        g = b.finish(h)
        plan = plan_arena(g)
        one = g.inputs[0].nbytes
        assert plan.arena_bytes <= 3 * one  # not 11x

    def test_temco_reduction_carries_to_arena(self):
        g = decompose_graph(make_skip_graph(), DecompositionConfig(ratio=0.1))
        opt, _ = optimize(g)
        plan_dec = plan_arena(g)
        plan_opt = plan_arena(opt)
        assert plan_opt.arena_bytes < plan_dec.arena_bytes

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 200), depth=st.integers(1, 8))
    def test_property_random_graphs_valid_and_bounded(self, seed, depth):
        rng = np.random.default_rng(seed)
        b = GraphBuilder("rand", seed=seed)
        h = b.input("x", (1, int(rng.integers(1, 5)), 8, 8))
        values = [h]
        for _ in range(depth):
            pick = values[int(rng.integers(0, len(values)))]
            kind = rng.integers(0, 3)
            if kind == 0:
                h = b.conv2d(pick, int(rng.integers(1, 6)), 1)
            elif kind == 1:
                h = b.relu(pick)
            else:
                h = b.concat(pick, pick)
            values.append(h)
        g = b.finish(values[-1])
        plan = plan_arena(g)
        plan.validate()
        # the arena can never beat the instantaneous-live lower bound,
        # which itself is at least the executor peak for aligned sizes
        assert plan.arena_bytes >= estimate_peak_internal(g) - 64 * len(plan.slots)


class TestArenaAudit:
    """The offsets hold under the lifetimes the executor *measures*
    (audit check 5): tensors live together never share arena bytes."""

    @pytest.mark.parametrize("factory", [make_chain_graph, make_skip_graph,
                                         make_residual_graph])
    def test_measured_lifetimes_never_overlap(self, factory):
        audit = audit_graph(factory())
        assert audit.passed, audit.errors
        assert audit.arena_bytes > 0

    def test_optimized_graph_fits_a_smaller_arena(self):
        g = decompose_graph(make_skip_graph(), DecompositionConfig(ratio=0.25))
        opt, _ = optimize(g)
        audit, audit_dec = audit_graph(opt), audit_graph(g)
        assert audit.passed and audit_dec.passed
        assert audit.arena_bytes < audit_dec.arena_bytes

    def test_slot_moved_onto_a_co_live_neighbour_is_the_finding(
            self, monkeypatch):
        g = make_skip_graph()
        plan = plan_arena(g)
        a, b = next((a, b) for a in plan.slots for b in plan.slots
                    if a is not b and a.lifetime_overlaps(b))
        moved = ArenaPlan(
            slots=[replace(s, offset=b.offset) if s is a else s
                   for s in plan.slots],
            arena_bytes=plan.arena_bytes,
            peak_lower_bound=plan.peak_lower_bound)
        monkeypatch.setattr("repro.obs.audit.plan_arena", lambda graph: moved)
        audit = audit_graph(g)
        assert [f.kind for f in audit.findings] == ["arena_overlap"]
        assert a.value_name in audit.findings[0].message
        assert not audit.passed
