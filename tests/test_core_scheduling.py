"""Memory-aware execution scheduling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (assert_equivalent, estimate_peak_internal, greedy_order,
                        reschedule, simulate)
from repro.ir import GraphBuilder
from repro.obs.audit import audit_graph
from repro.runtime import execute

from _graph_fixtures import (make_chain_graph, make_residual_graph,
                             make_skip_graph, random_input)


def diamond_graph(heavy_first: bool = True, seed: int = 0):
    """Two independent branches of very different sizes joined at the end.

    The schedule matters: computing the heavy branch first keeps its big
    result resident while the light branch runs.
    """
    b = GraphBuilder("diamond", seed=seed)
    x = b.input("x", (1, 8, 16, 16))
    if heavy_first:
        heavy = b.relu(b.conv2d(x, 64, 3, padding=1, name="heavy"))
        light = b.relu(b.conv2d(heavy, 8, 1, name="light"))
        light2 = b.relu(b.conv2d(x, 8, 1, name="light2"))
        mix = b.conv2d(b.concat(light, light2), 8, 1, name="mix")
    else:
        light2 = b.relu(b.conv2d(x, 8, 1, name="light2"))
        heavy = b.relu(b.conv2d(x, 64, 3, padding=1, name="heavy"))
        light = b.relu(b.conv2d(heavy, 8, 1, name="light"))
        mix = b.conv2d(b.concat(light, light2), 8, 1, name="mix")
    return b.finish(mix)


def interleaved_graph(unused_input: bool = False):
    """Two wide-then-narrow branches emitted wide, wide, narrow, narrow:
    both wide tensors coexist unless the schedule finishes one branch
    before starting the other — the order ``reschedule`` finds."""
    b = GraphBuilder("interleaved", seed=0)
    x = b.input("x", (1, 2, 16, 16))
    if unused_input:
        b.input("big", (1, 64, 16, 16))
    wide1 = b.conv2d(x, 64, 3, padding=1, name="wide1")
    wide2 = b.conv2d(x, 64, 3, padding=1, name="wide2")
    narrow1 = b.conv2d(wide1, 2, 1, name="narrow1")
    narrow2 = b.conv2d(wide2, 2, 1, name="narrow2")
    return b.finish(b.concat(narrow1, narrow2))


class TestCandidateOrder:
    def test_detects_order_sensitivity(self):
        g = interleaved_graph()
        original = list(g.nodes)
        # finish one branch before starting the other
        reordered = [original[0], original[2], original[1], original[3],
                     original[4]]
        p1 = simulate(g, order=original).peak_bytes
        p2 = simulate(g, order=reordered).peak_bytes
        assert p2 < p1
        # a candidate order predicts what running in that order measures
        assert execute(g, random_input(g)).memory.peak_internal_bytes == p1
        g.nodes = reordered
        assert execute(g, random_input(g)).memory.peak_internal_bytes == p2


class TestGreedyOrder:
    def test_is_topological(self):
        g = make_skip_graph()
        order = greedy_order(g)
        seen = {v.name for v in g.inputs}
        for node in order:
            for v in node.inputs:
                assert v.name in seen, f"{node.name} scheduled before {v.name}"
            seen.add(node.output.name)

    def test_permutation_of_nodes(self):
        g = make_residual_graph()
        order = greedy_order(g)
        assert sorted(n.name for n in order) == sorted(n.name for n in g.nodes)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_property_never_worse_after_reschedule(self, seed):
        g = make_skip_graph(seed=seed)
        before = estimate_peak_internal(g)
        stats = reschedule(g)
        assert stats.peak_after <= before
        assert estimate_peak_internal(g) == stats.peak_after


class TestReschedule:
    def test_improves_bad_order(self):
        g = diamond_graph(heavy_first=False)
        # craft a worse order manually: light2 early extends its lifetime
        # while the heavy chain runs
        baseline = estimate_peak_internal(g)
        stats = reschedule(g)
        assert stats.peak_after <= baseline
        g.validate()

    @pytest.mark.parametrize("unused_input", [False, True])
    def test_applies_when_the_greedy_order_is_better(self, unused_input):
        g = interleaved_graph(unused_input)
        stats = reschedule(g)
        assert stats.changed and stats.peak_after < stats.peak_before
        assert [n.name for n in g.nodes[:4]] == ["wide1", "narrow1",
                                                 "wide2", "narrow2"]
        measured = execute(g, random_input(g)).memory.peak_internal_bytes
        assert measured == stats.peak_after

    def test_noop_when_already_optimal(self):
        g = make_chain_graph()  # pure chain: only one topological order
        stats = reschedule(g)
        assert not stats.changed
        assert stats.reduction == 0.0

    def test_semantics_preserved(self):
        g = diamond_graph(heavy_first=False)
        before = g.clone("before")
        reschedule(g)
        assert_equivalent(before, g, random_input(g), rtol=1e-5)

    def test_measured_peak_matches_after(self):
        g = diamond_graph(heavy_first=False)
        stats = reschedule(g)
        measured = execute(g, random_input(g)).memory.peak_internal_bytes
        assert measured == stats.peak_after


def test_unused_input_all_accounts_agree():
    """A graph input nothing reads is charged while the inputs are bound
    and freed at once: the peak can sit *before* node 0, and every
    account of memory has to say so."""
    b = GraphBuilder("unused", seed=0)
    x = b.input("x", (1, 2, 4, 4))
    big = b.input("big", (1, 64, 16, 16))
    out = b.relu(x)
    b.sigmoid(x, name="dead_end")
    g = b.finish(out)

    schedule = simulate(g)
    measured = execute(g, random_input(g)).memory.peak_internal_bytes
    assert schedule.peak_bytes == measured == x.nbytes + big.nbytes
    assert schedule.peak_index == -1
    assert schedule.frees_after[-1] == (big,)
    assert estimate_peak_internal(g) == measured
    audit = audit_graph(g)
    assert audit.passed, audit.findings

    # "before" and "after" share a ruler, so the unused input cannot
    # stop a profitable reorder
    assert reschedule(interleaved_graph(unused_input=True)).changed
