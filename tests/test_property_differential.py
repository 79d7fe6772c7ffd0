"""Differential property tests over randomly generated CNNs.

For arbitrary structurally-diverse graphs, the whole stack must agree
with itself:

- every decomposition method lowers to a sequence matching its
  reconstructed kernel (semantics within float tolerance),
- the full TeMCO pipeline preserves outputs and never raises the peak,
- the one memory simulator predicts the allocator's whole event list
  and live-byte timeline, unplanned (both accounting policies) and
  under a budget,
- serialization round-trips optimized graphs bit-exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (compare_graphs, estimate_peak_floor, optimize,
                        simulate)
from repro.decompose import DecompositionConfig, decompose_graph
from repro.ir import graph_from_dict, graph_to_dict
from repro.plan import InfeasibleBudget, plan_memory
from repro.runtime import execute

from _fuzz import random_cnn
from _graph_fixtures import random_input


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pipeline_preserves_semantics_on_random_cnns(seed):
    g = random_cnn(seed)
    dg = decompose_graph(g, DecompositionConfig(ratio=0.3))
    opt, report = optimize(dg)
    opt.validate()
    inp = random_input(dg, seed)
    eq = compare_graphs(dg, opt, inp)
    assert eq.within(rtol=3e-3, atol=1e-5), \
        f"seed {seed}: max err {eq.max_abs_error} / scale {eq.output_scale}"
    assert report.peak_after <= report.peak_before


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000),
       method=st.sampled_from(["tucker", "cp", "tt"]))
def test_every_method_optimizable(seed, method):
    g = random_cnn(seed, max_blocks=3)
    dg = decompose_graph(g, DecompositionConfig(method=method, ratio=0.4,
                                                cp_iters=8, seed=seed))
    opt, report = optimize(dg)
    eq = compare_graphs(dg, opt, random_input(dg, seed))
    assert eq.within(rtol=3e-3, atol=1e-5)
    assert report.peak_after <= report.peak_before


def _decomposed_and_optimized(seed):
    """Both ends of the pipeline: ``optimize`` eliminates dead-end
    branches, so only the decomposed graph still carries them."""
    g = random_cnn(seed, strays=True, long_skip=True)
    dg = decompose_graph(g, DecompositionConfig(ratio=0.3))
    return dg, optimize(dg)[0]


@pytest.mark.parametrize("inplace", [False, True])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_simulated_timeline_is_the_measured_one(inplace, seed):
    """One prediction vs one measurement: every per-node sample, the
    peak and the index it is reached at — on graphs with unused inputs
    and dead-end branches, under both accounting policies."""
    for graph in _decomposed_and_optimized(seed):
        schedule = simulate(graph, inplace_activations=inplace)
        memory = execute(graph, random_input(graph, seed), record_ledger=True,
                         inplace_activations=inplace).memory
        assert schedule.live == tuple(memory.events)
        assert schedule.peak_bytes == memory.peak_internal_bytes
        # unused inputs are freed as they are bound, so even with
        # strays the floor never exceeds the (default-policy) peak
        assert estimate_peak_floor(graph) <= simulate(graph).peak_bytes
        assert schedule.peak_index == next(
            e.node_index for e in memory.ledger
            if e.live_bytes == memory.peak_internal_bytes)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_planned_timeline_is_the_enforced_one(seed):
    """Under the tightest of a few budgets the planner can meet, the
    plan's simulated timeline is what the enforced run measures."""
    for graph in _decomposed_and_optimized(seed):
        plan = _tightest_plan(graph, (0.8, 0.9, 0.97, 1.0))
        memory = execute(graph, random_input(graph, seed), plan=plan).memory
        assert plan.planned_live == tuple(memory.events)
        assert plan.planned_peak_bytes == memory.peak_internal_bytes


def _tightest_plan(graph, fractions):
    """The plan for the smallest ``fractions`` of the peak the planner
    meets (the last fraction, 1.0, always is)."""
    peak = simulate(graph).peak_bytes
    for fraction in fractions:
        try:
            return plan_memory(graph, int(fraction * peak))
        except InfeasibleBudget:
            continue
    raise AssertionError("no fraction was feasible")


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_ledger_is_the_simulated_event_list(seed):
    """Event for event — node, action, tensor, bytes and running total —
    the run records what ``simulate`` predicts: under both accounting
    policies, and enforcing the tightest feasible budget."""
    for graph in _decomposed_and_optimized(seed):
        inputs = random_input(graph, seed)
        for inplace in (False, True):
            ledger = execute(graph, inputs, record_ledger=True,
                             inplace_activations=inplace).memory.ledger
            assert ledger == simulate(
                graph, inplace_activations=inplace).events
        plan = _tightest_plan(graph, (0.5, 0.6, 0.7, 0.8, 0.9, 1.0))
        ledger = execute(graph, inputs, plan=plan,
                         record_ledger=True).memory.ledger
        assert ledger == simulate(graph, actions=plan.buckets).events


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), encoder_decoder=st.booleans())
def test_serialization_roundtrip_on_optimized_random_cnns(seed,
                                                          encoder_decoder):
    g = random_cnn(seed, max_blocks=3, encoder_decoder=encoder_decoder)
    dg = decompose_graph(g, DecompositionConfig(ratio=0.3))
    opt, _ = optimize(dg)
    structure, weights = graph_to_dict(opt)
    rebuilt = graph_from_dict(structure, weights)
    inp = random_input(opt, seed)
    np.testing.assert_array_equal(execute(opt, inp).output(),
                                  execute(rebuilt, inp).output())


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pipeline_idempotent_on_random_cnns(seed):
    """Optimizing an already-optimized graph must be safe and not regress."""
    g = random_cnn(seed, max_blocks=3)
    dg = decompose_graph(g, DecompositionConfig(ratio=0.3))
    once, r1 = optimize(dg)
    twice, r2 = optimize(once)
    assert r2.peak_after <= r1.peak_after
    eq = compare_graphs(once, twice, random_input(once, seed))
    assert eq.within(rtol=3e-3, atol=1e-5)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_audit_on_random_cnns(seed):
    """The run's ledger is the event list ``simulate`` predicts."""
    from repro.obs.audit import audit_graph
    g = random_cnn(seed, max_blocks=3)
    audit = audit_graph(g, random_input(g, seed))
    assert audit.passed, audit.errors
