"""The full TeMCO pipeline (Figure 6) plus equivalence & folding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (TeMCOConfig, assert_equivalent, compare_graphs,
                        estimate_peak_internal, fold_batchnorm, optimize,
                        topk_agreement)
from repro.decompose import DecompositionConfig, decompose_graph
from repro.ir import GraphBuilder
from repro.runtime import execute

from _graph_fixtures import (make_chain_graph, make_residual_graph, make_skip_graph,
                      random_input)


class TestPipeline:
    @pytest.mark.parametrize("factory", [make_chain_graph, make_skip_graph,
                                         make_residual_graph])
    def test_never_increases_peak(self, factory):
        g = decompose_graph(factory(), DecompositionConfig(ratio=0.25))
        _, report = optimize(g)
        assert report.peak_after <= report.peak_before

    @pytest.mark.parametrize("factory", [make_chain_graph, make_skip_graph,
                                         make_residual_graph])
    def test_semantics_preserved(self, factory):
        g = decompose_graph(factory(), DecompositionConfig(ratio=0.25))
        opt, _ = optimize(g)
        assert_equivalent(g, opt, random_input(g), rtol=1e-3)

    def test_report_matches_measurement(self):
        g = decompose_graph(make_skip_graph(), DecompositionConfig(ratio=0.25))
        opt, report = optimize(g)
        measured = execute(opt, random_input(opt)).memory.peak_internal_bytes
        assert measured == report.peak_after

    def test_input_graph_untouched(self):
        g = decompose_graph(make_skip_graph(), DecompositionConfig(ratio=0.25))
        names = [n.name for n in g.nodes]
        optimize(g)
        assert [n.name for n in g.nodes] == names

    def test_stages_can_be_disabled(self):
        g = decompose_graph(make_skip_graph(), DecompositionConfig(ratio=0.25))
        opt, report = optimize(g, TeMCOConfig(enable_skip_opt=False,
                                              enable_transforms=False,
                                              enable_fusion=False))
        assert report.skip_opt is None
        assert report.transforms is None
        assert report.fusion is None
        assert [n.op for n in opt.nodes] == [n.op for n in g.nodes]

    def test_optimized_is_equivalent_and_no_worse(self):
        g = decompose_graph(make_skip_graph(), DecompositionConfig(ratio=0.25))
        opt, report = optimize(g)
        assert_equivalent(g, opt, random_input(g), rtol=1e-3)
        assert report.peak_after <= report.peak_before

    def test_report_summary_readable(self):
        g = decompose_graph(make_skip_graph(), DecompositionConfig(ratio=0.25))
        _, report = optimize(g)
        s = report.summary()
        assert "peak internal" in s and "reduction" in s

    def test_idempotent_on_already_optimized(self):
        g = decompose_graph(make_chain_graph(), DecompositionConfig(ratio=0.25))
        once, report1 = optimize(g)
        twice, report2 = optimize(once)
        assert report2.peak_after <= report1.peak_after
        assert_equivalent(once, twice, random_input(once), rtol=1e-3)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500), ratio=st.sampled_from([0.1, 0.25, 0.5]))
    def test_property_optimize_preserves_outputs(self, seed, ratio):
        g = decompose_graph(make_skip_graph(seed=seed),
                            DecompositionConfig(ratio=ratio))
        opt, _ = optimize(g)
        report = compare_graphs(g, opt, random_input(g, seed))
        assert report.within(rtol=2e-3, atol=1e-5)


class TestEquivalenceChecker:
    def test_detects_divergence(self):
        g1 = make_chain_graph(seed=1)
        g2 = make_chain_graph(seed=2)  # different weights
        with pytest.raises(AssertionError, match="diverge"):
            assert_equivalent(g1, g2, random_input(g1))

    def test_output_arity_mismatch(self):
        b = GraphBuilder("two", seed=0)
        x = b.input("x", (1, 2, 4, 4))
        g2 = b.finish(b.relu(x), b.sigmoid(x))
        g1 = make_chain_graph()
        with pytest.raises(ValueError):
            compare_graphs(g1, g2, random_input(g1))

    def test_topk_agreement_self_is_one(self):
        b = GraphBuilder("cls", seed=0)
        x = b.input("x", (4, 8, 4, 4))
        h = b.flatten(b.global_avgpool(x))
        g = b.finish(b.linear(h, 10))
        assert topk_agreement(g, g, random_input(g), k=5) == 1.0


class TestBatchnormFolding:
    def _bn_graph(self, seed=0):
        b = GraphBuilder("bn", seed=seed)
        x = b.input("x", (2, 4, 6, 6))
        h = b.conv2d(x, 8, 3, padding=1, name="c")
        h = b.batchnorm2d(h, gamma=b.rng.uniform(0.5, 2, 8),
                          beta=b.rng.normal(size=8),
                          mean=b.rng.normal(size=8),
                          var=b.rng.uniform(0.5, 2, 8))
        return b.finish(b.relu(h))

    def test_fold_removes_bn_and_preserves_outputs(self):
        g = self._bn_graph()
        before = g.clone("before")
        folded = fold_batchnorm(g)
        assert folded == 1
        assert not any(n.op == "batchnorm2d" for n in g.nodes)
        assert_equivalent(before, g, random_input(g), rtol=1e-4)

    def test_standalone_bn_kept(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 3, 4, 4))
        h = b.batchnorm2d(b.relu(x))
        g = b.finish(h)
        assert fold_batchnorm(g) == 0
        assert any(n.op == "batchnorm2d" for n in g.nodes)

    def test_shared_conv_output_not_folded(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 3, 4, 4))
        c = b.conv2d(x, 4, 1, name="c")
        bn = b.batchnorm2d(c)
        g = b.finish(bn, b.relu(c))  # conv output used twice
        assert fold_batchnorm(g) == 0
