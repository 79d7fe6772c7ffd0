"""The paper's Equations 1–4 against graphs measured by the executor."""

import numpy as np
import pytest

from repro.core import (ConvPairSpec, eq1_weight_elems_original,
                        eq2_weight_elems_decomposed,
                        eq3_peak_internal_original,
                        eq4_peak_internal_decomposed, fused_peak_internal)
from repro.core.fusion import fuse_activation_layers
from repro.decompose import DecompositionConfig, decompose_graph
from repro.ir import GraphBuilder
from repro.runtime import execute


def _figure3_graph(spec: ConvPairSpec, seed: int = 0):
    """conv1 → relu → conv2, matching the paper's Figure 3a shapes."""
    b = GraphBuilder("fig3", seed=seed)
    x = b.input("x", (spec.batch, spec.c, spec.h, spec.w))
    h = b.conv2d(x, spec.c_prime, spec.k, stride=spec.h // spec.h_prime,
                 padding=spec.k // 2, bias=False, name="conv1")
    h = b.relu(h)
    h = b.conv2d(h, spec.c_dprime, spec.k_prime,
                 stride=spec.h_prime // spec.h_dprime,
                 padding=spec.k_prime // 2, bias=False, name="conv2")
    return b.finish(h)


@pytest.fixture
def spec():
    return ConvPairSpec(c=16, h=16, w=16, k=3,
                        c_prime=32, h_prime=16, w_prime=16, k_prime=3,
                        c_dprime=32, h_dprime=8, w_dprime=8,
                        c1=4, c2=8, c3=8, c4=8, batch=2)


class TestWeightEquations:
    def test_eq1_matches_graph(self, spec):
        g = _figure3_graph(spec)
        assert g.num_params() == eq1_weight_elems_original(spec)

    def test_eq2_matches_decomposed_graph(self, spec):
        g = _figure3_graph(spec)
        dg = decompose_graph(g, DecompositionConfig(ratio=0.25))
        # read the actual ranks the planner chose and rebuild the spec
        fconvs = [n for n in dg.nodes if n.attrs.get("role") == "fconv"]
        lconvs = [n for n in dg.nodes if n.attrs.get("role") == "lconv"]
        actual = ConvPairSpec(
            c=spec.c, h=spec.h, w=spec.w, k=spec.k,
            c_prime=spec.c_prime, h_prime=spec.h_prime, w_prime=spec.w_prime,
            k_prime=spec.k_prime, c_dprime=spec.c_dprime,
            h_dprime=spec.h_dprime, w_dprime=spec.w_dprime,
            c1=fconvs[0].params["weight"].shape[0],
            c2=lconvs[0].params["weight"].shape[1],
            c3=fconvs[1].params["weight"].shape[0],
            c4=lconvs[1].params["weight"].shape[1],
            batch=spec.batch)
        assert dg.num_params() == eq2_weight_elems_decomposed(actual)

    def test_decomposition_shrinks_weights(self, spec):
        assert eq2_weight_elems_decomposed(spec) < eq1_weight_elems_original(spec)


class TestPeakEquations:
    def test_eq3_matches_measured_original(self, spec):
        g = _figure3_graph(spec)
        rng = np.random.default_rng(0)
        inp = {"x": rng.normal(size=g.inputs[0].shape).astype(np.float32)}
        measured = execute(g, inp).memory.peak_internal_bytes
        assert measured == eq3_peak_internal_original(spec) * 4  # f32 bytes

    def test_eq4_matches_measured_decomposed(self, spec):
        g = _figure3_graph(spec)
        dg = decompose_graph(g, DecompositionConfig(ratio=0.25))
        fconvs = [n for n in dg.nodes if n.attrs.get("role") == "fconv"]
        lconvs = [n for n in dg.nodes if n.attrs.get("role") == "lconv"]
        actual = ConvPairSpec(
            c=spec.c, h=spec.h, w=spec.w, k=spec.k,
            c_prime=spec.c_prime, h_prime=spec.h_prime, w_prime=spec.w_prime,
            k_prime=spec.k_prime, c_dprime=spec.c_dprime,
            h_dprime=spec.h_dprime, w_dprime=spec.w_dprime,
            c1=fconvs[0].params["weight"].shape[0],
            c2=lconvs[0].params["weight"].shape[1],
            c3=fconvs[1].params["weight"].shape[0],
            c4=lconvs[1].params["weight"].shape[1],
            batch=spec.batch)
        rng = np.random.default_rng(0)
        inp = {"x": rng.normal(size=dg.inputs[0].shape).astype(np.float32)}
        measured = execute(dg, inp).memory.peak_internal_bytes
        assert measured == eq4_peak_internal_decomposed(actual) * 4

    def test_eq4_collapses_to_activation_pair(self, spec):
        """The paper's §2.2 observation: with reduced ranks, Eq. 4 equals
        2·C'·H'·W' — decomposition alone does not shrink the peak."""
        assert spec.ranks_are_reduced()
        assert eq4_peak_internal_decomposed(spec) == \
            2 * spec.batch * spec.c_prime * spec.h_prime * spec.w_prime

    def test_fused_peak_strictly_smaller(self, spec):
        assert fused_peak_internal(spec) < eq4_peak_internal_decomposed(spec)

    def test_fused_matches_measured_fused_graph(self, spec):
        g = _figure3_graph(spec)
        dg = decompose_graph(g, DecompositionConfig(ratio=0.25))
        fconvs = [n for n in dg.nodes if n.attrs.get("role") == "fconv"]
        lconvs = [n for n in dg.nodes if n.attrs.get("role") == "lconv"]
        actual = ConvPairSpec(
            c=spec.c, h=spec.h, w=spec.w, k=spec.k,
            c_prime=spec.c_prime, h_prime=spec.h_prime, w_prime=spec.w_prime,
            k_prime=spec.k_prime, c_dprime=spec.c_dprime,
            h_dprime=spec.h_dprime, w_dprime=spec.w_dprime,
            c1=fconvs[0].params["weight"].shape[0],
            c2=lconvs[0].params["weight"].shape[1],
            c3=fconvs[1].params["weight"].shape[0],
            c4=lconvs[1].params["weight"].shape[1],
            batch=spec.batch)
        fuse_activation_layers(dg)
        rng = np.random.default_rng(0)
        inp = {"x": rng.normal(size=dg.inputs[0].shape).astype(np.float32)}
        measured = execute(dg, inp).memory.peak_internal_bytes
        assert measured == fused_peak_internal(actual) * 4
