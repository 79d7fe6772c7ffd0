"""Regression: oversized block_size is clamped, not silently degenerate.

Before the clamp, ``block_size=10**6`` on a 48-channel site ran exactly
like unblocked execution (correct) but ``fused_scratch_bytes`` without
a ``c_prime`` hint reported a tile of a million channels (misleading),
and the fused node attrs advertised the fictitious size.
"""

import numpy as np
import pytest

from repro.core import FusionConfig, TeMCOConfig, optimize
from repro.decompose import DecompositionConfig, decompose_graph
from repro.kernels import fused_block, fused_restore, fused_scratch_bytes
from repro.runtime import InferenceSession

from _graph_fixtures import make_chain_graph, random_input


@pytest.fixture(scope="module")
def decomposed():
    return decompose_graph(make_chain_graph(), DecompositionConfig(seed=0))


class TestKernelClamp:
    def _site(self, c_prime=48, r_in=8, r_out=8, n=2, hw=6, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, r_in, hw, hw)).astype(np.float32)
        w1 = rng.normal(size=(c_prime, r_in)).astype(np.float32)
        w2 = rng.normal(size=(r_out, c_prime)).astype(np.float32)
        return x, w1, w2

    def test_oversized_block_matches_exact_block(self):
        x, w1, w2 = self._site()
        big = fused_block(x, w1, None, w2, None, act="relu", block_size=10**6)
        exact = fused_block(x, w1, None, w2, None, act="relu", block_size=48)
        np.testing.assert_array_equal(big, exact)

    def test_oversized_block_fused_restore(self):
        x, w1, _ = self._site()
        big = fused_restore(x, w1, None, act="relu", block_size=10**6)
        exact = fused_restore(x, w1, None, act="relu", block_size=48)
        np.testing.assert_array_equal(big, exact)

    def test_scratch_report_clamps_with_c_prime(self):
        shape = (2, 8, 6, 6)
        assert (fused_scratch_bytes(shape, 4, block_size=10**6, c_prime=48)
                == fused_scratch_bytes(shape, 4, block_size=48, c_prime=48))


class TestFusionConfigValidation:
    def test_rejects_nonpositive_block(self):
        with pytest.raises(ValueError, match="block_size"):
            FusionConfig(block_size=0)

    def test_rejects_negative_spatial_tile(self):
        with pytest.raises(ValueError, match="override"):
            FusionConfig(site_overrides={"c1": (4, -1)})

    def test_rejects_bad_override(self):
        with pytest.raises(ValueError, match="override"):
            FusionConfig(site_overrides={"c1": (0, 0)})

    def test_tile_for_falls_back_to_global(self):
        cfg = FusionConfig(block_size=16, site_overrides={"c1": (4, 8)})
        assert cfg.tile_for("c1") == (4, 8)
        assert cfg.tile_for("c2") == (16, 0)


class TestFusedNodeAttrs:
    def test_attrs_carry_clamped_block_size(self, decomposed):
        optimized, report = optimize(decomposed, TeMCOConfig(
            fusion=FusionConfig(block_size=10**6)))
        fused = [n for n in optimized.nodes
                 if n.op in ("fused_block", "fused_restore")]
        assert fused, "chain graph should fuse"
        for node in fused:
            assert node.attrs["block_size"] == node.params["w1"].shape[0]

    def test_clamped_attrs_scratch_matches_unblocked(self, decomposed):
        graph = decomposed.clone()
        big, _ = optimize(graph, TeMCOConfig(
            fusion=FusionConfig(block_size=10**6)))
        full, _ = optimize(graph, TeMCOConfig(
            fusion=FusionConfig(block_size=4096)))
        inputs = random_input(big)
        scratch_big = InferenceSession(big).run(inputs).memory.peak_scratch_bytes
        scratch_full = InferenceSession(full).run(inputs).memory.peak_scratch_bytes
        assert scratch_big == scratch_full > 0

    def test_site_overrides_reach_the_attrs(self, decomposed):
        default, _ = optimize(decomposed, TeMCOConfig())
        fused = [n for n in default.nodes if n.op == "fused_block"]
        assert fused
        site = fused[0].attrs["fused_from"][0]
        tuned, _ = optimize(decomposed, TeMCOConfig(
            fusion=FusionConfig(site_overrides={site: (4, 0)})))
        target = [n for n in tuned.nodes
                  if n.op == "fused_block" and n.attrs["fused_from"][0] == site]
        assert target and target[0].attrs["block_size"] == 4
        inputs = random_input(default)
        np.testing.assert_allclose(
            InferenceSession(tuned).run(inputs).output(),
            InferenceSession(default).run(inputs).output(),
            rtol=1e-4, atol=1e-4)
