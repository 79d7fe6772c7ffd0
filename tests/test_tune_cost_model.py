"""repro.tune.cost_model: site extraction, candidate grids, pruning."""

import numpy as np
import pytest

from repro.core import optimize
from repro.decompose import DecompositionConfig, decompose_graph
from repro.ir.emit import make_node
from repro.ir.graph import Graph
from repro.ir.ops import node_flops
from repro.ir.value import Value
from repro.kernels import DEFAULT_BLOCK_SIZE, fused_scratch_bytes
from repro.tune import (SiteSpec, collect_sites, estimate_cost,
                        prune_candidates, site_candidates)
from repro.tune.cost_model import DEFAULT_BLOCK_SIZES, DEFAULT_SPATIAL_TILES

from _graph_fixtures import make_chain_graph


@pytest.fixture(scope="module")
def fused_sites():
    graph = make_chain_graph()
    optimized, _report = optimize(
        decompose_graph(graph, DecompositionConfig(seed=0)))
    nodes = collect_sites(optimized)
    assert nodes, "fixture graph should fuse"
    return nodes


class TestSiteSpec:
    def test_from_node_extracts_shapes(self, fused_sites):
        for node in fused_sites:
            site = SiteSpec.from_node(node)
            assert site.c_prime == node.params["w1"].shape[0]
            assert site.input_shape == tuple(node.inputs[0].shape)
            assert site.itemsize == 4
            assert site.site_key == node.attrs["fused_from"][0]

    def test_pooled_size_and_flops_are_the_ir_definitions(self):
        # 3x3 / stride 2 / no padding on 32x32 pools to 15x15, not 32 // 2
        graph = Graph("t", [Value("x", (2, 4, 32, 32))])
        node = make_node(graph, "fused_block", [graph.inputs[0]],
                         attrs={"act": "relu",
                                "pool": {"kind": "max", "kernel": [3, 3],
                                         "stride": [2, 2], "padding": [0, 0]}},
                         params={"w1": np.zeros((32, 4), np.float32),
                                 "w2": np.zeros((6, 32), np.float32)})
        site = SiteSpec.from_node(node)
        assert site.out_hw == node.output.shape[2:] == (15, 15)
        assert estimate_cost(site, 8, 0).flops == node_flops(node)

    def test_rejects_non_fused_node(self):
        graph = make_chain_graph()
        with pytest.raises(ValueError, match="not a fused site"):
            SiteSpec.from_node(graph.nodes[0])


class TestCandidates:
    def test_blocks_clamped_and_deduped(self, fused_sites):
        site = SiteSpec.from_node(fused_sites[0])
        cands = site_candidates(site)
        blocks = [b for b, t in cands if t == 0]
        assert blocks == sorted(set(blocks))
        assert all(1 <= b <= site.c_prime for b, _t in cands)
        assert max(blocks) == min(max(DEFAULT_BLOCK_SIZES), site.c_prime)

    def test_tile_zero_always_present(self, fused_sites):
        site = SiteSpec.from_node(fused_sites[0])
        assert any(t == 0 for _b, t in site_candidates(site))

    def test_non_tileable_spatial_sizes_dropped(self, fused_sites):
        site = SiteSpec.from_node(fused_sites[0])
        _n, _c, h, w = site.input_shape
        # a tile larger than the feature map can never apply exactly
        cands = site_candidates(site, spatial_tiles=(0, max(h, w) * 2))
        assert {t for _b, t in cands} == {0}


class TestEstimate:
    def test_scratch_matches_kernel_accounting(self, fused_sites):
        site = SiteSpec.from_node(fused_sites[0])
        for block, tile in site_candidates(site):
            est = estimate_cost(site, block, tile)
            assert est.scratch_bytes == fused_scratch_bytes(
                site.input_shape, site.itemsize, block_size=block,
                c_prime=site.c_prime, spatial_tile=tile)

    def test_scratch_monotone_in_block(self, fused_sites):
        site = SiteSpec.from_node(fused_sites[0])
        blocks = sorted({b for b, t in site_candidates(site) if t == 0})
        scratch = [estimate_cost(site, b, 0).scratch_bytes for b in blocks]
        assert scratch == sorted(scratch)

    def test_fewer_blocks_less_input_traffic(self, fused_sites):
        site = SiteSpec.from_node(fused_sites[0])
        small = estimate_cost(site, 1, 0)
        large = estimate_cost(site, site.c_prime, 0)
        assert small.blocks > large.blocks
        assert small.traffic_bytes > large.traffic_bytes
        assert small.flops == large.flops  # tile-invariant

    def test_oversized_block_clamps(self, fused_sites):
        site = SiteSpec.from_node(fused_sites[0])
        est = estimate_cost(site, 10 ** 6, 0)
        assert est.block_size == site.c_prime
        assert est.blocks == 1 or site.pool is not None


class TestPrune:
    def test_keep_bounds_and_default_survives(self, fused_sites):
        site = SiteSpec.from_node(fused_sites[0])
        cands = site_candidates(site, DEFAULT_BLOCK_SIZES,
                                DEFAULT_SPATIAL_TILES)
        default_key = (min(DEFAULT_BLOCK_SIZE, site.c_prime), 0)
        kept = prune_candidates(site, cands, keep=3)
        assert len(kept) <= 4  # keep + possibly re-appended default
        assert default_key in {(c.block_size, c.spatial_tile) for c in kept}

    def test_scratch_cap_drops_but_keeps_default(self, fused_sites):
        site = SiteSpec.from_node(fused_sites[0])
        cands = site_candidates(site)
        kept = prune_candidates(site, cands, keep=16, max_scratch_bytes=1)
        default_key = (min(DEFAULT_BLOCK_SIZE, site.c_prime), 0)
        keys = {(c.block_size, c.spatial_tile) for c in kept}
        assert keys == {default_key}

    def test_ranked_by_score(self, fused_sites):
        site = SiteSpec.from_node(fused_sites[0])
        kept = prune_candidates(site, site_candidates(site), keep=8)
        scores = [c.score for c in kept[:-1]]  # last may be appended default
        assert scores == sorted(scores)
