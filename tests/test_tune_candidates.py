"""repro.tune.site_candidates: the grid the tuner enumerates per site."""

import pytest

from repro.core import optimize
from repro.decompose import DecompositionConfig, decompose_graph
from repro.tune import collect_sites, site_candidates
from repro.tune import tuner
from repro.tune.tuner import DEFAULT_BLOCK_SIZES

from _graph_fixtures import make_chain_graph


@pytest.fixture(scope="module")
def fused_sites():
    graph = make_chain_graph()
    optimized, _report = optimize(
        decompose_graph(graph, DecompositionConfig(seed=0)))
    nodes = collect_sites(optimized)
    assert nodes, "fixture graph should fuse"
    return nodes


class TestCandidates:
    def test_blocks_clamped_and_deduped(self, fused_sites):
        node = fused_sites[0]
        c_prime = node.params["w1"].shape[0]
        cands = site_candidates(node)
        blocks = [b for b, t in cands if t == 0]
        assert blocks == sorted(set(blocks))
        assert all(1 <= b <= c_prime for b, _t in cands)
        assert max(blocks) == min(max(DEFAULT_BLOCK_SIZES), c_prime)

    def test_tile_zero_always_present(self, fused_sites):
        assert any(t == 0 for _b, t in site_candidates(fused_sites[0]))

    def test_non_tileable_spatial_sizes_dropped(self, fused_sites,
                                                monkeypatch):
        node = fused_sites[0]
        _n, _c, h, w = node.inputs[0].shape
        # a tile larger than the feature map can never apply exactly
        monkeypatch.setattr(tuner, "SPATIAL_TILES", (0, max(h, w) * 2))
        cands = site_candidates(node)
        assert {t for _b, t in cands} == {0}
