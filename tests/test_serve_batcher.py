"""Micro-batch packing: coalesce / split / pad, and exact scatter."""

import numpy as np
import pytest

from repro.serve import (Bucket, Buckets, assemble, derive_buckets,
                         request_samples, scatter)

from _graph_fixtures import make_chain_graph


def _static_only(graph) -> Buckets:
    """Pad-to-B: the static batch is the only size offered."""
    size = graph.inputs[0].shape[0]
    return Buckets({size: Bucket(size, graph)})


def _req(k: int, seed: int, channels: int = 16, hw: int = 12):
    rng = np.random.default_rng(seed)
    return {"x": rng.normal(size=(k, channels, hw, hw)).astype(np.float32)}


class TestRequestSamples:
    def test_counts_samples(self):
        g = make_chain_graph(batch=4)
        assert request_samples(g, _req(3, 0)) == 3

    def test_missing_input_rejected(self):
        g = make_chain_graph(batch=4)
        with pytest.raises(ValueError, match="missing inputs"):
            request_samples(g, {})

    def test_unknown_input_rejected(self):
        g = make_chain_graph(batch=4)
        with pytest.raises(ValueError, match="unknown inputs"):
            request_samples(g, {**_req(1, 0), "y": np.zeros((1, 2))})

    def test_wrong_sample_shape_rejected(self):
        g = make_chain_graph(batch=4)
        with pytest.raises(ValueError, match="per-sample shape"):
            request_samples(g, {"x": np.zeros((1, 16, 9, 9), np.float32)})

    def test_zero_samples_rejected(self):
        g = make_chain_graph(batch=4)
        with pytest.raises(ValueError, match="zero samples"):
            request_samples(g, {"x": np.zeros((0, 16, 12, 12), np.float32)})


class TestAssemble:
    def test_coalesces_single_samples_in_fifo_order(self):
        g = make_chain_graph(batch=4)
        reqs = [(i, _req(1, i)) for i in range(4)]
        shards = assemble(_static_only(g), reqs)
        assert len(shards) == 1
        shard = shards[0]
        assert shard.padding == 0 and shard.live_samples == 4
        assert [s.request for s in shard.segments] == [0, 1, 2, 3]
        for i, (_, inputs) in enumerate(reqs):
            np.testing.assert_array_equal(shard.inputs["x"][i:i + 1],
                                          inputs["x"])

    def test_pads_short_batch_with_zeros(self):
        g = make_chain_graph(batch=4)
        shards = assemble(_static_only(g), [(0, _req(1, 0))])
        assert len(shards) == 1 and shards[0].padding == 3
        assert not shards[0].inputs["x"][1:].any()

    def test_splits_oversized_request_across_shards(self):
        g = make_chain_graph(batch=4)
        big = _req(10, 7)
        shards = assemble(_static_only(g), [("big", big)])
        assert [s.live_samples for s in shards] == [4, 4, 2]
        assert shards[-1].padding == 2
        rebuilt = np.concatenate(
            [s.inputs["x"][:s.live_samples] for s in shards])
        np.testing.assert_array_equal(rebuilt, big["x"])

    def test_mixed_sizes_pack_greedily(self):
        g = make_chain_graph(batch=4)
        shards = assemble(_static_only(g),
                          [("a", _req(3, 0)), ("b", _req(2, 1)),
                           ("c", _req(1, 2))])
        # a(3) + b's first sample fill shard 0; b's second + c pad shard 1
        assert [s.live_samples for s in shards] == [4, 2]
        assert [(s.request, s.length) for s in shards[0].segments] == \
            [("a", 3), ("b", 1)]
        assert [(s.request, s.length) for s in shards[1].segments] == \
            [("b", 1), ("c", 1)]


    def test_tail_shard_takes_the_smallest_bucket_that_holds_it(self):
        g = make_chain_graph(batch=4)
        buckets = derive_buckets(g)
        assert buckets.sizes == [1, 2, 4]
        for k, sizes, padding in [(1, [1], 0), (2, [2], 0), (3, [4], 1),
                                  (4, [4], 0), (5, [4, 1], 0),
                                  (10, [4, 4, 2], 0)]:
            request = _req(k, k)
            shards = assemble(buckets, [("r", request)])
            assert [s.size for s in shards] == sizes, k
            assert [len(s.inputs["x"]) for s in shards] == sizes
            assert sum(s.padding for s in shards) == padding
            rebuilt = np.concatenate(
                [s.inputs["x"][:s.live_samples] for s in shards])
            np.testing.assert_array_equal(rebuilt, request["x"])


class TestScatter:
    def test_roundtrip_identity(self):
        """scatter(assemble(x)) reassembles every request exactly."""
        g = make_chain_graph(batch=4)
        reqs = [("a", _req(3, 0)), ("b", _req(6, 1)), ("c", _req(1, 2))]
        totals = {h: inputs["x"].shape[0] for h, inputs in reqs}
        buffers, filled, completed = {}, {}, []
        for shard in assemble(_static_only(g), reqs):
            # "run" an identity model: output == input
            completed += scatter(shard, {"x": shard.inputs["x"]},
                                 buffers, filled, totals)
        assert completed == ["a", "b", "c"]
        for handle, inputs in reqs:
            np.testing.assert_array_equal(buffers[handle]["x"], inputs["x"])

    def test_split_request_completes_only_when_fully_scattered(self):
        g = make_chain_graph(batch=4)
        reqs = [("big", _req(6, 3))]
        totals = {"big": 6}
        shards = assemble(_static_only(g), reqs)
        buffers, filled = {}, {}
        first = scatter(shards[0], {"x": shards[0].inputs["x"]},
                        buffers, filled, totals)
        assert first == []
        second = scatter(shards[1], {"x": shards[1].inputs["x"]},
                         buffers, filled, totals)
        assert second == ["big"]
