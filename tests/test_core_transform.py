"""Layer transformations (paper §3.3, Figure 9)."""

import numpy as np
import pytest

from repro.core import (assert_equivalent, commute_upsample_lconv,
                        estimate_peak_internal, fuse_activation_layers,
                        gather_concat_inputs, merge_lconv_add,
                        merge_lconv_concat, merge_sum_fconv, optimize,
                        push_act_through_concat, split_concat_fconv)
from repro.decompose import DecompositionConfig, decompose_graph
from repro.ir import GraphBuilder, ops
from repro.ir.emit import make_node
from repro.models import build_model
from repro.obs import Tracer, use_tracer
from repro.plan import plan_memory
from repro.runtime import execute

from _fuzz import random_cnn
from _graph_fixtures import random_input
from _zoo_compiles import cheap, zoo_model


def _two_branch_concat(act: bool = True, seed: int = 0):
    """concat of two [relu ∘] lconv branches feeding an fconv."""
    b = GraphBuilder("t", seed=seed)
    x = b.input("x", (2, 6, 8, 8))
    l1 = b.conv2d(x, 24, 1, name="lconv_a")
    l2 = b.conv2d(x, 16, 1, name="lconv_b")
    if act:
        l1, l2 = b.relu(l1), b.relu(l2)
    cat = b.concat(l1, l2, name="join")
    out = b.conv2d(cat, 5, 1, name="after")  # 40 -> 5: fconv
    return b.finish(out)


class TestMergeConcat:
    @pytest.mark.parametrize("act", [True, False])
    def test_merges_and_preserves_semantics(self, act):
        g = _two_branch_concat(act=act)
        before = g.clone("before")
        stats = merge_lconv_concat(g)
        assert stats.merged_concats == 1
        merged = next(n for n in g.nodes if "merged_from" in n.attrs)
        assert ops.is_lconv(merged)
        assert merged.params["weight"].shape[:2] == (40, 6 + 6)
        assert_equivalent(before, g, random_input(g), rtol=1e-4)

    def test_block_diagonal_structure(self):
        g = _two_branch_concat(act=False)
        merge_lconv_concat(g)
        merged = next(n for n in g.nodes if "merged_from" in n.attrs)
        w = merged.params["weight"][:, :, 0, 0]
        # off-diagonal blocks are exactly zero
        assert (w[:24, 6:] == 0).all()
        assert (w[24:, :6] == 0).all()

    def test_mixed_activations_block_merge(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 6, 8, 8))
        l1 = b.relu(b.conv2d(x, 24, 1))
        l2 = b.sigmoid(b.conv2d(x, 16, 1))
        out = b.conv2d(b.concat(l1, l2), 5, 1)
        g = b.finish(out)
        assert merge_lconv_concat(g).merged_concats == 0

    @pytest.mark.parametrize("order", ["leading", "trailing", "between"])
    def test_passthrough_branch_is_a_run(self, order):
        """A pass-through branch is a run of carried channels: the merged
        weight holds only the restored blocks, with no identity rows."""
        b = GraphBuilder("t", seed=1)
        x = b.input("x", (1, 6, 8, 8))
        plain = b.maxpool2d(x, 1)            # not a restore chain
        la = b.conv2d(x, 16, 1, name="lconv_a")
        lb = b.conv2d(x, 12, 1, name="lconv_b")
        branches = {"leading": (plain, la, lb), "trailing": (la, lb, plain),
                    "between": (la, plain, lb)}[order]
        cat = b.concat(*branches, name="join")
        out = b.conv2d(cat, 4, 1, name="after")
        g = b.finish(out)
        before = g.clone("before")
        stats = merge_lconv_concat(g)
        assert stats.merged_concats == 1
        merged = next(n for n in g.nodes if "merged_from" in n.attrs)
        w = merged.params["weight"][:, :, 0, 0]
        assert w.shape == (16 + 12, 6 + 6)
        assert not (np.count_nonzero(w, axis=1) == 1).any()
        start = {"leading": 0, "trailing": 28, "between": 16}[order]
        col = {"leading": 0, "trailing": 12, "between": 6}[order]
        assert ops.passthrough_runs(merged) == ((start, col, 6),)
        assert merged.output.shape == (1, 34, 8, 8)
        assert_equivalent(before, g, random_input(g), rtol=1e-4)

    def test_nested_merge_carries_inner_runs(self):
        """A merged lconv that is a branch of another concat brings its
        runs along, shifted to where it lands."""
        b = GraphBuilder("t", seed=3)
        x = b.input("x", (2, 6, 8, 8))
        inner = b.concat(b.maxpool2d(x, 1), b.conv2d(x, 16, 1), name="inner")
        inner_cat = b.conv2d(x, 20, 1)
        outer = b.concat(inner_cat, inner, name="outer")
        out = b.conv2d(outer, 4, 1, name="after")
        g = b.finish(out)
        before = g.clone("before")
        assert merge_lconv_concat(g).merged_concats == 2
        runs = [ops.passthrough_runs(n) for n in g.nodes if "merged_from" in n.attrs]
        assert runs == [((20, 6, 6),)]
        assert_equivalent(before, g, random_input(g), rtol=1e-4)

    def test_batchnorm_does_not_fold_into_runs(self):
        """A batchnorm after a merged lconv would rescale its pass-through
        rows too, which have no weight to fold into."""
        from repro.core import fold_batchnorm
        b = GraphBuilder("t", seed=2)
        x = b.input("x", (1, 6, 4, 4))
        cat = b.concat(b.maxpool2d(x, 1), b.conv2d(x, 16, 1))
        g = b.finish(b.batchnorm2d(cat))
        merge_lconv_concat(g)
        assert fold_batchnorm(g) == 0

    def test_passthrough_with_act_blocks_merge(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 6, 8, 8))
        plain = b.maxpool2d(x, 1)
        l2 = b.relu(b.conv2d(x, 16, 1))
        out = b.conv2d(b.concat(plain, l2), 4, 1)
        g = b.finish(out)
        assert merge_lconv_concat(g).merged_concats == 0

    def test_all_passthrough_blocks_merge(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 6, 8, 8))
        out = b.conv2d(b.concat(b.maxpool2d(x, 1), b.avgpool2d(x, 1)), 4, 1)
        g = b.finish(out)
        assert merge_lconv_concat(g).merged_concats == 0


class TestMergeAdd:
    def test_merges_equal_width_lconvs(self):
        b = GraphBuilder("t", seed=2)
        x = b.input("x", (2, 6, 8, 8))
        l1 = b.conv2d(x, 24, 1, name="la")
        l2 = b.conv2d(x, 24, 1, name="lb")
        out = b.relu(b.add(l1, l2, name="sum"))
        g = b.finish(out)
        before = g.clone("before")
        stats = merge_lconv_add(g)
        assert stats.merged_adds == 1
        merged = next(n for n in g.nodes if "merged_from" in n.attrs)
        assert merged.params["weight"].shape[:2] == (24, 12)
        assert_equivalent(before, g, random_input(g), rtol=1e-4)

    def test_operands_with_runs_block(self):
        """``[W_a | W_b]`` has no place for a pass-through run: two merged
        lconvs with runs of equal width are left to the add."""
        b = GraphBuilder("t", seed=2)
        x = b.input("x", (1, 6, 4, 4))
        m1 = b.concat(b.maxpool2d(x, 1), b.conv2d(x, 16, 1))
        m2 = b.concat(b.avgpool2d(x, 1), b.conv2d(x, 16, 1))
        g = b.finish(b.add(m1, m2))
        before = g.clone("before")
        assert merge_lconv_concat(g).merged_concats == 2
        assert merge_lconv_add(g).merged_adds == 0
        assert_equivalent(before, g, random_input(g), rtol=1e-4)

    def test_biases_summed(self):
        b = GraphBuilder("t", seed=2)
        x = b.input("x", (1, 4, 4, 4))
        l1 = b.conv2d(x, 16, 1, bias_value=np.full(16, 2.0, np.float32), name="la")
        l2 = b.conv2d(x, 16, 1, bias_value=np.full(16, 3.0, np.float32), name="lb")
        g = b.finish(b.add(l1, l2))
        merge_lconv_add(g)
        merged = next(n for n in g.nodes if "merged_from" in n.attrs)
        np.testing.assert_allclose(merged.params["bias"], 5.0)

    def test_non_lconv_operand_blocks(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 24, 4, 4))
        l1 = b.conv2d(x, 24, 1)  # 24 -> 24: not channel-increasing
        g = b.finish(b.add(l1, x))
        assert merge_lconv_add(g).merged_adds == 0


def _sum_join(b, ranks=(3, 4), act=None, nested=False):
    """``Σ act(lconv_j(r_j))``: one graph input ``r_j`` of each rank,
    restored to 16 channels; ``nested`` sums in binary adds, right to
    left, as FractalNet's joins do."""
    act = act or (lambda j, h: b.relu(h))
    terms = [act(j, b.conv2d(b.input(f"r{j}", (2, r, 8, 8)), 16, 1,
                             name=f"lconv{j}"))
             for j, r in enumerate(ranks)]
    if not nested:
        return b.add(*terms, name="join")
    acc = terms[-1]
    for j in range(len(terms) - 2, -1, -1):
        acc = b.add(terms[j], acc, name=f"join{j}")
    return acc


class TestMergeSum:
    """``F·Σ act(lconv_j(r_j)) = [F | … | F]·act(blockdiag(lconv_j)·concat(r_j))``."""

    @staticmethod
    def _merge(g, ranks):
        fconv = next(n for n in g.nodes if n.name == "after")
        before = g.clone("before")
        tracer = Tracer()
        with use_tracer(tracer):
            assert merge_sum_fconv(g).merged_adds == 1
        assert_equivalent(before, g, random_input(g), rtol=1e-4)
        assert [n.op for n in g.nodes] == ["concat", "conv2d", "relu", "conv2d"]
        _cat, merged, _act, summed = g.nodes
        w = merged.params["weight"][:, :, 0, 0]
        assert w.shape == (16 * len(ranks), sum(ranks))
        cols = np.cumsum((0,) + ranks)
        for j in range(len(ranks)):
            block = w[16 * j:16 * (j + 1)]
            assert (block[:, :cols[j]] == 0).all()
            assert (block[:, cols[j + 1]:] == 0).all()
        np.testing.assert_array_equal(
            summed.params["weight"],
            np.concatenate([fconv.params["weight"]] * len(ranks), axis=1))
        assert summed.params["bias"] is fconv.params["bias"]
        [decision] = tracer.decisions_for("transform.merge_sum")
        assert decision["args"]["branches"] == len(ranks)
        # the chain left is one fused kernel
        fuse_activation_layers(g)
        assert [n.op for n in g.nodes] == ["concat", "fused_block"]
        assert_equivalent(before, g, random_input(g), rtol=1e-4)

    def test_two_chains(self):
        b = GraphBuilder("t", seed=3)
        g = b.finish(b.conv2d(_sum_join(b, (3, 4)), 5, 1, name="after"))
        self._merge(g, (3, 4))

    def test_nested_add_tree(self):
        b = GraphBuilder("t", seed=4)
        g = b.finish(b.conv2d(_sum_join(b, (2, 3, 4), nested=True), 5, 1,
                              name="after"))
        self._merge(g, (2, 3, 4))

    def test_leaky_relu_keeps_its_slope(self):
        b = GraphBuilder("t", seed=5)
        join = _sum_join(b, act=lambda j, h: b.leaky_relu(h, negative_slope=0.3))
        g = b.finish(b.conv2d(join, 5, 1, name="after"))
        before = g.clone("before")
        assert merge_sum_fconv(g).merged_adds == 1
        [act] = [n for n in g.nodes if n.op == "leaky_relu"]
        assert act.attrs == {"negative_slope": 0.3}
        assert_equivalent(before, g, random_input(g), rtol=1e-4)

    def test_refuses_an_inner_add_with_a_second_consumer(self):
        b = GraphBuilder("t", seed=4)
        outer = _sum_join(b, (2, 3, 4), nested=True)
        inner = b.graph.producer_of(outer).inputs[1]
        g = b.finish(b.conv2d(outer, 5, 1), b.maxpool2d(inner, 1))
        assert merge_sum_fconv(g).merged_adds == 0

    def test_refuses_a_sum_that_is_a_graph_output(self):
        b = GraphBuilder("t", seed=3)
        join = _sum_join(b)
        g = b.finish(b.conv2d(join, 5, 1), join)
        assert merge_sum_fconv(g).merged_adds == 0

    def test_refuses_a_spatial_consumer(self):
        b = GraphBuilder("t", seed=3)
        g = b.finish(b.conv2d(_sum_join(b), 5, 3, padding=1))
        assert merge_sum_fconv(g).merged_adds == 0

    def test_refuses_mixed_activation_attrs(self):
        b = GraphBuilder("t", seed=3)
        slopes = (0.1, 0.2)
        join = _sum_join(b, act=lambda j, h: b.leaky_relu(
            h, negative_slope=slopes[j]))
        g = b.finish(b.conv2d(join, 5, 1))
        assert merge_sum_fconv(g).merged_adds == 0

    def test_refuses_a_chain_summed_with_itself(self):
        b = GraphBuilder("t", seed=3)
        x = b.relu(b.conv2d(b.input("r", (2, 3, 8, 8)), 16, 1))
        g = b.finish(b.conv2d(b.add(x, x), 5, 1))
        assert merge_sum_fconv(g).merged_adds == 0

    def test_refuses_a_leaf_that_is_not_a_restore_chain(self):
        b = GraphBuilder("t", seed=3)
        restored = b.relu(b.conv2d(b.input("r", (2, 3, 8, 8)), 16, 1))
        spatial = b.relu(b.conv2d(b.input("x", (2, 3, 8, 8)), 16, 3,
                                  padding=1))
        g = b.finish(b.conv2d(b.add(restored, spatial), 5, 1))
        assert merge_sum_fconv(g).merged_adds == 0

    def test_activation_free_sum_keeps_the_horizontal_merge(self):
        """Without an activation the sum is ``merge_lconv_add``'s:
        ``[W_a | W_b]`` has no zero padding."""
        b = GraphBuilder("t", seed=3)
        g = b.finish(b.conv2d(_sum_join(b, act=lambda j, h: h), 5, 1))
        lconvs = [n.params["weight"] for n in g.nodes
                  if n.name.startswith("lconv")]
        assert merge_sum_fconv(g).merged_adds == 0
        assert merge_lconv_add(g).merged_adds == 1
        merged = next(n for n in g.nodes if "merged_from" in n.attrs)
        np.testing.assert_array_equal(merged.params["weight"],
                                      np.concatenate(lconvs, axis=1))


class TestFractalNetSums:
    """The sum merge on the model whose joins it was written for: every
    1×1 conv reading a join merges, the outputs stay the decomposed
    model's, and the planned peak is the measured one, budgeted too."""

    @pytest.mark.parametrize("batch", [1, 4, 32])
    @pytest.mark.parametrize("method", ["tucker", "cp", "tt"])
    def test_equivalent_and_peak_as_planned(self, method, batch):
        graph = decompose_graph(build_model("fractalnet", batch=batch, hw=32),
                                cheap(method))
        optimized, report = optimize(graph)
        # 16 + 12 + 8 + 5 joins of 2, 3, 4 and 5 chains feed a 1×1 conv
        assert report.transforms.merged_adds == 41
        inputs = random_input(graph)
        assert_equivalent(graph, optimized, inputs)
        run = execute(optimized, inputs)
        assert run.memory.peak_internal_bytes == estimate_peak_internal(optimized)
        plan = plan_memory(optimized,
                           int(0.9 * estimate_peak_internal(optimized)))
        assert plan.spills
        budgeted = execute(optimized, inputs, plan=plan)
        assert budgeted.memory.peak_internal_bytes == plan.planned_peak_bytes
        np.testing.assert_array_equal(budgeted.output(), run.output())


class TestFallbackRules:
    """The split and the activation push run after the merges, on the
    concats the merges refuse; both still fire in the default pipeline."""

    def test_split_fires_on_unet_transpose(self):
        graph = decompose_graph(zoo_model("unet_transpose"), cheap("tucker"))
        optimized, report = optimize(graph)
        assert report.transforms.split_concats == 3
        assert report.transforms.merged_concats == 0
        assert_equivalent(graph, optimized, random_input(graph))

    def test_push_fires_on_a_random_cnn(self):
        graph = decompose_graph(random_cnn(6),
                                DecompositionConfig(ratio=0.25, hooi_iters=0))
        optimized, report = optimize(graph)
        assert report.transforms.pushed_acts == 2
        assert_equivalent(graph, optimized, random_input(graph))


class TestSplitConcat:
    def test_split_preserves_semantics(self):
        g = _two_branch_concat(act=False)
        before = g.clone("before")
        stats = split_concat_fconv(g)
        assert stats.split_concats == 1
        assert not any(n.op == "concat" for n in g.nodes)
        branch_convs = [n for n in g.nodes if "split_from" in n.attrs]
        assert len(branch_convs) == 2
        assert_equivalent(before, g, random_input(g), rtol=1e-4)

    def test_weight_slices_match_columns(self):
        g = _two_branch_concat(act=False)
        full = g.find_node("after").params["weight"].copy()
        split_concat_fconv(g)
        branches = sorted((n for n in g.nodes if "split_from" in n.attrs),
                          key=lambda n: n.name)
        np.testing.assert_array_equal(branches[0].params["weight"], full[:, :24])
        np.testing.assert_array_equal(branches[1].params["weight"], full[:, 24:])

    def test_never_splits_merged_lconv(self):
        g = _two_branch_concat(act=False)
        merge_lconv_concat(g)
        stats = split_concat_fconv(g)
        assert stats.split_concats == 0

    def test_multi_consumer_concat_not_split(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 4, 4, 4))
        cat = b.concat(b.relu(x), b.sigmoid(x))
        out1 = b.conv2d(cat, 2, 1)
        out2 = b.tanh(cat)
        g = b.finish(out1, out2)
        assert split_concat_fconv(g).split_concats == 0

    def test_binary_add_chain_bounds_liveness(self):
        """The split's accumulation must not hold all branches at once."""
        b = GraphBuilder("t", seed=3)
        x = b.input("x", (1, 4, 16, 16))
        branches = [b.conv2d(x, 16, 1, name=f"l{i}") for i in range(6)]
        cat = b.concat(*branches, name="wide")
        out = b.conv2d(cat, 8, 1, name="after")
        g = b.finish(out)
        before_peak = estimate_peak_internal(g)
        before = g.clone("before")
        split_concat_fconv(g)
        after_peak = estimate_peak_internal(g)
        assert after_peak < before_peak
        assert_equivalent(before, g, random_input(g), rtol=1e-4)


class TestPushActThroughConcat:
    def test_pushes_when_followed_by_pointwise(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 4, 4, 4))
        cat = b.concat(b.identity(x), b.identity(x))
        act = b.relu(cat)
        out = b.conv2d(act, 2, 1)
        g = b.finish(out)
        before = g.clone("before")
        stats = push_act_through_concat(g)
        assert stats.pushed_acts == 1
        # the concat's inputs are now relu outputs
        cat_node = next(n for n in g.nodes if n.op == "concat")
        assert all(g.producer_of(v).op == "relu" for v in cat_node.inputs)
        assert_equivalent(before, g, random_input(g))

    def test_not_pushed_without_pointwise_consumer(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 4, 4, 4))
        act = b.relu(b.concat(b.identity(x), b.identity(x)))
        g = b.finish(b.maxpool2d(act, 2))
        assert push_act_through_concat(g).pushed_acts == 0


class TestCommuteUpsample:
    def test_commutes_and_preserves_semantics(self):
        b = GraphBuilder("t", seed=4)
        x = b.input("x", (1, 4, 4, 4))
        l = b.conv2d(x, 16, 1, name="l")
        act = b.relu(l)
        up = b.upsample_nearest(act, 2, name="up")
        out = b.conv2d(up, 4, 1, name="after")
        g = b.finish(out)
        before = g.clone("before")
        stats = commute_upsample_lconv(g)
        assert stats.commuted_upsamples == 1
        # upsample now operates on the 4-channel reduced tensor
        up_node = next(n for n in g.nodes if n.op == "upsample_nearest")
        assert up_node.output.shape[1] == 4
        assert_equivalent(before, g, random_input(g), rtol=1e-4)

    def test_requires_restore_chain(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 4, 4, 4))
        up = b.upsample_nearest(b.relu(x), 2)
        g = b.finish(up)
        assert commute_upsample_lconv(g).commuted_upsamples == 0


def _gathered(g):
    """Gather ``g``'s concat-fed fused nodes under a tracer: ``(before,
    stats, decisions)``, ``before`` the graph as it was."""
    before = g.clone("before")
    tracer = Tracer()
    with use_tracer(tracer):
        stats = gather_concat_inputs(g)
    return before, stats, tracer.decisions_for("transform.gather")


def _bitwise_same(before, after):
    x = random_input(before)
    want, got = execute(before, x), execute(after, x)
    for old, new in zip(before.outputs, after.outputs, strict=True):
        assert got.outputs[new.name].tobytes() == \
            want.outputs[old.name].tobytes()
    assert got.memory.peak_internal_bytes == estimate_peak_internal(after)


class TestGatherConcat:
    """A fused kernel reads its concat's branches in place; an upsampled
    branch is read at its own resolution (ROADMAP item 18)."""

    def test_unet_decoder_stage(self):
        """``fconv(act(concat(lconv(skip), upsample(act(lconv(deep))))))``
        compiles to one fused kernel on ``skip`` and ``deep`` at factor 2:
        neither the concat nor the upsample is allocated."""
        b = GraphBuilder("t", seed=5)
        skip = b.relu(b.conv2d(b.input("skip", (2, 3, 8, 8)), 16, 1,
                               name="lconv_skip"))
        deep = b.relu(b.conv2d(b.input("deep", (2, 4, 4, 4)), 24, 1,
                               name="lconv_deep"))
        cat = b.concat(skip, b.upsample_nearest(deep, 2), name="cat")
        g = b.finish(b.conv2d(cat, 6, 1, name="fconv"))
        commute_upsample_lconv(g)
        merge_lconv_concat(g)
        fuse_activation_layers(g)
        before, stats, [decision] = _gathered(g)
        assert stats.gathered_concats == 1
        [fused] = g.nodes
        assert [v.name for v in fused.inputs] == ["skip", "deep"]
        assert fused.attrs["input_scales"] == [1, 2]
        assert ops.fused_input_shape(fused) == (2, 7, 8, 8)
        args = decision["args"]
        assert (args["verdict"], args["reason"]) == ("apply",
                                                     "concat_read_in_place")
        assert (args["branches"], args["upsampled_branches"]) == (2, 1)
        _bitwise_same(before, g)
        assert estimate_peak_internal(g) < estimate_peak_internal(before)

    def test_a_fused_upsample_multiplies_each_branch_factor(self):
        """A fused node that already reads its concat at factor 2 (a
        trailing upsample) reads each branch at its own factor times 2."""
        b = GraphBuilder("t", seed=5)
        low = b.input("low", (2, 2, 2, 2))
        cat = b.concat(b.input("x", (2, 3, 4, 4)),
                       b.upsample_nearest(low, 2), name="cat")
        up = b.upsample_nearest(b.relu(b.conv2d(cat, 24, 1, name="lconv")),
                                2)
        g = b.finish(b.conv2d(up, 6, 1, name="fconv"))
        fuse_activation_layers(g)
        before, stats, _ = _gathered(g)
        assert stats.gathered_concats == 1
        [fused] = g.nodes
        assert fused.attrs["input_scales"] == [2, 4]
        _bitwise_same(before, g)

    @pytest.mark.parametrize("act", [None, "relu", "sigmoid"])
    @pytest.mark.parametrize("upsampled", [False, True])
    def test_densenet_passthrough_concat(self, act, upsampled):
        """A pass-through branch is tile rows read from its input, which
        may be an upsample's input read at factor 2."""
        b = GraphBuilder("t", seed=6)
        x = b.input("x", (2, 6, 8, 8))
        carried = (b.upsample_nearest(b.input("lo", (2, 5, 4, 4)), 2)
                   if upsampled else b.maxpool2d(x, 1))
        cat = b.concat(carried, b.conv2d(x, 16, 1, name="lconv"),
                       name="cat")
        if act is not None:
            cat = getattr(b, act)(cat)
        g = b.finish(b.conv2d(cat, 4, 1, name="after"))
        merge_lconv_concat(g)
        fuse_activation_layers(g)
        before, stats, _ = _gathered(g)
        assert stats.gathered_concats == 1
        fused = next(n for n in g.nodes if n.op == "fused_block")
        assert ops.passthrough_runs(fused) == ((0, 0, 6 - upsampled),)
        assert fused.attrs["input_scales"] == [1 + upsampled, 1]
        assert not any(n.op in ("concat", "upsample_nearest") for n in g.nodes)
        _bitwise_same(before, g)

    @staticmethod
    def _fused_on_concat(b):
        """``fused_block(concat(skip, upsample(deep)))`` built by hand,
        with the concat and the upsample returned for other readers."""
        rng = np.random.default_rng(7)
        up = b.upsample_nearest(b.input("deep", (2, 4, 4, 4)), 2, name="up")
        cat = b.concat(b.input("skip", (2, 3, 8, 8)), up, name="cat")
        fused = make_node(
            b.graph, "fused_block", [cat],
            attrs={"act": "relu", "block_size": 8},
            params={"w1": rng.normal(size=(20, 7)).astype(np.float32),
                    "b1": rng.normal(size=20).astype(np.float32),
                    "w2": rng.normal(size=(5, 20)).astype(np.float32)},
            name="fused")
        b.graph.add_node(fused)
        return fused.output, cat, up

    @pytest.mark.parametrize("reader, reason", [
        ("second_consumer", "concat_shared"),
        ("graph_output", "concat_is_output")])
    def test_refuses_a_concat_read_elsewhere(self, reader, reason):
        b = GraphBuilder("t", seed=0)
        out, cat, _up = self._fused_on_concat(b)
        other = b.maxpool2d(cat, 1) if reader == "second_consumer" else cat
        g = b.finish(out, other)
        before, stats, [decision] = _gathered(g)
        assert stats.gathered_concats == 0
        args = decision["args"]
        assert (args["subject"], args["verdict"], args["reason"]) == (
            "cat", "skip", reason)
        assert [n.op for n in g.nodes] == [n.op for n in before.nodes]

    def test_shared_upsample_stays_a_plain_branch(self):
        b = GraphBuilder("t", seed=0)
        out, _cat, up = self._fused_on_concat(b)
        g = b.finish(out, b.maxpool2d(up, 1))
        before, stats, _ = _gathered(g)
        assert stats.gathered_concats == 1
        fused = next(n for n in g.nodes if n.op == "fused_block")
        assert [v.name for v in fused.inputs] == ["skip", up.name]
        assert fused.attrs["input_scales"] == [1, 1]
        assert any(n.op == "upsample_nearest" for n in g.nodes)
        _bitwise_same(before, g)


class TestGatherFuzz:
    """Generated U-Net encoder–decoder stages: the gather fires, the
    compile stays within the fuzz tolerance of the decomposed graph, and
    the planned peak is the measured one."""

    @pytest.mark.parametrize("seed", range(12))
    def test_fires_equivalent_and_peak_as_planned(self, seed):
        graph = decompose_graph(random_cnn(seed, encoder_decoder=True),
                                DecompositionConfig(ratio=0.25, hooi_iters=0))
        optimized, report = optimize(graph)
        assert report.transforms.gathered_concats >= 1
        assert any(2 in n.attrs.get("input_scales", ())
                   for n in optimized.nodes)
        inputs = random_input(graph)
        assert_equivalent(graph, optimized, inputs)
        run = execute(optimized, inputs)
        assert run.memory.peak_internal_bytes == estimate_peak_internal(
            optimized)
