"""The transforms that move an activation keep its attrs.

``merge_lconv_concat`` (the merged activation), ``push_act_through_concat``
(the per-branch activations) and ``commute_upsample_lconv`` (the moved
activation) once rebuilt it from its op name alone, so ``leaky_relu``'s
``negative_slope`` and ``elu``'s ``alpha`` fell back to their defaults,
and the concat merge took branches for "sharing the activation" on the
op name alone.  Every case below failed before the fix; the DenseNet
block's optimized outputs were off by 0.138 on outputs of about 1.0.
"""

from repro.core import (assert_equivalent, commute_upsample_lconv,
                        compare_graphs, merge_lconv_concat, optimize,
                        push_act_through_concat)
from repro.decompose import DecompositionConfig, decompose_graph
from repro.ir import GraphBuilder

from _fuzz import random_cnn
from _graph_fixtures import random_input


def _act(b, kind, h):
    op, value = kind
    if op == "leaky_relu":
        return b.leaky_relu(h, negative_slope=value)
    return b.elu(h, alpha=value)


def _merge_graph(act_a, act_b):
    b = GraphBuilder("t", seed=5)
    x = b.input("x", (2, 6, 8, 8))
    left = _act(b, act_a, b.conv2d(x, 24, 1, name="lconv_a"))
    right = _act(b, act_b, b.conv2d(x, 16, 1, name="lconv_b"))
    return b.finish(b.conv2d(b.concat(left, right), 5, 1, name="after"))


def _rewritten(graph, transform):
    before = graph.clone("before")
    stats = transform(graph)
    return before, stats


def test_push_through_keeps_the_slope():
    b = GraphBuilder("t", seed=0)
    x = b.input("x", (2, 4, 6, 6))
    cat = b.concat(b.conv2d(x, 4, 3, padding=1), b.conv2d(x, 4, 3, padding=1))
    g = b.finish(b.conv2d(b.leaky_relu(cat, negative_slope=0.3), 3, 1))
    before, stats = _rewritten(g, push_act_through_concat)
    assert stats.pushed_acts == 1
    assert {n.attrs.get("negative_slope") for n in g.nodes
            if n.op == "leaky_relu"} == {0.3}
    assert_equivalent(before, g, random_input(g))


def test_merge_keeps_the_shared_alpha():
    g = _merge_graph(("elu", 0.5), ("elu", 0.5))
    before, stats = _rewritten(g, merge_lconv_concat)
    assert stats.merged_concats == 1
    (elu,) = [n for n in g.nodes if n.op == "elu"]
    assert elu.attrs == {"alpha": 0.5}
    assert_equivalent(before, g, random_input(g))


def test_merge_refuses_branches_whose_slopes_differ():
    g = _merge_graph(("leaky_relu", 0.1), ("leaky_relu", 0.4))
    before, stats = _rewritten(g, merge_lconv_concat)
    assert stats.merged_concats == 0
    assert_equivalent(before, g, random_input(g))


def test_upsample_commute_keeps_the_slope():
    b = GraphBuilder("t", seed=4)
    x = b.input("x", (2, 4, 4, 4))
    h = b.leaky_relu(b.conv2d(x, 16, 1, name="l"), negative_slope=0.2)
    g = b.finish(b.conv2d(b.upsample_nearest(h, 2), 4, 1, name="after"))
    before, stats = _rewritten(g, commute_upsample_lconv)
    assert stats.commuted_upsamples == 1
    assert_equivalent(before, g, random_input(g))


def test_densenet_block_end_to_end():
    """Five convs, ``leaky_relu(0.2)`` throughout, Tucker at 0.25: the
    composite ``concat → leaky → 1×1`` pushes its activation through."""
    b = GraphBuilder("dense", seed=0)
    x = b.input("x", (2, 16, 16, 16))
    leaky = lambda h: b.leaky_relu(h, negative_slope=0.2)  # noqa: E731
    h1 = leaky(b.conv2d(x, 32, 3, padding=1))
    h2 = leaky(b.conv2d(h1, 32, 3, padding=1))
    h = b.conv2d(leaky(b.concat(x, h1, h2)), 32, 1)
    h = leaky(b.conv2d(h, 32, 3, padding=1))
    g = b.finish(b.conv2d(h, 32, 3, padding=1))
    decomposed = decompose_graph(g, DecompositionConfig(ratio=0.25))
    optimized, report = optimize(decomposed)
    assert report.transforms.pushed_acts == 1
    assert_equivalent(decomposed, optimized, random_input(decomposed))


def test_fuzz_seed_9_preserves_semantics():
    """The first seed of ``test_pipeline_preserves_semantics_on_random_cnns``
    that failed once the fuzzer drew slopes, alphas and the composite and
    decoder blocks (an ``elu`` pushed through a DenseNet concat)."""
    dg = decompose_graph(random_cnn(9), DecompositionConfig(ratio=0.3))
    opt, report = optimize(dg)
    assert report.transforms.pushed_acts and report.transforms.commuted_upsamples
    assert compare_graphs(dg, opt, random_input(dg, 9)).within(rtol=3e-3,
                                                               atol=1e-5)
