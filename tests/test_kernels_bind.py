"""Kernels bound once per node: what a session runs.

`kernels.bind(node)` resolves a node's attrs, geometry and weights into
a closure that a `Schedule` keeps for every run.  The bound kernel must
answer what a fresh `run_node` answers, bit for bit, on every call —
nothing of one call may leak into the next — in float32 and in the
float64 `core.equivalence` re-runs graphs in; one session must serve
several threads at once; and a session binds each node exactly once.
"""

import sys
import threading

import numpy as np
import pytest

from repro import kernels
from repro.core import estimate_peak_internal, optimize
from repro.ir import Node, Value
from repro.ir.dtype import DType
from repro.ir.ops import ACTIVATION_OPS, REGISTRY, infer_output
from repro.plan import plan_memory
from repro.runtime import InferenceSession

from _graph_fixtures import random_input
from test_kernels_conv import CLASSES
from test_kernels_fused import VARIANTS

#: non-default attrs of the activations that take any
ACT_PARAMS = {"leaky_relu": {"negative_slope": 0.2}, "elu": {"alpha": 0.5}}


def _node(op, in_shapes, dtype, attrs=None, seed=0, **param_shapes):
    """A one-node graph's node: inputs of ``in_shapes``, weights drawn
    at ``param_shapes`` in ``dtype``, the output shape inferred."""
    rng = np.random.default_rng(seed)
    ir_dtype = DType.from_numpy(dtype)
    inputs = [Value(f"x{i}", shape, ir_dtype)
              for i, shape in enumerate(in_shapes)]
    params = {key: rng.uniform(0.5, 1.5, size=shape).astype(dtype)
              for key, shape in param_shapes.items()}
    node = Node(op, op, inputs, Value("y", (1,), ir_dtype),
                attrs=dict(attrs or {}), params=params)
    shape, out_dtype = infer_output(node)
    node.output = Value("y", shape, out_dtype, producer=op)
    return node


def _conv_cases():
    cases = {}
    for name, (chw, wshape, stride, padding, groups, dilation) in CLASSES.items():
        cases[f"conv2d/{name}"] = lambda dtype, chw=chw, wshape=wshape, \
            attrs=dict(stride=stride, padding=padding, groups=groups,
                       dilation=dilation): _node(
                "conv2d", [(2, *chw)], dtype, attrs, weight=wshape,
                bias=(wshape[0],))
    for bias in (True, False):
        extra = {"bias": (7,)} if bias else {}
        cases[f"conv2d/pointwise/bias={bias}"] = lambda dtype, extra=extra: \
            _node("conv2d", [(2, 5, 6, 6)], dtype, weight=(7, 5, 1, 1),
                  **extra)
    cases["conv_transpose2d/3x3/s2/p1/op1"] = lambda dtype: _node(
        "conv_transpose2d", [(2, 4, 5, 5)], dtype,
        dict(stride=(2, 2), padding=(1, 1), output_padding=(1, 1)),
        weight=(4, 3, 3, 3), bias=(3,))
    cases["conv_transpose2d/2x2/s2"] = lambda dtype: _node(
        "conv_transpose2d", [(2, 4, 5, 5)], dtype, dict(stride=(2, 2)),
        weight=(4, 3, 2, 2))
    return cases


def _fused_cases():
    cases = {}
    biases = {"b1+b2": ("b1", "b2"), "b1": ("b1",), "b2": ("b2",), "none": ()}
    for variant, extra in VARIANTS.items():
        for label, keys in biases.items():
            cases[f"fused_block/{variant}/{label}"] = \
                lambda dtype, extra=extra, keys=keys: _fused(
                    "fused_block", dtype, "relu", extra, keys)
        for label in ("b1", "none"):
            cases[f"fused_restore/{variant}/{label}"] = \
                lambda dtype, extra=extra, keys=biases[label]: _fused(
                    "fused_restore", dtype, "silu", extra, keys)
    for act in ACTIVATION_OPS:
        cases[f"fused_block/act={act}"] = lambda dtype, act=act: _fused(
            "fused_block", dtype, act, {}, ("b1", "b2"))
        cases[f"fused_restore/act={act}"] = lambda dtype, act=act: _fused(
            "fused_restore", dtype, act, {"pool": VARIANTS["avgpool"]["pool"]},
            ("b1",))
    cases["fused_block/act=None"] = lambda dtype: _fused(
        "fused_block", dtype, None, {}, ("b1", "b2"))
    return cases


def _fused(op, dtype, act, extra, biases):
    """C' = 12 in blocks of 5 (the last one short) over an 8x8 plane;
    a variant's input factor is the node's ``input_scales``."""
    attrs = {"input_scales" if key == "scales" else key: value
             for key, value in extra.items()}
    attrs.update(act=act, block_size=5)
    if act in ACT_PARAMS:
        attrs["act_params"] = ACT_PARAMS[act]
    shapes = {"w1": (12, 3), "b1": (12,), "w2": (4, 12), "b2": (4,)}
    keys = ["w1"] + (["w2"] if op == "fused_block" else []) + list(biases)
    if op == "fused_restore" and "b2" in keys:
        keys.remove("b2")
    return _node(op, [(2, 3, 8, 8)], dtype, attrs,
                 **{key: shapes[key] for key in keys})


def _other_cases():
    nchw = [(2, 5, 6, 6)]
    cases = {
        f"{op}/{'attrs' if op in ACT_PARAMS else 'plain'}":
            lambda dtype, op=op: _node(op, nchw, dtype, ACT_PARAMS.get(op))
        for op in ACTIVATION_OPS}
    cases.update({
        "linear/bias": lambda dtype: _node(
            "linear", [(3, 7)], dtype, weight=(5, 7), bias=(5,)),
        "linear/no_bias": lambda dtype: _node(
            "linear", [(3, 7)], dtype, weight=(5, 7)),
        "batchnorm2d/eps": lambda dtype: _node(
            "batchnorm2d", nchw, dtype, {"eps": 1e-3}, gamma=(5,), beta=(5,),
            mean=(5,), var=(5,)),
        "maxpool2d/3s2p1": lambda dtype: _node(
            "maxpool2d", nchw, dtype,
            {"kernel": (3, 3), "stride": (2, 2), "padding": (1, 1)}),
        "maxpool2d/2": lambda dtype: _node(
            "maxpool2d", nchw, dtype, {"kernel": (2, 2)}),
        "avgpool2d/2": lambda dtype: _node(
            "avgpool2d", nchw, dtype, {"kernel": (2, 2)}),
        "avgpool2d/3s1p1": lambda dtype: _node(
            "avgpool2d", nchw, dtype,
            {"kernel": (3, 3), "stride": (1, 1), "padding": (1, 1)}),
        "global_avgpool": lambda dtype: _node("global_avgpool", nchw, dtype),
        "upsample_nearest/3": lambda dtype: _node(
            "upsample_nearest", nchw, dtype, {"scale": 3}),
        "flatten": lambda dtype: _node("flatten", nchw, dtype),
        "softmax/axis=1": lambda dtype: _node(
            "softmax", [(3, 11)], dtype, {"axis": 1}),
        "identity": lambda dtype: _node("identity", nchw, dtype),
        "dropout": lambda dtype: _node("dropout", nchw, dtype),
        "add/3": lambda dtype: _node("add", nchw * 3, dtype),
        "concat/3": lambda dtype: _node(
            "concat", [(2, 5, 6, 6), (2, 2, 6, 6), (2, 3, 6, 6)], dtype,
            {"axis": 1}),
    })
    return cases


CASES = {**_conv_cases(), **_fused_cases(), **_other_cases()}


def _spelled_out(node, xs):
    """The node's kernel called with its attrs read out at the call —
    the per-call form a bound kernel replaces, kept as the oracle that
    the binder table maps every attr."""
    a, p, x = node.attrs, node.params, xs[0]
    op = node.op
    if op == "conv2d":
        return kernels.conv2d(x, p["weight"], p.get("bias"),
                              a.get("stride", (1, 1)), a.get("padding", (0, 0)),
                              int(a.get("groups", 1)), a.get("dilation", (1, 1)))
    if op == "conv_transpose2d":
        return kernels.conv_transpose2d(
            x, p["weight"], p.get("bias"), a.get("stride", (1, 1)),
            a.get("padding", (0, 0)), a.get("output_padding", (0, 0)))
    if op == "linear":
        return kernels.linear(x, p["weight"], p.get("bias"))
    if op == "batchnorm2d":
        return kernels.batchnorm2d(x, p["gamma"], p["beta"], p["mean"],
                                   p["var"], eps=a.get("eps", 1e-5))
    if op in ("maxpool2d", "avgpool2d"):
        pool = kernels.maxpool2d if op == "maxpool2d" else kernels.avgpool2d
        return pool(x, a["kernel"], a.get("stride", a["kernel"]),
                    a.get("padding", 0))
    if op == "global_avgpool":
        return kernels.global_avgpool(x)
    if op == "upsample_nearest":
        return kernels.upsample_nearest(x, a.get("scale", 2))
    if op == "flatten":
        return x.reshape(node.output.shape)
    if op == "softmax":
        return kernels.softmax(x, a.get("axis", 1))
    if op in ("identity", "dropout"):
        return x
    if op == "add":
        return sum(xs[1:], xs[0])
    if op == "concat":
        return np.concatenate(xs, axis=a.get("axis", 1))
    if op in ACTIVATION_OPS:
        return kernels.get_activation(op, **ACT_PARAMS.get(op, {}))(x)
    if a.get("input_scales"):  # the kernel on the materialised upsample
        x = kernels.upsample_nearest(x, a["input_scales"][0])
    kwargs = dict(act=a.get("act"), pool=a.get("pool"),
                  block_size=a["block_size"], act_params=a.get("act_params"))
    if op == "fused_block":
        return kernels.fused_block(x, p["w1"], p.get("b1"), p["w2"],
                                   p.get("b2"), **kwargs)
    return kernels.fused_restore(x, p["w1"], p.get("b1"), **kwargs)


def test_the_cases_cover_every_op():
    assert {build(np.float32).op for build in CASES.values()} == set(REGISTRY)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(CASES))
def test_bound_kernel_is_run_node_bitwise_on_every_call(name, dtype):
    node = CASES[name](dtype)
    rng = np.random.default_rng(7)
    first, second = ([rng.standard_normal(v.shape).astype(dtype)
                      for v in node.inputs] for _ in range(2))
    kernel = kernels.bind(node)
    answers = []
    for inputs in (first, second, first):
        got = kernel(inputs)
        want = kernels.run_node(node, inputs)
        assert got.shape == node.output.shape
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == _spelled_out(node, inputs).tobytes()
        answers.append(got.tobytes())
    assert answers[0] == answers[2]


def _budgeted_wavenet(decomposed):
    graph, _ = optimize(decomposed("wavenet2d", 16))
    plan = plan_memory(graph, int(0.8 * estimate_peak_internal(graph)))
    assert plan.spills
    return graph, plan


@pytest.mark.parametrize("budgeted", [False, True], ids=["free", "budgeted"])
def test_one_session_serves_four_threads_at_once(decomposed, budgeted):
    if budgeted:
        graph, plan = _budgeted_wavenet(decomposed)
    else:
        graph, plan = optimize(decomposed("unet_small", 16, batch=2))[0], None
    session = InferenceSession(graph, memory_plan=plan)
    rng = np.random.default_rng(11)
    payloads = [rng.standard_normal(graph.inputs[0].shape).astype(np.float32)
                for _ in range(6)]
    serial = [session.run(x).output().tobytes() for x in payloads]
    barrier = threading.Barrier(4)
    answers, errors = {}, []

    def worker(k):
        try:
            barrier.wait(timeout=30)
            for rep in range(3):
                for i in (range(6) if k % 2 else reversed(range(6))):
                    answers[k, rep, i] = session.run(
                        payloads[i]).output().tobytes()
        except Exception as exc:  # surfaced below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads within a kernel
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(answers) == 4 * 3 * 6
    assert all(out == serial[i] for (_k, _rep, i), out in answers.items())


def test_a_session_binds_each_node_once(decomposed, monkeypatch):
    """Construction binds every node; runs — budgeted ones included —
    only call what was bound."""
    graph, plan = _budgeted_wavenet(decomposed)
    bound = []
    bind = kernels.bind

    def counting(node):
        bound.append(node.name)
        return bind(node)

    monkeypatch.setattr(kernels, "bind", counting)
    session = InferenceSession(graph, memory_plan=plan)
    assert sorted(bound) == sorted(node.name for node in graph.nodes)
    inputs = random_input(graph)
    first = session.run(inputs)
    second = session.run(inputs)
    assert len(bound) == len(graph.nodes)
    assert first.memory.plan_stats.spills == len(plan.spills) > 0
    assert first.output().tobytes() == second.output().tobytes()
