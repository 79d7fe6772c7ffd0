"""Operation registry: shape inference, validation and FLOP counting.

Every op kind used by the model zoo and by TeMCO's rewrites is
registered here with three hooks:

``infer``
    Compute the output shape from input shapes + attrs.  Called by the
    graph builder so every :class:`~repro.ir.value.Value` carries a
    static shape (the paper's passes rely on shape inference: ``SIZE(v)``
    in Algorithm 1/2 is exactly ``value.nbytes``).
``validate``
    Structural checks (arity, attr presence, weight shape consistency).
``flops``
    Multiply–accumulate-based FLOP estimate, used by the ``Overhead``
    guard of skip-connection optimization (Algorithm 1, lines 1–9).

The decomposition-specific convolution *roles* are plain attrs:

- ``role="fconv"`` — leading 1×1 that reduces channels,
- ``role="core"`` — the small core convolution(s),
- ``role="lconv"`` — trailing 1×1 that restores channels.

TeMCO's ``IsLConv`` check (Algorithm 2) is structural and does not need
the attr, but the attr makes printed graphs and tests readable.

A merged lconv (Fig. 9a) and the fused node it anchors may carry a
``passthrough`` attr: ``[[out_row, in_col, width], ...]`` runs of output
channels that are input channels carried through unchanged (activated,
in a fused node).  The weight (``weight`` / ``w1``) then maps, in order,
the output rows outside the runs to the input columns outside them, and
the bias covers those restored rows only.

A fused node may read *k* inputs: its tile's input is their channel
concatenation, each input first nearest-upsampled by its factor in the
``input_scales`` attr (absent: one input, or every factor 1).  The
concat and the upsamples are never materialised; :func:`fused_input_shape`
gives the shape they would have.  It is the only way a fused node
upsamples: a fused chain's trailing upsample is a factor on its input.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

import numpy as np

from .dtype import DType
from .node import Node
from .value import Value

__all__ = [
    "OpSpec",
    "REGISTRY",
    "register",
    "get_spec",
    "infer_output",
    "validate_node",
    "node_flops",
    "conv_output_hw",
    "ACTIVATION_OPS",
    "UNARY_ELEMENTWISE_OPS",
    "POOL_OPS",
    "passthrough_runs",
    "tile_channels",
    "input_scales",
    "gathered_shape",
    "fused_input_shape",
]

#: Element-wise activation op kinds that activation-layer fusion can absorb.
ACTIVATION_OPS = ("relu", "silu", "sigmoid", "tanh",
                  "leaky_relu", "elu", "hardswish", "gelu")

#: Shape-preserving one-input element-wise op kinds — the ops that may
#: run in place on a dying input (:func:`repro.core.liveness.reuses_input_buffer`).
UNARY_ELEMENTWISE_OPS = ACTIVATION_OPS + ("identity", "dropout")

#: Pooling op kinds that activation-layer fusion can absorb.
POOL_OPS = ("maxpool2d", "avgpool2d")


@dataclasses.dataclass(frozen=True)
class OpSpec:
    """Registered behaviour of one op kind."""

    name: str
    infer: Callable[[Node], tuple[tuple[int, ...], DType]]
    validate: Callable[[Node], None]
    flops: Callable[[Node], int]


REGISTRY: dict[str, OpSpec] = {}


def register(name: str, infer, validate=None, flops=None) -> None:
    """Register an op kind (see module docstring for hook contracts)."""
    REGISTRY[name] = OpSpec(
        name=name,
        infer=infer,
        validate=validate or (lambda node: None),
        flops=flops or (lambda node: node.output.num_elements),
    )


def get_spec(op: str) -> OpSpec:
    try:
        return REGISTRY[op]
    except KeyError as exc:
        raise KeyError(f"unknown op kind {op!r}; registered: {sorted(REGISTRY)}") from exc


def infer_output(node: Node) -> tuple[tuple[int, ...], DType]:
    """Output (shape, dtype) for a node whose inputs already have shapes."""
    return get_spec(node.op).infer(node)


def validate_node(node: Node) -> None:
    """Run structural validation; raises ``ValueError`` on malformed nodes."""
    spec = get_spec(node.op)
    spec.validate(node)
    shape, dtype = spec.infer(node)
    if tuple(shape) != node.output.shape:
        raise ValueError(
            f"node {node.name!r} ({node.op}): output shape {node.output.shape} "
            f"does not match inferred {tuple(shape)}"
        )
    if dtype != node.output.dtype:
        raise ValueError(
            f"node {node.name!r} ({node.op}): output dtype {node.output.dtype} "
            f"does not match inferred {dtype}"
        )


def node_flops(node: Node) -> int:
    """FLOP estimate for one node (2 × MACs for matmul-like ops)."""
    return int(get_spec(node.op).flops(node))


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


def conv_output_hw(h: int, w: int, kernel, stride, padding, dilation=(1, 1)) -> tuple[int, int]:
    """Spatial output size of a convolution/pooling window."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    dh, dw = _pair(dilation)
    oh = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    ow = (w + 2 * pw - dw * (kw - 1) - 1) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"convolution window does not fit: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {sh}x{sw}, padding {ph}x{pw}, dilation {dh}x{dw}"
        )
    return oh, ow


def _require(cond: bool, node: Node, msg: str) -> None:
    if not cond:
        raise ValueError(f"node {node.name!r} ({node.op}): {msg}")


def _nchw(node: Node, value: Value) -> tuple[int, int, int, int]:
    _require(value.rank == 4, node, f"expected NCHW input, got shape {value.shape}")
    return value.shape  # type: ignore[return-value]


def passthrough_runs(node: Node) -> tuple[tuple[int, int, int], ...]:
    """A merged lconv's (or its fused node's) ``(out_row, in_col, width)``
    pass-through runs, in output order; empty for every other node."""
    return tuple((int(o), int(i), int(k))
                 for o, i, k in node.attrs.get("passthrough") or ())


def _passthrough_width(node: Node) -> int:
    runs = node.attrs.get("passthrough")  # read on every shape inference
    return sum(int(run[2]) for run in runs) if runs else 0


def _carried(width: int) -> str:
    """The pass-through term of a channel-count error message."""
    return f" + {width} pass-through" if width else ""


def tile_channels(node: Node) -> int:
    """``C'`` of a fused node: the rows of its tile, ``w1``'s restored
    rows plus its pass-through rows."""
    return int(node.params["w1"].shape[0]) + _passthrough_width(node)


def input_scales(node: Node) -> tuple[int, ...]:
    """A fused node's per-input nearest-upsample factors (1: none)."""
    scales = node.attrs.get("input_scales")
    return (tuple(int(s) for s in scales) if scales
            else (1,) * len(node.inputs))


def gathered_shape(shapes, scales) -> tuple[int, int, int, int]:
    """The NCHW shape of the channel concat of arrays of ``shapes``, each
    nearest-upsampled by its factor in ``scales``; ``ValueError`` if they
    do not line up."""
    if len(shapes) != len(scales) or not shapes:
        raise ValueError(f"{len(shapes)} inputs, {len(scales)} scales")
    planes = set()
    for shape, scale in zip(shapes, scales):
        if len(shape) != 4 or scale < 1:
            raise ValueError(f"input {tuple(shape)} at scale {scale}: "
                             f"expected NCHW and a scale >= 1")
        planes.add((shape[0], shape[2] * scale, shape[3] * scale))
    if len(planes) != 1:
        raise ValueError(f"inputs {[tuple(s) for s in shapes]} at scales "
                         f"{list(scales)} differ in batch or plane")
    (n, h, w), = planes
    return n, sum(int(shape[1]) for shape in shapes), h, w


def fused_input_shape(node: Node) -> tuple[int, int, int, int]:
    """The shape of a fused node's tile input: its inputs gathered."""
    try:
        return gathered_shape([v.shape for v in node.inputs],
                              input_scales(node))
    except ValueError as exc:
        raise ValueError(f"node {node.name!r} ({node.op}): {exc}") from None


def _validate_passthrough(node: Node, rows: int, cols: int) -> None:
    """Runs lie inside the ``rows x cols`` merged matrix, in increasing
    order along both axes, without overlap."""
    out_end = in_end = 0
    for out_row, in_col, width in passthrough_runs(node):
        _require(width > 0 and out_row >= out_end and in_col >= in_end, node,
                 f"pass-through run {[out_row, in_col, width]} is empty, "
                 f"overlaps or is out of order")
        out_end, in_end = out_row + width, in_col + width
    _require(out_end <= rows and in_end <= cols, node,
             f"pass-through runs end at row {out_end} / column {in_end}, "
             f"past {rows} x {cols}")


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

def _conv2d_infer(node: Node):
    n, c, h, w = _nchw(node, node.input)
    weight = node.params["weight"]
    cout, cin_g, kh, kw = weight.shape
    groups = int(node.attrs.get("groups", 1))
    carried = _passthrough_width(node)
    _require(c == cin_g * groups + carried, node,
             f"input channels {c} != weight in-channels {cin_g} * groups {groups}"
             f"{_carried(carried)}")
    oh, ow = conv_output_hw(h, w, (kh, kw), node.attrs.get("stride", 1),
                            node.attrs.get("padding", 0), node.attrs.get("dilation", 1))
    return (n, cout + carried, oh, ow), node.input.dtype


def _conv2d_validate(node: Node) -> None:
    _require(len(node.inputs) == 1, node, "conv2d takes one input")
    _require("weight" in node.params, node, "missing 'weight' param")
    weight = node.params["weight"]
    _require(weight.ndim == 4, node, f"weight must be 4D, got {weight.shape}")
    groups = int(node.attrs.get("groups", 1))
    _require(weight.shape[0] % groups == 0, node,
             f"out-channels {weight.shape[0]} not divisible by groups {groups}")
    bias = node.params.get("bias")
    if bias is not None:
        _require(bias.shape == (weight.shape[0],), node,
                 f"bias shape {bias.shape} != ({weight.shape[0]},)")
    if node.attrs.get("passthrough"):
        _require(weight.shape[2:] == (1, 1) and groups == 1, node,
                 "pass-through runs need an ungrouped 1x1 conv")
        carried = _passthrough_width(node)
        _validate_passthrough(node, weight.shape[0] + carried,
                              weight.shape[1] + carried)


def _conv2d_flops(node: Node) -> int:
    """Pass-through rows are a copy: no FLOPs."""
    weight = node.params["weight"]
    cout, cin_g, kh, kw = weight.shape
    n, _, oh, ow = node.output.shape
    return 2 * n * cout * oh * ow * cin_g * kh * kw


register("conv2d", _conv2d_infer, _conv2d_validate, _conv2d_flops)


def _conv_transpose2d_infer(node: Node):
    n, c, h, w = _nchw(node, node.input)
    weight = node.params["weight"]  # (Cin, Cout/groups, Kh, Kw)
    cin, cout_g, kh, kw = weight.shape
    groups = int(node.attrs.get("groups", 1))
    _require(c == cin, node, f"input channels {c} != weight in-channels {cin}")
    sh, sw = _pair(node.attrs.get("stride", 1))
    ph, pw = _pair(node.attrs.get("padding", 0))
    oph, opw = _pair(node.attrs.get("output_padding", 0))
    oh = (h - 1) * sh - 2 * ph + kh + oph
    ow = (w - 1) * sw - 2 * pw + kw + opw
    return (n, cout_g * groups, oh, ow), node.input.dtype


def _conv_transpose2d_validate(node: Node) -> None:
    _require(len(node.inputs) == 1, node, "conv_transpose2d takes one input")
    _require("weight" in node.params, node, "missing 'weight' param")
    _require(node.params["weight"].ndim == 4, node, "weight must be 4D")


def _conv_transpose2d_flops(node: Node) -> int:
    weight = node.params["weight"]
    cin, cout_g, kh, kw = weight.shape
    n, _, h, w = node.input.shape
    return 2 * n * cin * h * w * cout_g * kh * kw


register("conv_transpose2d", _conv_transpose2d_infer, _conv_transpose2d_validate,
         _conv_transpose2d_flops)


def _linear_infer(node: Node):
    x = node.input
    _require(x.rank == 2, node, f"linear expects 2D input, got {x.shape}")
    weight = node.params["weight"]
    _require(x.shape[1] == weight.shape[1], node,
             f"input features {x.shape[1]} != weight in-features {weight.shape[1]}")
    return (x.shape[0], weight.shape[0]), x.dtype


def _linear_validate(node: Node) -> None:
    _require(len(node.inputs) == 1, node, "linear takes one input")
    _require("weight" in node.params and node.params["weight"].ndim == 2, node,
             "linear requires a 2D 'weight' param")


def _linear_flops(node: Node) -> int:
    weight = node.params["weight"]
    return 2 * node.input.shape[0] * weight.shape[0] * weight.shape[1]


register("linear", _linear_infer, _linear_validate, _linear_flops)


# ---------------------------------------------------------------------------
# activations & elementwise
# ---------------------------------------------------------------------------

def _unary_same_shape(node: Node):
    return node.input.shape, node.input.dtype


def _unary_validate(node: Node) -> None:
    _require(len(node.inputs) == 1, node, "expects exactly one input")


for _act in UNARY_ELEMENTWISE_OPS:
    register(_act, _unary_same_shape, _unary_validate)


def _softmax_infer(node: Node):
    return node.input.shape, node.input.dtype


register("softmax", _softmax_infer, _unary_validate)


def _add_infer(node: Node):
    shape = node.inputs[0].shape
    for v in node.inputs[1:]:
        if v.shape != shape:
            raise ValueError(f"node {node.name!r}: add operands differ: {shape} vs {v.shape}")
    return shape, node.inputs[0].dtype


def _add_validate(node: Node) -> None:
    _require(len(node.inputs) >= 2, node, "add takes >= 2 inputs")


register("add", _add_infer, _add_validate,
         flops=lambda node: node.output.num_elements * (len(node.inputs) - 1))


def _concat_infer(node: Node):
    axis = int(node.attrs.get("axis", 1))
    base = list(node.inputs[0].shape)
    for v in node.inputs[1:]:
        other = list(v.shape)
        if len(other) != len(base):
            raise ValueError(f"node {node.name!r}: concat rank mismatch")
        for i, (a, b) in enumerate(zip(base, other)):
            if i != axis and a != b:
                raise ValueError(
                    f"node {node.name!r}: concat non-axis dim {i} mismatch: {a} vs {b}")
        base[axis] += other[axis]
    return tuple(base), node.inputs[0].dtype


def _concat_validate(node: Node) -> None:
    _require(len(node.inputs) >= 2, node, "concat takes >= 2 inputs")
    axis = int(node.attrs.get("axis", 1))
    _require(0 <= axis < node.inputs[0].rank, node, f"bad concat axis {axis}")


register("concat", _concat_infer, _concat_validate,
         flops=lambda node: 0)


# ---------------------------------------------------------------------------
# pooling / resampling / reshaping
# ---------------------------------------------------------------------------

def _pool_infer(node: Node):
    n, c, h, w = _nchw(node, node.input)
    kernel = node.attrs["kernel"]
    stride = node.attrs.get("stride", kernel)
    padding = node.attrs.get("padding", 0)
    oh, ow = conv_output_hw(h, w, kernel, stride, padding)
    return (n, c, oh, ow), node.input.dtype


def _pool_validate(node: Node) -> None:
    _require(len(node.inputs) == 1, node, "pooling takes one input")
    _require("kernel" in node.attrs, node, "missing 'kernel' attr")


def _pool_flops(node: Node) -> int:
    kh, kw = _pair(node.attrs["kernel"])
    return node.output.num_elements * kh * kw


register("maxpool2d", _pool_infer, _pool_validate, _pool_flops)
register("avgpool2d", _pool_infer, _pool_validate, _pool_flops)


def _global_avgpool_infer(node: Node):
    n, c, _h, _w = _nchw(node, node.input)
    return (n, c, 1, 1), node.input.dtype


register("global_avgpool", _global_avgpool_infer, _unary_validate,
         flops=lambda node: node.input.num_elements)


def _upsample_infer(node: Node):
    n, c, h, w = _nchw(node, node.input)
    scale = int(node.attrs.get("scale", 2))
    return (n, c, h * scale, w * scale), node.input.dtype


def _upsample_validate(node: Node) -> None:
    _unary_validate(node)
    _require(int(node.attrs.get("scale", 2)) >= 1, node, "scale must be >= 1")


register("upsample_nearest", _upsample_infer, _upsample_validate,
         flops=lambda node: node.output.num_elements)


def _flatten_infer(node: Node):
    x = node.input
    start = int(node.attrs.get("start_dim", 1))
    _require(0 <= start < x.rank, node, f"bad start_dim {start}")
    tail = 1
    for d in x.shape[start:]:
        tail *= d
    return x.shape[:start] + (tail,), x.dtype


register("flatten", _flatten_infer, _unary_validate, flops=lambda node: 0)


def _batchnorm_infer(node: Node):
    n, c, h, w = _nchw(node, node.input)
    _require(node.params["gamma"].shape == (c,), node,
             f"gamma shape {node.params['gamma'].shape} != ({c},)")
    return (n, c, h, w), node.input.dtype


def _batchnorm_validate(node: Node) -> None:
    _require(len(node.inputs) == 1, node, "batchnorm takes one input")
    for p in ("gamma", "beta", "mean", "var"):
        _require(p in node.params, node, f"missing {p!r} param")


register("batchnorm2d", _batchnorm_infer, _batchnorm_validate,
         flops=lambda node: 2 * node.output.num_elements)


# ---------------------------------------------------------------------------
# fused block (Listing 1 analog)
# ---------------------------------------------------------------------------

def _fused_reduce(node: Node) -> np.ndarray | None:
    """A fused block's ``(R_out, C')`` fconv reduce matrix ``w2``; None
    for a restore."""
    return node.params["w2"] if node.op == "fused_block" else None


def _fused_infer(node: Node):
    """A block's ``R_out`` or a restore's ``C'`` channels, at the tile
    input's plane, pooled if the node pools."""
    n, c, h, w = fused_input_shape(node)
    w1 = node.params["w1"]  # (C', R_in) lconv restore matrix, restored rows
    carried = _passthrough_width(node)
    _require(w1.shape[1] + carried == c, node,
             f"input channels {c} != w1 in-channels {w1.shape[1]}"
             f"{_carried(carried)}")
    channels = w1.shape[0] + carried
    w2 = _fused_reduce(node)
    if w2 is not None:
        _require(w2.shape[1] == channels, node,
                 f"w2 in-channels {w2.shape[1]} != w1 out-channels "
                 f"{w1.shape[0]}{_carried(carried)}")
        channels = w2.shape[0]
    pool = node.attrs.get("pool")
    if pool is not None:
        h, w = conv_output_hw(h, w, pool["kernel"],
                              pool.get("stride", pool["kernel"]),
                              pool.get("padding", 0))
    return (n, channels, h, w), node.inputs[0].dtype


def _fused_validate(node: Node) -> None:
    _require(len(node.inputs) >= 1, node, "takes at least one input")
    _require(len({v.dtype for v in node.inputs}) == 1, node,
             "inputs differ in dtype")
    for p in ("w1", "w2") if node.op == "fused_block" else ("w1",):
        _require(p in node.params and node.params[p].ndim == 2, node,
                 f"{node.op} requires 2D {p!r} param")
    act = node.attrs.get("act")
    _require(act is None or act in ACTIVATION_OPS, node, f"bad act {act!r}")
    pool = node.attrs.get("pool")
    if pool is not None:
        _require(pool.get("kind") in ("max", "avg"), node, f"bad pool kind {pool}")
        _require("kernel" in pool, node, "pool config missing 'kernel'")
    if node.op == "fused_restore":
        _require(act is not None or pool is not None
                 or max(input_scales(node)) > 1, node,
                 "fused_restore must absorb at least one layer beyond the "
                 "lconv")
    if node.attrs.get("passthrough"):
        w1, carried = node.params["w1"], _passthrough_width(node)
        _validate_passthrough(node, w1.shape[0] + carried,
                              w1.shape[1] + carried)


def _fused_flops(node: Node) -> int:
    """The restored rows' GEMM and one activation op per tile element
    (restored or passed through), at the tile input's plane, plus a
    block's fconv GEMM at its output's."""
    w1 = node.params["w1"]
    n, _, h, w = fused_input_shape(node)
    cprime = tile_channels(node)
    flops = 2 * n * h * w * w1.shape[0] * w1.shape[1] + n * h * w * cprime
    w2 = _fused_reduce(node)
    if w2 is not None:
        _, _, oh, ow = node.output.shape
        flops += 2 * n * oh * ow * w2.shape[0] * cprime
    return flops


register("fused_block", _fused_infer, _fused_validate, _fused_flops)
register("fused_restore", _fused_infer, _fused_validate, _fused_flops)


# ---------------------------------------------------------------------------
# structural predicates shared by TeMCO passes
# ---------------------------------------------------------------------------

def is_pointwise_conv(node: Node) -> bool:
    """True for 1×1 stride-1 ungrouped convolutions."""
    if node.op != "conv2d":
        return False
    weight = node.params["weight"]
    return (weight.shape[2] == 1 and weight.shape[3] == 1
            and _pair(node.attrs.get("stride", 1)) == (1, 1)
            and _pair(node.attrs.get("padding", 0)) == (0, 0)
            and int(node.attrs.get("groups", 1)) == 1)


def is_lconv(node: Node) -> bool:
    """Paper Algorithm 2 ``IsLConv``: 1×1 stride-1 conv that *increases*
    the channel count — the restore convolution of a decomposed sequence."""
    if not is_pointwise_conv(node):
        return False
    weight = node.params["weight"]
    return weight.shape[0] > weight.shape[1]


def is_fconv(node: Node) -> bool:
    """Dual of :func:`is_lconv`: 1×1 stride-1 conv that *reduces* channels."""
    if not is_pointwise_conv(node):
        return False
    weight = node.params["weight"]
    return weight.shape[0] < weight.shape[1]
