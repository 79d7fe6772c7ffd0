"""Backward (VJP) kernels for every trainable IR op.

Each function maps ``(node, input arrays, output array, grad_output)``
to ``(input gradients, param gradients)``.  Gradients are exact
vector–Jacobian products, validated against central finite differences
in the test suite.

Training happens on the *decomposed* model, before TeMCO optimization —
matching the paper's workflow (§4.4: decompose, train, then optimize
for inference).  Fused ops therefore have no backward; requesting one
raises with a pointer to that workflow.
"""

from __future__ import annotations

import numpy as np

from ..ir.node import Node
from ..kernels import conv2d, pad2d, pair, sliding_windows
from ..kernels.activation import sigmoid as _sigmoid

__all__ = ["BACKWARD", "backward_node", "UntrainableOpError"]


class UntrainableOpError(NotImplementedError):
    """Raised for ops without a backward (fused inference-only kernels)."""


# ---------------------------------------------------------------------------
# convolution family
# ---------------------------------------------------------------------------

def _conv2d_grad_input(grad_y: np.ndarray, weight: np.ndarray, x_shape,
                       stride, padding, groups: int) -> np.ndarray:
    """∂L/∂x of a convolution: transposed convolution of grad_y."""
    n, c, h, w = x_shape
    cout, cin_g, kh, kw = weight.shape
    sh, sw = pair(stride)
    ph, pw = pair(padding)
    # zero-stuff grad_y by stride, then correlate with the flipped kernel
    oh, ow = grad_y.shape[2], grad_y.shape[3]
    hs = (oh - 1) * sh + 1
    ws = (ow - 1) * sw + 1
    stuffed = np.zeros((n, cout, hs, ws), dtype=grad_y.dtype)
    stuffed[:, :, ::sh, ::sw] = grad_y
    # pad so the valid correlation reproduces the padded-input extent,
    # then crop the padding off
    pad_h, pad_w = kh - 1, kw - 1
    stuffed = np.pad(stuffed, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    flipped = weight[:, :, ::-1, ::-1]
    if groups == 1:
        wk = np.ascontiguousarray(flipped.transpose(1, 0, 2, 3))  # (Cin, Cout, kh, kw)
        full = conv2d(stuffed, wk, None)
    else:
        cpg_out = cout // groups
        cpg_in = (c // groups)
        parts = []
        for g in range(groups):
            wg = flipped[g * cpg_out:(g + 1) * cpg_out]        # (cpg_out, cin_g, kh, kw)
            wk = np.ascontiguousarray(wg.transpose(1, 0, 2, 3))
            parts.append(conv2d(stuffed[:, g * cpg_out:(g + 1) * cpg_out], wk, None))
        full = np.concatenate(parts, axis=1)
    # `full` covers the padded input extent (h + 2ph, w + 2pw), possibly
    # short on the right/bottom when the conv window did not tile exactly
    grad_x = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=grad_y.dtype)
    grad_x[:, :, :full.shape[2], :full.shape[3]] = full
    return np.ascontiguousarray(grad_x[:, :, ph:ph + h, pw:pw + w])


def _conv2d_grad_weight(x: np.ndarray, grad_y: np.ndarray, weight_shape,
                        stride, padding, groups: int) -> np.ndarray:
    """∂L/∂W: correlation of the (padded) input with grad_y."""
    cout, cin_g, kh, kw = weight_shape
    xp = pad2d(x, padding)
    win = sliding_windows(xp, (kh, kw), stride)  # (N, C, OH, OW, KH, KW)
    if groups == 1:
        return np.einsum("nchwkl,nohw->ockl", win, grad_y, optimize=True)
    c = x.shape[1]
    cpg_in = c // groups
    cpg_out = cout // groups
    grads = np.empty(weight_shape, dtype=x.dtype)
    for g in range(groups):
        wing = win[:, g * cpg_in:(g + 1) * cpg_in]
        gy = grad_y[:, g * cpg_out:(g + 1) * cpg_out]
        grads[g * cpg_out:(g + 1) * cpg_out] = np.einsum(
            "nchwkl,nohw->ockl", wing, gy, optimize=True)
    return grads


def _bw_conv2d(node: Node, inputs, output, grad_y):
    weight = node.params["weight"]
    if tuple(pair(node.attrs.get("dilation", (1, 1)))) != (1, 1):
        raise UntrainableOpError(
            f"dilated convolutions are inference-only (node {node.name!r})")
    if node.attrs.get("passthrough"):
        raise UntrainableOpError(
            f"a merged lconv's pass-through runs are inference-only "
            f"(node {node.name!r})")
    stride = node.attrs.get("stride", (1, 1))
    padding = node.attrs.get("padding", (0, 0))
    groups = int(node.attrs.get("groups", 1))
    grad_x = _conv2d_grad_input(grad_y, weight, inputs[0].shape,
                                stride, padding, groups)
    param_grads = {"weight": _conv2d_grad_weight(inputs[0], grad_y, weight.shape,
                                                 stride, padding, groups)}
    if "bias" in node.params:
        param_grads["bias"] = grad_y.sum(axis=(0, 2, 3))
    return [grad_x], param_grads


def _bw_conv_transpose2d(node: Node, inputs, output, grad_y):
    weight = node.params["weight"]  # (Cin, Cout, kh, kw)
    stride = node.attrs.get("stride", (1, 1))
    padding = node.attrs.get("padding", (0, 0))
    grad_x = _conv_transpose_grad_input(grad_y, weight, stride, padding)
    grad_w = _conv_transpose_grad_weight(inputs[0], grad_y, weight.shape,
                                         stride, padding)
    param_grads = {"weight": grad_w}
    if "bias" in node.params:
        param_grads["bias"] = grad_y.sum(axis=(0, 2, 3))
    return [grad_x], param_grads


def _conv_transpose_grad_input(grad_y, weight, stride, padding):
    """conv_transpose is the adjoint of a convolution, so the backward
    for its input is that convolution applied to grad_y.  The matching
    conv reads the (Cin, Cout, kh, kw) layout as (out=Cin, in=Cout) —
    i.e. ``weight`` verbatim."""
    return conv2d(grad_y, np.ascontiguousarray(weight), None,
                  stride=stride, padding=padding)


def _conv_transpose_grad_weight(x, grad_y, weight_shape, stride, padding):
    """∂L/∂W for conv_transpose: correlate grad_y windows with x."""
    cin, cout, kh, kw = weight_shape
    gp = pad2d(grad_y, padding)
    win = sliding_windows(gp, (kh, kw), stride)  # (N, Cout, H, W, kh, kw)
    return np.einsum("nohwkl,nchw->cokl", win, x, optimize=True)


def _bw_linear(node: Node, inputs, output, grad_y):
    weight = node.params["weight"]
    grad_x = grad_y @ weight
    param_grads = {"weight": grad_y.T @ inputs[0]}
    if "bias" in node.params:
        param_grads["bias"] = grad_y.sum(axis=0)
    return [grad_x], param_grads


# ---------------------------------------------------------------------------
# activations & elementwise
# ---------------------------------------------------------------------------

def _bw_relu(node, inputs, output, grad_y):
    return [grad_y * (inputs[0] > 0)], {}


def _bw_sigmoid(node, inputs, output, grad_y):
    return [grad_y * output * (1.0 - output)], {}


def _bw_tanh(node, inputs, output, grad_y):
    return [grad_y * (1.0 - output * output)], {}


def _bw_silu(node, inputs, output, grad_y):
    s = _sigmoid(inputs[0])
    return [grad_y * (s * (1.0 + inputs[0] * (1.0 - s)))], {}


def _bw_leaky_relu(node, inputs, output, grad_y):
    slope = float(node.attrs.get("negative_slope", 0.01))
    return [grad_y * np.where(inputs[0] >= 0, 1.0, slope)], {}


def _bw_elu(node, inputs, output, grad_y):
    alpha = float(node.attrs.get("alpha", 1.0))
    # for x < 0: y = α(eˣ−1) so dy/dx = α·eˣ = y + α
    return [grad_y * np.where(inputs[0] >= 0, 1.0, output + alpha)], {}


def _bw_hardswish(node, inputs, output, grad_y):
    x = inputs[0]
    inner = np.clip(x + 3.0, 0.0, 6.0) / 6.0
    slope = np.where((x > -3.0) & (x < 3.0), x / 6.0, 0.0)
    return [grad_y * (inner + slope)], {}


def _bw_gelu(node, inputs, output, grad_y):
    x = inputs[0]
    c = np.sqrt(2.0 / np.pi)
    inner = c * (x + 0.044715 * x ** 3)
    t = np.tanh(inner)
    dinner = c * (1.0 + 3 * 0.044715 * x ** 2)
    grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    return [grad_y * grad], {}


def _bw_softmax(node, inputs, output, grad_y):
    axis = int(node.attrs.get("axis", 1))
    dot = (grad_y * output).sum(axis=axis, keepdims=True)
    return [output * (grad_y - dot)], {}


def _bw_identity(node, inputs, output, grad_y):
    return [grad_y], {}


def _bw_add(node, inputs, output, grad_y):
    return [grad_y for _ in inputs], {}


def _bw_concat(node, inputs, output, grad_y):
    axis = int(node.attrs.get("axis", 1))
    sizes = [v.shape[axis] for v in inputs]
    splits = np.cumsum(sizes)[:-1]
    return list(np.split(grad_y, splits, axis=axis)), {}


def _bw_flatten(node, inputs, output, grad_y):
    return [grad_y.reshape(inputs[0].shape)], {}


def _bw_batchnorm(node, inputs, output, grad_y):
    # inference-mode BN with fixed statistics is a per-channel affine map;
    # we train gamma/beta, and statistics stay frozen
    gamma = node.params["gamma"]
    var = node.params["var"]
    mean = node.params["mean"]
    eps = float(node.attrs.get("eps", 1e-5))
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (inputs[0] - mean[None, :, None, None]) * inv_std[None, :, None, None]
    grad_x = grad_y * (gamma * inv_std)[None, :, None, None]
    return [grad_x], {
        "gamma": (grad_y * xhat).sum(axis=(0, 2, 3)),
        "beta": grad_y.sum(axis=(0, 2, 3)),
    }


# ---------------------------------------------------------------------------
# pooling / resampling
# ---------------------------------------------------------------------------

def _bw_maxpool(node, inputs, output, grad_y):
    x = inputs[0]
    kernel = node.attrs["kernel"]
    stride = node.attrs.get("stride", kernel)
    padding = node.attrs.get("padding", 0)
    kh, kw = pair(kernel)
    sh, sw = pair(stride)
    ph, pw = pair(padding)
    neg = np.finfo(x.dtype).min
    xp = pad2d(x, padding, value=neg)
    n, c, hp, wp = xp.shape
    grad_xp = np.zeros_like(xp)
    oh, ow = grad_y.shape[2], grad_y.shape[3]
    win = sliding_windows(xp, (kh, kw), (sh, sw))
    # winner-takes-all (first maximum on ties, matching argmax semantics)
    flat = win.reshape(n, c, oh, ow, kh * kw)
    arg = flat.argmax(axis=-1)
    ky, kx = np.divmod(arg, kw)
    oy, ox = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
    rows = oy[None, None] * sh + ky
    cols = ox[None, None] * sw + kx
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    np.add.at(grad_xp, (ni, ci, rows, cols), grad_y)
    return [np.ascontiguousarray(
        grad_xp[:, :, ph:ph + x.shape[2], pw:pw + x.shape[3]])], {}


def _bw_avgpool(node, inputs, output, grad_y):
    x = inputs[0]
    kernel = node.attrs["kernel"]
    stride = node.attrs.get("stride", kernel)
    padding = node.attrs.get("padding", 0)
    kh, kw = pair(kernel)
    sh, sw = pair(stride)
    ph, pw = pair(padding)
    n, c, h, w = x.shape
    grad_xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    scale = 1.0 / (kh * kw)
    oh, ow = grad_y.shape[2], grad_y.shape[3]
    for ky in range(kh):
        for kx in range(kw):
            rows = slice(ky, ky + oh * sh, sh)
            cols = slice(kx, kx + ow * sw, sw)
            grad_xp[:, :, rows, cols] += grad_y * scale
    return [np.ascontiguousarray(grad_xp[:, :, ph:ph + h, pw:pw + w])], {}


def _bw_global_avgpool(node, inputs, output, grad_y):
    n, c, h, w = inputs[0].shape
    return [np.broadcast_to(grad_y / (h * w), (n, c, h, w)).astype(grad_y.dtype)], {}


def _bw_upsample_nearest(node, inputs, output, grad_y):
    scale = int(node.attrs.get("scale", 2))
    if scale == 1:
        return [grad_y], {}
    n, c, oh, ow = grad_y.shape
    h, w = oh // scale, ow // scale
    view = grad_y.reshape(n, c, h, scale, w, scale)
    return [view.sum(axis=(3, 5))], {}


def _bw_untrainable(node, inputs, output, grad_y):
    raise UntrainableOpError(
        f"op {node.op!r} (node {node.name!r}) has no backward: train the "
        f"decomposed model first, then run TeMCO for inference (paper §4.4)")


BACKWARD = {
    "conv2d": _bw_conv2d,
    "conv_transpose2d": _bw_conv_transpose2d,
    "linear": _bw_linear,
    "relu": _bw_relu,
    "sigmoid": _bw_sigmoid,
    "tanh": _bw_tanh,
    "silu": _bw_silu,
    "leaky_relu": _bw_leaky_relu,
    "elu": _bw_elu,
    "hardswish": _bw_hardswish,
    "gelu": _bw_gelu,
    "softmax": _bw_softmax,
    "identity": _bw_identity,
    "dropout": _bw_identity,  # inference-mode dropout is the identity
    "add": _bw_add,
    "concat": _bw_concat,
    "flatten": _bw_flatten,
    "batchnorm2d": _bw_batchnorm,
    "maxpool2d": _bw_maxpool,
    "avgpool2d": _bw_avgpool,
    "global_avgpool": _bw_global_avgpool,
    "upsample_nearest": _bw_upsample_nearest,
    "fused_block": _bw_untrainable,
    "fused_restore": _bw_untrainable,
}


def backward_node(node: Node, inputs, output, grad_y):
    """Dispatch the VJP for one node."""
    try:
        fn = BACKWARD[node.op]
    except KeyError as exc:
        raise UntrainableOpError(f"no backward registered for op {node.op!r}") from exc
    return fn(node, inputs, output, grad_y)
