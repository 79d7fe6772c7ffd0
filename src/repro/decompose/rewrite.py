"""Graph rewrite: replace convolutions with decomposed sequences.

This is the "existing tensor decomposition scheme" TeMCO takes as its
input (paper §2.1 / Figure 2): each eligible convolution becomes a
*decomposed convolution sequence* ``fconv → core(s) → lconv`` whose
output shape matches the original layer, so the surrounding graph is
untouched.  TeMCO's own passes (:mod:`repro.core`) then optimize the
*memory* behaviour of the decomposed graph.

Metadata left for the optimizer:

- ``role``: ``"fconv" | "core" | "lconv"`` on each new conv,
- ``decomposed_from``: original node name (groups a sequence),
- ``orig_flops``: FLOPs of the original convolution, stored on the
  lconv — Algorithm 1's ``COMPUTE_THRESHOLD`` ("FLOPS of the
  corresponding parts of the original model without decomposition"),
- ``fit_error``: relative Frobenius reconstruction error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ir import ops as _ops
from ..ir.emit import make_node
from ..ir.graph import Graph
from ..ir.node import Node
from ..obs import get_tracer
from .cp import cp_decompose
from .rank import RankPlan, plan_ranks, plan_ranks_energy
from .tt import tt_decompose
from .tucker import tucker2_decompose

__all__ = ["DecompositionConfig", "DecompositionRecord", "decompose_graph",
           "decomposition_records"]

_METHODS = ("tucker", "cp", "tt")


@dataclass(frozen=True)
class DecompositionConfig:
    """What to decompose and how.

    Defaults mirror the paper's evaluation setup: Tucker at ratio 0.1,
    applied to every spatial convolution with enough channels to be
    worth factorizing (the first RGB layer is naturally excluded by
    ``min_channels``).
    """

    method: str = "tucker"
    ratio: float = 0.1
    #: rank policy: "ratio" (the paper's fixed fraction of channels) or
    #: "energy" (per-layer spectral-energy thresholding at ``energy``)
    rank_policy: str = "ratio"
    energy: float = 0.9
    #: convolutions with fewer input/output channels are left alone; the
    #: defaults decompose everything with a meaningful output width,
    #: including the RGB stem (the paper decomposes all 10 models'
    #: convolutions at ratio 0.1 and retrains; since the decomposed
    #: model is the baseline, decomposing the stem is semantics-neutral
    #: for the memory/time comparison)
    min_in_channels: int = 3
    min_out_channels: int = 16
    skip_names: tuple[str, ...] = ()
    hooi_iters: int = 2
    cp_iters: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {_METHODS}")
        if not (0.0 < self.ratio <= 1.0):
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio}")
        if self.rank_policy not in ("ratio", "energy"):
            raise ValueError(f"unknown rank_policy {self.rank_policy!r}")
        if not (0.0 < self.energy <= 1.0):
            raise ValueError(f"energy must be in (0, 1], got {self.energy}")


@dataclass(frozen=True)
class DecompositionRecord:
    """Book-keeping for one decomposed convolution."""

    original: str
    method: str
    plan: RankPlan
    fit_error: float
    new_nodes: tuple[str, ...]
    params_before: int
    params_after: int


def _eligible(node: Node, config: DecompositionConfig) -> bool:
    if node.op != "conv2d" or node.name in config.skip_names:
        return False
    if node.attrs.get("role") is not None:  # already part of a sequence
        return False
    if int(node.attrs.get("groups", 1)) != 1:
        return False
    if list(node.attrs.get("dilation", [1, 1])) != [1, 1]:
        return False  # the factorized sequence does not model dilation
    weight = node.params["weight"]
    cout, cin, kh, kw = weight.shape
    if kh == 1 and kw == 1:
        return False  # pointwise convs gain nothing from channel factorization
    return cin >= config.min_in_channels and cout >= config.min_out_channels


def decompose_graph(graph: Graph, config: DecompositionConfig | None = None) -> Graph:
    """Return a decomposed copy of ``graph`` (the input is not mutated)."""
    config = config or DecompositionConfig()
    out = graph.clone(f"{graph.name}.{config.method}")
    sites = [node for node in out.nodes if _eligible(node, config)]
    with get_tracer().span("decompose", category="compiler", graph=graph.name,
                           method=config.method, ratio=config.ratio,
                           sites=len(sites)):
        for node in sites:
            _replace_conv(out, node, config)
        out.validate()
    return out


def _replace_conv(graph: Graph, node: Node, config: DecompositionConfig) -> None:
    tracer = get_tracer()
    start_us = tracer.now_us()
    weight = node.params["weight"]
    bias = node.params.get("bias")
    cout, cin, kh, kw = weight.shape
    sh, sw = node.attrs.get("stride", [1, 1])
    ph, pw = node.attrs.get("padding", [0, 0])
    if config.rank_policy == "energy":
        plan = plan_ranks_energy(weight, config.energy)
    else:
        plan = plan_ranks(cin, cout, config.ratio)
    orig_flops = _ops.node_flops(node)
    x = node.inputs[0]
    common = {"decomposed_from": node.name, "orig_flops": orig_flops}

    if config.method == "tucker":
        factors = tucker2_decompose(weight, plan.rank_out, plan.rank_in,
                                    hooi_iters=config.hooi_iters)
        fit = factors.error(weight)
        fconv = make_node(
            graph, "conv2d", [x],
            attrs={"stride": [1, 1], "padding": [0, 0], "groups": 1,
                   "role": "fconv", **common},
            params={"weight": factors.u_in.T.reshape(plan.rank_in, cin, 1, 1).copy()},
            name=f"{node.name}.fconv")
        core = make_node(
            graph, "conv2d", [fconv.output],
            attrs={"stride": [sh, sw], "padding": [ph, pw], "groups": 1,
                   "role": "core", **common},
            params={"weight": factors.core.copy()},
            name=f"{node.name}.core")
        lconv = _make_lconv(graph, core.output, factors.u_out, bias, node.name,
                            common, fit)
        new_nodes = [fconv, core, lconv]

    elif config.method == "cp":
        factors = cp_decompose(weight, plan.cp_rank, max_iters=config.cp_iters,
                               seed=config.seed)
        fit = factors.error(weight)
        r = factors.rank
        fconv = make_node(
            graph, "conv2d", [x],
            attrs={"stride": [1, 1], "padding": [0, 0], "groups": 1,
                   "role": "fconv", **common},
            params={"weight": factors.b.T.reshape(r, cin, 1, 1).copy()},
            name=f"{node.name}.fconv")
        # depthwise vertical: weight (R, 1, Kh, 1) from C (Kh, R)
        conv_h = make_node(
            graph, "conv2d", [fconv.output],
            attrs={"stride": [sh, 1], "padding": [ph, 0], "groups": r,
                   "role": "core", **common},
            params={"weight": factors.c.T.reshape(r, 1, kh, 1).copy()},
            name=f"{node.name}.dw_h")
        conv_w = make_node(
            graph, "conv2d", [conv_h.output],
            attrs={"stride": [1, sw], "padding": [0, pw], "groups": r,
                   "role": "core", **common},
            params={"weight": factors.d.T.reshape(r, 1, 1, kw).copy()},
            name=f"{node.name}.dw_w")
        lconv = _make_lconv(graph, conv_w.output, factors.a, bias, node.name,
                            common, fit)
        new_nodes = [fconv, conv_h, conv_w, lconv]

    else:  # tt
        factors = tt_decompose(weight, (plan.rank_in, plan.tt_mid, plan.rank_out))
        fit = factors.error(weight)
        r1, r2, r3 = factors.ranks
        fconv = make_node(
            graph, "conv2d", [x],
            attrs={"stride": [1, 1], "padding": [0, 0], "groups": 1,
                   "role": "fconv", **common},
            params={"weight": factors.g1.T.reshape(r1, cin, 1, 1).copy()},
            name=f"{node.name}.fconv")
        # vertical core: out r2, in r1, kernel (Kh, 1); g2 is (r1, Kh, r2)
        conv_h = make_node(
            graph, "conv2d", [fconv.output],
            attrs={"stride": [sh, 1], "padding": [ph, 0], "groups": 1,
                   "role": "core", **common},
            params={"weight": factors.g2.transpose(2, 0, 1).reshape(r2, r1, kh, 1).copy()},
            name=f"{node.name}.core_h")
        # horizontal core: out r3, in r2, kernel (1, Kw); g3 is (r2, Kw, r3)
        conv_w = make_node(
            graph, "conv2d", [conv_h.output],
            attrs={"stride": [1, sw], "padding": [0, pw], "groups": 1,
                   "role": "core", **common},
            params={"weight": factors.g3.transpose(2, 0, 1).reshape(r3, r2, 1, kw).copy()},
            name=f"{node.name}.core_w")
        lconv = _make_lconv(graph, conv_w.output, factors.g4.T, bias, node.name,
                            common, fit)
        new_nodes = [fconv, conv_h, conv_w, lconv]

    index = graph.index_of(node)
    for offset, new in enumerate(new_nodes):
        graph.add_node(new, index=index + offset)
    graph.replace_uses(node.output, new_nodes[-1].output)
    graph.remove_node(node)
    # ranks: the reduced channel widths along the sequence, in data order
    tracer.decision("decompose", node.name, "factorise", config.method,
                    ranks=[n.output.shape[1] for n in new_nodes[:-1]],
                    fit_error=float(fit),
                    ms=(tracer.now_us() - start_us) / 1e3)


def _make_lconv(graph: Graph, x, u_out: np.ndarray, bias, base_name: str,
                common: dict, fit: float) -> Node:
    """Final 1×1 restore conv: weight ``(Cout, R_out, 1, 1)`` + original bias."""
    cout, rank = u_out.shape
    params = {"weight": u_out.reshape(cout, rank, 1, 1).copy()}
    if bias is not None:
        params["bias"] = bias
    return make_node(
        graph, "conv2d", [x],
        attrs={"stride": [1, 1], "padding": [0, 0], "groups": 1,
               "role": "lconv", "fit_error": float(fit), **common},
        params=params, name=f"{base_name}.lconv")


def decomposition_records(graph: Graph) -> list[DecompositionRecord]:
    """Summarize the decomposed sequences present in ``graph``."""
    by_origin: dict[str, list[Node]] = {}
    for node in graph.nodes:
        origin = node.attrs.get("decomposed_from")
        if origin is not None:
            by_origin.setdefault(origin, []).append(node)
    records = []
    for origin, nodes in sorted(by_origin.items()):
        lconvs = [n for n in nodes if n.attrs.get("role") == "lconv"]
        fconvs = [n for n in nodes if n.attrs.get("role") == "fconv"]
        if not lconvs or not fconvs:
            continue
        lconv, fconv = lconvs[0], fconvs[0]
        cin = fconv.params["weight"].shape[1]
        cout = lconv.params["weight"].shape[0]
        rank_in = fconv.params["weight"].shape[0]
        rank_out = lconv.params["weight"].shape[1]
        plan = RankPlan(cin=cin, cout=cout, rank_in=rank_in, rank_out=rank_out,
                        cp_rank=rank_in, tt_mid=rank_in)
        records.append(DecompositionRecord(
            original=origin, method="unknown", plan=plan,
            fit_error=float(lconv.attrs.get("fit_error", float("nan"))),
            new_nodes=tuple(n.name for n in nodes),
            params_before=0,
            params_after=sum(n.param_elements() for n in nodes)))
    return records
