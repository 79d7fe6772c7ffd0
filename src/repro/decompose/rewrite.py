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

from dataclasses import dataclass

from ..ir import ops as _ops
from ..ir.emit import make_node
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.rewrite import Splice, rewrite
from ..obs import get_tracer
from .cp import cp_decompose
from .rank import RankPlan, plan_ranks, plan_ranks_energy
from .tt import tt_decompose
from .tucker import tucker2_decompose

__all__ = ["DecompositionConfig", "DecompositionRecord", "decompose_graph",
           "decomposition_records"]

_METHODS = ("tucker", "cp", "tt")
#: Convolutions with fewer input / output channels are left alone.  The
#: values decompose everything with a meaningful output width, including
#: the RGB stem (the paper decomposes all 10 models' convolutions at
#: ratio 0.1 and retrains; since the decomposed model is the baseline,
#: decomposing the stem is semantics-neutral for the memory/time
#: comparison).
MIN_IN_CHANNELS = 3
MIN_OUT_CHANNELS = 16


@dataclass(frozen=True)
class DecompositionConfig:
    """What to decompose and how.

    Defaults mirror the paper's evaluation setup: Tucker at ratio 0.1,
    applied to every spatial convolution with enough channels to be
    worth factorizing (at least :data:`MIN_IN_CHANNELS` in and
    :data:`MIN_OUT_CHANNELS` out).
    """

    method: str = "tucker"
    ratio: float = 0.1
    #: rank policy: "ratio" (the paper's fixed fraction of channels) or
    #: "energy" (per-layer spectral-energy thresholding at ``energy``)
    rank_policy: str = "ratio"
    energy: float = 0.9
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


def _eligible(node: Node) -> bool:
    if node.op != "conv2d":
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
    return cin >= MIN_IN_CHANNELS and cout >= MIN_OUT_CHANNELS


def decompose_graph(graph: Graph, config: DecompositionConfig | None = None) -> Graph:
    """Return a decomposed copy of ``graph`` (the input is not mutated)."""
    config = config or DecompositionConfig()
    out = graph.clone(f"{graph.name}.{config.method}")
    with get_tracer().span("decompose", category="compiler", graph=graph.name,
                           method=config.method, ratio=config.ratio,
                           sites=sum(_eligible(n) for n in out.nodes)):
        rewrite(out, _eligible,
                lambda g, node, _consumers: _replace_conv(g, node, config))
    return out


def _replace_conv(graph: Graph, node: Node, config: DecompositionConfig) -> Splice:
    """The factorised sequence ``fconv → core(s) → lconv`` for ``node``."""
    tracer = get_tracer()
    start_us = tracer.now_us()
    weight = node.params["weight"]
    cout, cin, kh, kw = weight.shape
    sh, sw = node.attrs.get("stride", [1, 1])
    ph, pw = node.attrs.get("padding", [0, 0])
    if config.rank_policy == "energy":
        plan = plan_ranks_energy(weight, config.energy)
    else:
        plan = plan_ranks(cin, cout, config.ratio)

    # per method: the fconv's and the lconv's (out, in) matrices and the
    # cores between them as (name suffix, weight, stride, padding, groups)
    if config.method == "tucker":
        factors = tucker2_decompose(weight, plan.rank_out, plan.rank_in,
                                    hooi_iters=config.hooi_iters)
        first, last = factors.u_in.T, factors.u_out
        cores = [("core", factors.core, [sh, sw], [ph, pw], 1)]
    elif config.method == "cp":
        factors = cp_decompose(weight, plan.cp_rank, max_iters=config.cp_iters,
                               seed=config.seed)
        r = factors.rank
        first, last = factors.b.T, factors.a
        # depthwise vertical (R, 1, Kh, 1) from C (Kh, R), then horizontal
        cores = [("dw_h", factors.c.T.reshape(r, 1, kh, 1), [sh, 1], [ph, 0], r),
                 ("dw_w", factors.d.T.reshape(r, 1, 1, kw), [1, sw], [0, pw], r)]
    else:  # tt
        factors = tt_decompose(weight, (plan.rank_in, plan.tt_mid, plan.rank_out))
        r1, r2, r3 = factors.ranks
        first, last = factors.g1.T, factors.g4.T
        # vertical core: out r2, in r1, kernel (Kh, 1); g2 is (r1, Kh, r2);
        # horizontal core: out r3, in r2, kernel (1, Kw); g3 is (r2, Kw, r3)
        cores = [("core_h", factors.g2.transpose(2, 0, 1).reshape(r2, r1, kh, 1),
                  [sh, 1], [ph, 0], 1),
                 ("core_w", factors.g3.transpose(2, 0, 1).reshape(r3, r2, 1, kw),
                  [1, sw], [0, pw], 1)]
    fit = float(factors.error(weight))

    common = {"decomposed_from": node.name, "orig_flops": _ops.node_flops(node)}
    sequence = [("fconv", first[:, :, None, None], [1, 1], [0, 0], 1), *cores,
                ("lconv", last[:, :, None, None], [1, 1], [0, 0], 1)]
    new_nodes: list[Node] = []
    x = node.inputs[0]
    for suffix, w, stride, padding, groups in sequence:
        role = suffix if suffix in ("fconv", "lconv") else "core"
        attrs = {"stride": stride, "padding": padding, "groups": groups,
                 "role": role}
        params = {"weight": w.copy()}
        if role == "lconv":  # the original bias rides on the restore conv
            attrs["fit_error"] = fit
            if "bias" in node.params:
                params["bias"] = node.params["bias"]
        new_nodes.append(make_node(graph, "conv2d", [x], attrs={**attrs, **common},
                                   params=params, name=f"{node.name}.{suffix}"))
        x = new_nodes[-1].output
    # ranks: the reduced channel widths along the sequence, in data order
    return Splice(new_nodes, node.output, x, "decompose", node.name,
                  "factorise", config.method,
                  {"ranks": [n.output.shape[1] for n in new_nodes[:-1]],
                   "fit_error": fit, "ms": (tracer.now_us() - start_us) / 1e3})


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
