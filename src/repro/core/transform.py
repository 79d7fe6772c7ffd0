"""Layer transformations around concat/add joins (paper §3.3, Figure 9).

Four rewrites extend the reach of activation layer fusion to the
skip-connection *join* points:

- :func:`merge_lconv_concat` (Fig. 9b → 9a): a concat whose branches
  all end in ``[act ∘] lconv`` becomes ``[act ∘] merged-lconv ∘ concat``
  over the branches' *reduced* tensors, with the merged lconv's weight
  laid out block-diagonally (zero padding off the diagonal).  Without a
  shared activation, branches that are not restore chains join too: each
  is a ``passthrough`` run of channels the merged lconv carries from its
  input, not a row or column of the weight (a pure data-movement branch
  is a view of the input, not computed data).  One lconv-act-fconv chain
  remains, fusable into a single kernel.
- :func:`merge_lconv_add` (Fig. 9c → 9a): an add whose operands all end
  in ``lconv`` becomes ``merged-lconv ∘ concat`` with the weights
  concatenated horizontally (``[W_a | W_b]``) and biases summed.
- :func:`merge_sum_fconv` (Fig. 9c → 9a across an activation): a 1×1
  conv ``F`` reading a sum of ``act ∘ lconv`` chains (FractalNet's
  joins) becomes ``F' ∘ act ∘ merged-lconv ∘ concat(reduced)``.  The
  activation does not distribute over the sum, so the merged lconv is
  block-diagonal, as for a concat, and the add moves into the 1×1 conv's
  contraction instead: ``F·Σtⱼ = [F | … | F]·concat(tⱼ)``.  One
  lconv-act-fconv chain remains, fusable into a single kernel.
- :func:`split_concat_fconv` (Fig. 9b → 9c): a concat directly feeding
  a 1×1 convolution is split into per-branch 1×1 convolutions (weight
  column slices) followed by an add — the fallback for the concats the
  merge refuses, so each restore-chain branch still fuses with its own
  slice of the 1×1 conv.

- :func:`commute_upsample_lconv` normalizes the UNet decoder:
  ``upsample ∘ act ∘ lconv`` ⇒ ``act ∘ lconv ∘ upsample`` — legal
  because nearest-neighbour upsampling replicates elements, which
  commutes with any element-wise op and with 1×1 convolutions; it moves
  the upsample onto the *reduced* tensor so the join becomes mergeable.
- :func:`push_act_through_concat` normalizes a refused concat behind an
  activation: ``conv1×1 ∘ act ∘ concat`` ⇒ ``conv1×1 ∘ concat ∘ act``
  per branch, exposing the join to the concat split.

Last of all, once fusion and the tile widths are done,
:func:`gather_concat_inputs` turns the concat a merged lconv's fused
kernel reads into the kernel's own inputs (VTC's virtual tensors):
``fused(concat(a, upsample(b)))`` ⇒ ``fused(a, b)`` with
``b``'s upsample factor an attr, so neither the concat nor the upsample
is ever allocated — the kernel gathers the branches straight into the
``[x; 1]`` copy it makes anyway.

Each is a rule on :func:`repro.ir.rewrite.rewrite`, which does the
splicing, the clean-up and the decision log for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ir import ops as _ops
from ..ir.emit import make_node
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.rewrite import Splice, rewrite
from ..ir.value import Value
from ..obs import get_tracer

__all__ = ["TransformStats", "merge_lconv_concat", "merge_lconv_add",
           "merge_sum_fconv", "split_concat_fconv", "commute_upsample_lconv",
           "push_act_through_concat", "gather_concat_inputs"]


@dataclass
class TransformStats:
    merged_concats: int = 0
    merged_adds: int = 0
    split_concats: int = 0
    commuted_upsamples: int = 0
    pushed_acts: int = 0
    gathered_concats: int = 0

    def total(self) -> int:
        return (self.merged_concats + self.merged_adds + self.split_concats
                + self.commuted_upsamples + self.pushed_acts
                + self.gathered_concats)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _branch_chain(graph: Graph, consumers: dict, value,
                  allow_act: bool) -> tuple[Node | None, Node] | None:
    """Match ``value = [act(]lconv(reduced)[)]`` with single-consumer links.

    Returns ``(act_or_None, lconv)`` or ``None`` if the branch does not
    end in a restorable chain.
    """
    producer = graph.producer_of(value)
    if producer is None or len(consumers.get(value, ())) != 1:
        return None
    act: Node | None = None
    if producer.op in _ops.ACTIVATION_OPS:
        if not allow_act:
            return None
        act = producer
        inner = act.inputs[0]
        producer = graph.producer_of(inner)
        if producer is None or len(consumers.get(inner, ())) != 1:
            return None
    if not _ops.is_lconv(producer):
        return None
    return act, producer


def _is_channel_concat(node: Node) -> bool:
    return node.op == "concat" and int(node.attrs.get("axis", 1)) == 1


def _moved_act(graph: Graph, act: Node, x: Value, name: str) -> Node:
    """``act`` rebuilt on ``x``: the same op with the same attrs (a
    ``leaky_relu``'s slope, an ``elu``'s alpha)."""
    return make_node(graph, act.op, [x], attrs=dict(act.attrs), name=name)


def _block_diag_params(branches: list[Node | int]
                       ) -> tuple[dict[str, np.ndarray], list[list[int]]]:
    """The concat merge's weight and pass-through runs.

    Output channels stack and each restore chain reads only its own
    reduced channels: the weight is block-diagonal over the restored
    branches, zeros elsewhere.  An ``int`` entry is a pass-through branch
    of that many channels; it becomes an ``[out_row, in_col, width]`` run
    of the merged lconv, and no row or column of the weight.  A branch
    that is itself a merged lconv brings its runs along.  The bias covers
    the restored rows.
    """
    lconvs = [n for n in branches if not isinstance(n, int)]
    dtype = lconvs[0].params["weight"].dtype
    weights = [n.params["weight"][:, :, 0, 0].astype(dtype) for n in lconvs]
    merged = np.zeros((sum(w.shape[0] for w in weights),
                       sum(w.shape[1] for w in weights)), dtype=dtype)
    runs: list[list[int]] = []
    out = col = 0  # where the branch starts in the merged output / input
    ro = ri = 0    # where its restored block starts in the weight
    blocks = iter(weights)
    for branch in branches:
        if isinstance(branch, int):
            runs.append([out, col, branch])
            out += branch
            col += branch
            continue
        w = next(blocks)
        merged[ro:ro + w.shape[0], ri:ri + w.shape[1]] = w
        ro += w.shape[0]
        ri += w.shape[1]
        carried = _ops.passthrough_runs(branch)
        runs += [[out + o, col + i, k] for o, i, k in carried]
        width = sum(k for _o, _i, k in carried)
        out += w.shape[0] + width
        col += w.shape[1] + width
    params = {"weight": merged[:, :, None, None]}
    biases = [n.params.get("bias") for n in lconvs]
    if any(b is not None for b in biases):
        params["bias"] = np.concatenate([
            np.zeros(w.shape[0], dtype=dtype) if b is None else b.astype(dtype)
            for b, w in zip(biases, weights)])
    return params, runs


def _horizontal_params(lconvs: list[Node]) -> dict[str, np.ndarray]:
    """The add merge's weight: output channels are shared, weights sit
    side by side (``[W_a | W_b]``) and biases sum."""
    dtype = lconvs[0].params["weight"].dtype
    weights = [n.params["weight"][:, :, 0, 0].astype(dtype) for n in lconvs]
    params = {"weight": np.concatenate(weights, axis=1)[:, :, None, None]}
    biases = [n.params.get("bias") for n in lconvs]
    if any(b is not None for b in biases):
        bias = np.zeros(weights[0].shape[0], dtype=dtype)
        for b in biases:
            if b is not None:
                bias = bias + b
        params["bias"] = np.asarray(bias, dtype=dtype)
    return params


def _merged_lconv(graph: Graph, join: Node, reduced: list[Value],
                  lconvs: list[Node], params: dict[str, np.ndarray],
                  runs: list[list[int]] = ()) -> list[Node]:
    """``concat(reduced) → merged lconv``, the nodes replacing ``join``."""
    cat_reduced = make_node(graph, "concat", reduced, attrs={"axis": 1},
                            name=f"{join.name}.reduced")
    attrs = {
        "stride": [1, 1], "padding": [0, 0], "groups": 1, "role": "lconv",
        "merged_from": [n.name for n in lconvs],
        "orig_flops": sum(int(n.attrs.get("orig_flops", _ops.node_flops(n)))
                          for n in lconvs),
    }
    if runs:
        attrs["passthrough"] = runs
    merged = make_node(graph, "conv2d", [cat_reduced.output], attrs=attrs,
                       params=params, name=f"{join.name}.merged_lconv")
    return [cat_reduced, merged]


# ---------------------------------------------------------------------------
# concat merge (Fig. 9b -> 9a)
# ---------------------------------------------------------------------------

def merge_lconv_concat(graph: Graph, stats: TransformStats | None = None) -> TransformStats:
    """Merge every eligible channel-concat of restore chains."""
    stats = stats or TransformStats()
    stats.merged_concats += rewrite(graph, _is_channel_concat, _merge_concat)
    return stats


def _merge_concat(graph: Graph, concat: Node, consumers: dict) -> Splice | None:
    # classify branches: restore chains ([act ∘] lconv) or passthroughs
    # (anything else — carried as a run of the merged lconv's channels)
    chains = [_branch_chain(graph, consumers, v, allow_act=True)
              for v in concat.inputs]
    acts = [chain[0] for chain in chains if chain is not None]
    if not acts:
        return None
    # paper: applicable when the sequences share the activation — its
    # attrs included, or one slope would stand in for another
    kinds = [None if act is None else (act.op, act.attrs) for act in acts]
    if any(kind != kinds[0] for kind in kinds):
        return None
    act = acts[0]
    if act is not None and len(acts) < len(chains):
        # a passthrough branch cannot be routed below a shared activation
        return None
    branches = [v.shape[1] if chain is None else chain[1]
                for v, chain in zip(concat.inputs, chains)]
    reduced = [v if chain is None else chain[1].inputs[0]
               for v, chain in zip(concat.inputs, chains)]
    params, runs = _block_diag_params(branches)
    new_nodes = _merged_lconv(graph, concat, reduced,
                              [chain[1] for chain in chains if chain is not None],
                              params, runs)
    if act is not None:
        new_nodes.append(_moved_act(graph, act, new_nodes[-1].output,
                                    f"{concat.name}.merged_{act.op}"))
    return Splice(
        new_nodes, concat.output, new_nodes[-1].output,
        "transform.merge_concat", concat.name, "apply", "all_branches_restorable",
        {"branches": len(branches),
         "passthrough_branches": len(chains) - len(acts),
         "merged_weight_bytes": new_nodes[1].params["weight"].nbytes,
         "concat_bytes": concat.output.nbytes})


# ---------------------------------------------------------------------------
# add merge (Fig. 9c -> 9a)
# ---------------------------------------------------------------------------

def merge_lconv_add(graph: Graph, stats: TransformStats | None = None) -> TransformStats:
    """Merge every add whose operands are all restore convolutions."""
    stats = stats or TransformStats()
    stats.merged_adds += rewrite(graph, lambda node: node.op == "add",
                                 _merge_add)
    return stats


def _merge_add(graph: Graph, add: Node, consumers: dict) -> Splice | None:
    chains = [_branch_chain(graph, consumers, v, allow_act=False)
              for v in add.inputs]
    if any(chain is None for chain in chains):
        return None
    lconvs = [lconv for _act, lconv in chains]
    if any(_ops.passthrough_runs(n) for n in lconvs):
        return None  # [W_a | W_b] has no place for a run
    if len({n.params["weight"].shape[0] for n in lconvs}) != 1:
        return None
    new_nodes = _merged_lconv(graph, add, [n.inputs[0] for n in lconvs],
                              lconvs, _horizontal_params(lconvs))
    return Splice(
        new_nodes, add.output, new_nodes[-1].output,
        "transform.merge_add", add.name, "apply", "all_operands_restorable",
        {"branches": len(lconvs),
         "merged_weight_bytes": new_nodes[1].params["weight"].nbytes,
         "add_bytes": add.output.nbytes})


# ---------------------------------------------------------------------------
# sum merge into the consuming 1x1 conv (Fig. 9c -> 9a across an activation)
# ---------------------------------------------------------------------------

def merge_sum_fconv(graph: Graph, stats: TransformStats | None = None) -> TransformStats:
    """Merge every 1×1 conv reading a sum of activated restore chains.

    A sum merge is an add merge, so it counts in ``merged_adds``; the
    decision log tells the two apart (``transform.merge_sum``).
    """
    stats = stats or TransformStats()
    stats.merged_adds += rewrite(graph, _ops.is_pointwise_conv, _merge_sum)
    return stats


def _sum_leaves(graph: Graph, add: Node, consumers: dict) -> list[Value]:
    """The operands of the add tree rooted at ``add``, flattened through
    inner adds that feed only their parent and are not graph outputs."""
    leaves = []
    for v in add.inputs:
        producer = graph.producer_of(v)
        if (producer is not None and producer.op == "add"
                and len(consumers.get(v, ())) == 1
                and not any(v is out for out in graph.outputs)):
            leaves += _sum_leaves(graph, producer, consumers)
        else:
            leaves.append(v)
    return leaves


def _merge_sum(graph: Graph, fconv: Node, consumers: dict) -> Splice | None:
    if "merged_from" in fconv.attrs:
        return None  # a merged lconv is no fconv to repeat
    add = graph.producer_of(fconv.inputs[0])
    if (add is None or add.op != "add"
            or len(consumers.get(add.output, ())) != 1
            or any(add.output is out for out in graph.outputs)):
        return None
    # every leaf must be a restore chain; single-consumer links make the
    # chains distinct (``add(x, x)`` gives ``x`` two consumers)
    chains = [_branch_chain(graph, consumers, v, allow_act=True)
              for v in _sum_leaves(graph, add, consumers)]
    if any(chain is None for chain in chains):
        return None
    # the activation is what keeps merge_lconv_add's [W_a | W_b] out;
    # an activation-free sum is that rule's, with no zero padding
    kinds = [None if act is None else (act.op, act.attrs) for act, _ in chains]
    if kinds[0] is None or any(kind != kinds[0] for kind in kinds):
        return None
    lconvs = [lconv for _act, lconv in chains]
    if any(_ops.passthrough_runs(n) for n in lconvs):
        return None
    params, _runs = _block_diag_params(lconvs)
    new_nodes = _merged_lconv(graph, add, [n.inputs[0] for n in lconvs],
                              lconvs, params)
    act = _moved_act(graph, chains[0][0], new_nodes[-1].output,
                     f"{add.name}.merged_{chains[0][0].op}")
    weight = fconv.params["weight"]
    fconv_params = {"weight": np.concatenate([weight] * len(lconvs), axis=1)}
    if "bias" in fconv.params:
        fconv_params["bias"] = fconv.params["bias"]
    summed = make_node(graph, "conv2d", [act.output], attrs=dict(fconv.attrs),
                       params=fconv_params, name=f"{fconv.name}.summed")
    new_nodes += [act, summed]
    return Splice(
        new_nodes, fconv.output, summed.output,
        "transform.merge_sum", add.name, "apply", "all_leaves_activated_restores",
        {"branches": len(lconvs), "act": act.op, "fconv": fconv.name,
         "merged_weight_bytes": new_nodes[1].params["weight"].nbytes,
         "fconv_weight_bytes": summed.params["weight"].nbytes,
         "add_bytes": add.output.nbytes})


# ---------------------------------------------------------------------------
# concat split (Fig. 9b -> 9c)
# ---------------------------------------------------------------------------

def split_concat_fconv(graph: Graph, stats: TransformStats | None = None) -> TransformStats:
    """Split ``concat → 1×1 conv`` into per-branch convs + add."""
    stats = stats or TransformStats()
    stats.split_concats += rewrite(graph, _is_channel_concat, _split_concat)
    return stats


def _split_concat(graph: Graph, concat: Node, consumers: dict) -> Splice | None:
    users = consumers.get(concat.output, [])
    if len(users) != 1 or not _ops.is_pointwise_conv(users[0]):
        return None
    fconv = users[0]
    if "merged_from" in fconv.attrs:
        return None  # never split a merged lconv back apart
    # the split pays off only when per-branch fusion can consume
    # it: require at least one branch to end in a restore chain
    # (otherwise it just multiplies full-size branch outputs)
    if not any(_branch_chain(graph, consumers, v, allow_act=True)
               for v in concat.inputs):
        return None
    weight = fconv.params["weight"]
    # interleave branch convs with a chain of binary adds so at
    # most one branch result and the running accumulator are live
    # at a time (an n-ary add would hold every branch at once and
    # inflate the peak the split is meant to shrink)
    new_nodes: list[Node] = []
    acc = None
    offset = 0
    for i, v in enumerate(concat.inputs):
        c = v.shape[1]
        params = {"weight": weight[:, offset:offset + c].copy()}
        if i == 0 and "bias" in fconv.params:
            params["bias"] = fconv.params["bias"]
        attrs = {"stride": [1, 1], "padding": [0, 0], "groups": 1,
                 "split_from": fconv.name}
        if fconv.attrs.get("role"):
            attrs["role"] = fconv.attrs["role"]
        if "orig_flops" in fconv.attrs:
            attrs["orig_flops"] = int(fconv.attrs["orig_flops"])
        branch = make_node(graph, "conv2d", [v], attrs=attrs, params=params,
                           name=f"{fconv.name}.branch{i}")
        new_nodes.append(branch)
        if acc is None:
            acc = branch.output
        else:
            add = make_node(graph, "add", [acc, branch.output],
                            name=f"{fconv.name}.acc{i}")
            new_nodes.append(add)
            acc = add.output
        offset += c
    return Splice(
        new_nodes, fconv.output, acc,
        "transform.split_concat", concat.name, "apply", "restorable_branch_present",
        {"branches": len(concat.inputs), "fconv": fconv.name,
         "fconv_weight_bytes": weight.nbytes,
         "concat_bytes": concat.output.nbytes})


# ---------------------------------------------------------------------------
# activation push-through (DenseNet normalization)
# ---------------------------------------------------------------------------

def push_act_through_concat(graph: Graph, stats: TransformStats | None = None) -> TransformStats:
    """Rewrite ``act(concat(xs)) → conv1×1`` to ``concat(act(xs)) → conv1×1``.

    Element-wise activations distribute over channel concatenation, so
    the rewrite is exact.  It runs after the merges, on the concats they
    refused, and hands a ``concat → act → 1×1`` join to
    :func:`split_concat_fconv`, whose per-branch convolutions then fuse
    with each branch's restore chain.  Only fires when the concat's
    single consumer is an activation whose single consumer is a 1×1
    convolution — otherwise it would just duplicate work.
    """
    stats = stats or TransformStats()
    stats.pushed_acts += rewrite(graph, _is_channel_concat, _push_act)
    return stats


def _push_act(graph: Graph, concat: Node, consumers: dict) -> Splice | None:
    users = consumers.get(concat.output, [])
    if len(users) != 1 or users[0].op not in _ops.ACTIVATION_OPS:
        return None
    act = users[0]
    act_users = consumers.get(act.output, [])
    if len(act_users) != 1 or not _ops.is_pointwise_conv(act_users[0]):
        return None
    if any(v is out for out in graph.outputs for v in (concat.output, act.output)):
        return None
    branch_acts = [_moved_act(graph, act, v, f"{act.name}.branch{i}")
                   for i, v in enumerate(concat.inputs)]
    new_concat = make_node(graph, "concat", [n.output for n in branch_acts],
                           attrs={"axis": 1}, name=f"{concat.name}.pushed")
    return Splice(
        [*branch_acts, new_concat], act.output, new_concat.output,
        "transform.push_act", concat.name, "apply", "act_distributes",
        {"act": act.op, "branches": len(concat.inputs)})


# ---------------------------------------------------------------------------
# upsample commute (UNet decoder normalization)
# ---------------------------------------------------------------------------

def commute_upsample_lconv(graph: Graph, stats: TransformStats | None = None) -> TransformStats:
    """Rewrite ``upsample(act(lconv(r)))`` to ``act(lconv(upsample(r)))``.

    Nearest-neighbour upsampling replicates pixels, so it commutes with
    element-wise activations and with 1×1 convolutions; moving it below
    the lconv makes the upsample operate on the reduced tensor and
    exposes the branch to the concat merge.
    """
    stats = stats or TransformStats()
    stats.commuted_upsamples += rewrite(
        graph, lambda node: node.op == "upsample_nearest", _commute_upsample)
    return stats


def _commute_upsample(graph: Graph, up: Node, consumers: dict) -> Splice | None:
    chain = _branch_chain(graph, consumers, up.inputs[0], allow_act=True)
    if chain is None:
        return None
    act, lconv = chain
    up_reduced = make_node(graph, "upsample_nearest", [lconv.inputs[0]],
                           attrs={"scale": int(up.attrs.get("scale", 2))},
                           name=f"{up.name}.on_reduced")
    n, _c, h, w = up_reduced.output.shape
    new_lconv = lconv.clone(
        name=graph.namer.fresh(lconv.name), inputs=[up_reduced.output],
        output=lconv.output.with_shape((n, lconv.output.shape[1], h, w),
                                       graph.namer.fresh(lconv.output.name)))
    new_nodes = [up_reduced, new_lconv]
    if act is not None:
        new_nodes.append(_moved_act(graph, act, new_lconv.output,
                                    graph.namer.fresh(act.name)))
    return Splice(
        new_nodes, up.output, new_nodes[-1].output,
        "transform.commute_upsample", up.name, "apply",
        "upsample_commutes_with_lconv",
        {"reduced_bytes": lconv.inputs[0].nbytes,
         "restored_bytes": up.output.nbytes})


# ---------------------------------------------------------------------------
# concat gather (virtual tensors: a fused kernel reads the branches)
# ---------------------------------------------------------------------------

_FUSED_OPS = ("fused_block", "fused_restore")


def gather_concat_inputs(graph: Graph,
                         stats: TransformStats | None = None) -> TransformStats:
    """Rewrite ``fused(concat(a, upsample(b), ...))`` to ``fused(a, b, ...)``.

    Runs after fusion and ``widen_tiles``.  A fused node whose one input
    is a channel concat that feeds nothing else and is no graph output
    reads the concat's branches instead; a branch that is an
    ``upsample_nearest`` read only by that concat becomes the upsample's
    input, with the upsample's factor in the node's ``input_scales``.
    The kernel gathers the branches into its ``[x; 1]`` (or its tile's
    pass-through rows), which holds the same bytes as before, so the
    output does not move by a bit; the concat and the upsamples are
    dropped.  Every concat-fed fused node left afterwards is logged as a
    ``skip`` with the reason.
    """
    stats = stats or TransformStats()
    stats.gathered_concats += rewrite(
        graph, lambda node: node.op in _FUSED_OPS and len(node.inputs) == 1,
        _gather)
    tracer = get_tracer()
    if tracer.enabled:
        for node in graph.nodes:
            concat = _fed_by_concat(graph, node)
            if concat is not None:
                tracer.decision(
                    "transform.gather", concat.name, "skip",
                    _gather_refusal(graph, concat,
                                    graph.consumers_of(concat.output)),
                    fused=node.name, concat_bytes=concat.output.nbytes)
    return stats


def _fed_by_concat(graph: Graph, node: Node) -> Node | None:
    """The channel concat that is a one-input fused node's input, if any."""
    if node.op not in _FUSED_OPS or len(node.inputs) != 1:
        return None
    producer = graph.producer_of(node.inputs[0])
    if producer is None or not _is_channel_concat(producer):
        return None
    return producer


def _is_output(graph: Graph, value: Value) -> bool:
    return any(value is out for out in graph.outputs)


def _gather_refusal(graph: Graph, concat: Node, users: list[Node]
                    ) -> str | None:
    """Why the fused node reading ``concat`` (read by ``users``) may not
    read its branches instead (None: it may)."""
    if _is_output(graph, concat.output):
        return "concat_is_output"
    if len(users) != 1:
        return "concat_shared"
    return None


def _gather(graph: Graph, fused: Node, consumers: dict) -> Splice | None:
    concat = _fed_by_concat(graph, fused)
    if concat is None or _gather_refusal(
            graph, concat, consumers.get(concat.output, [])):
        return None
    # the fused node's own factor, from a trailing upsample, applies to
    # every branch on top of the branch's
    base = _ops.input_scales(fused)[0]
    sources, scales = [], []
    for v in concat.inputs:
        up = graph.producer_of(v)
        if (up is not None and up.op == "upsample_nearest"
                and len(consumers.get(v, ())) == 1 and not _is_output(graph, v)):
            sources.append(up.inputs[0])
            scales.append(int(up.attrs.get("scale", 2)) * base)
        else:
            sources.append(v)
            scales.append(base)
    # the same kernel on other inputs: its name stays, its value is new
    out = fused.output
    gathered = fused.clone(fused.name, sources, Value(
        graph.namer.fresh(out.name), out.shape, out.dtype))
    gathered.attrs["input_scales"] = scales
    _ops.validate_node(gathered)
    return Splice(
        [gathered], fused.output, gathered.output,
        "transform.gather", concat.name, "apply", "concat_read_in_place",
        {"fused": gathered.name, "branches": len(sources),
         "upsampled_branches": sum(scale != base for scale in scales),
         "concat_bytes": concat.output.nbytes,
         "upsampled_bytes": sum(v.nbytes for v, scale
                                in zip(concat.inputs, scales) if scale != base)})
