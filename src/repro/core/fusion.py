"""Activation layer fusion (paper §3.2, Listing 1).

Finds ``lconv → activation [→ pool | upsample] → fconv`` chains whose
intermediate values have no other consumers, and collapses each into a
single :data:`fused_block` node that streams the restored channels
through tiles (see :mod:`repro.kernels.fused`).  The full-size restored
tensors (``Output1``/``Input2`` in Figure 3b) disappear from the graph:
the fused node consumes one reduced tensor and produces the next.

Also fuses the degenerate ``lconv → activation → fconv`` chains created
by the layer transformations (merged block-diagonal lconvs, whose
pass-through runs the fused node carries, and copied restore chains) —
the paper's "restorations of skip connections can also be hidden in the
fused layers".  The pass is a rule on :func:`repro.ir.rewrite.rewrite`,
anchored at each chain's lconv.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ir import ops as _ops
from ..ir.emit import make_node
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.rewrite import Splice, rewrite
from ..kernels import DEFAULT_BLOCK_SIZE, site_scratch_bytes
from ..obs import get_tracer
from .liveness import simulate

__all__ = ["FusionConfig", "FusionStats", "fuse_activation_layers",
           "widen_tiles", "MAX_BLOCK_SIZE"]

#: Widest channel block :func:`widen_tiles` hands out: past it the PR 20
#: sweep found no site that still got faster.
MAX_BLOCK_SIZE = 256


@dataclass(frozen=True)
class FusionConfig:
    """Fusion knobs.

    block_size:
        Channel-block width of the generated fused kernels (the tile
        size ``T`` of Listing 1); sweepable in the tile ablation.  The
        default ``None`` derives it per site: ``DEFAULT_BLOCK_SIZE``,
        widened by the pipeline's :func:`widen_tiles` into memory the
        graph already owns.  A number is compiled exactly as given.
    """

    block_size: int | None = None

    def __post_init__(self) -> None:
        if self.block_size is not None and self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")


@dataclass
class FusionStats:
    fused: int = 0
    with_pool: int = 0
    with_upsample: int = 0
    epilogues: int = 0
    #: sites :func:`widen_tiles` gave a wider block than ``DEFAULT_BLOCK_SIZE``
    widened: int = 0


def fuse_activation_layers(graph: Graph,
                           config: FusionConfig | None = None) -> FusionStats:
    """Apply activation layer fusion greedily over the schedule."""
    config = config or FusionConfig()
    stats = FusionStats()
    tracer = get_tracer()
    with tracer.span("fusion", category="compiler", graph=graph.name):
        stats.fused = rewrite(
            graph, _ops.is_lconv,
            lambda g, lconv, consumers: _fuse(g, lconv, consumers, config, stats))
        if tracer.enabled:
            # the lconvs left standing are the patterns fusion skipped
            for node in graph.nodes:
                if _ops.is_lconv(node):
                    tracer.decision("fusion", node.name, "skip",
                                    "no_fusable_chain",
                                    restored_bytes=node.output.nbytes)
    return stats


@dataclass(frozen=True)
class _Chain:
    lconv: Node
    act: Node | None
    resample: Node | None  # pool or upsample, optional
    fconv: Node | None     # None -> restore epilogue (fused_restore)


def _single_consumer(consumers: dict, node: Node) -> Node | None:
    users = consumers.get(node.output, [])
    return users[0] if len(users) == 1 else None


def _match_chain(graph: Graph, lconv: Node, consumers: dict) -> _Chain | None:
    out_ids = {id(v) for v in graph.outputs}

    def epilogue(act: Node | None, resample: Node | None) -> _Chain | None:
        """Fall back to a restore epilogue covering the chain so far."""
        if act is None and resample is None:
            return None
        # every *intermediate* value must be single-consumer & not an output
        intermediates = [lconv] + ([act] if act is not None and resample is not None else [])
        for mid in intermediates:
            if id(mid.output) in out_ids:
                return None
        return _Chain(lconv=lconv, act=act, resample=resample, fconv=None)

    cursor = _single_consumer(consumers, lconv)
    if cursor is None or id(lconv.output) in out_ids:
        return None
    act: Node | None = None
    if cursor.op in _ops.ACTIVATION_OPS:
        act = cursor
        cursor = _single_consumer(consumers, act)
        if cursor is None:
            return epilogue(act, None)
    resample: Node | None = None
    # a pool (``lconv-relu-pool-fconv`` in Listing 1) or a nearest
    # upsample (UNet decoder after the upsample-commute transformation)
    if cursor.op in _ops.POOL_OPS or cursor.op == "upsample_nearest":
        resample = cursor
        cursor = _single_consumer(consumers, resample)
        if cursor is None:
            return epilogue(act, resample)
    # any 1×1 stride-1 conv can terminate the chain: the paper's fconv is
    # the common case, but split/merged transforms produce pointwise convs
    # that expand channels, and the memory claim (no full intermediate)
    # holds either way
    if not _ops.is_pointwise_conv(cursor):
        return epilogue(act, resample)
    # intermediate values must not be graph outputs (they would vanish)
    for mid in (lconv, act, resample):
        if mid is not None and id(mid.output) in out_ids:
            return None
    return _Chain(lconv=lconv, act=act, resample=resample, fconv=cursor)


def _fuse(graph: Graph, lconv: Node, consumers: dict, config: FusionConfig,
          stats: FusionStats) -> Splice | None:
    """The fused node replacing the chain ``lconv`` anchors, if any."""
    chain = _match_chain(graph, lconv, consumers)
    if chain is None:
        return None
    fconv = chain.fconv
    w1 = lconv.params["weight"]
    params: dict[str, np.ndarray] = {
        "w1": np.ascontiguousarray(w1[:, :, 0, 0]),
    }
    if "bias" in lconv.params:
        params["b1"] = lconv.params["bias"]
    if fconv is not None:
        params["w2"] = np.ascontiguousarray(fconv.params["weight"][:, :, 0, 0])
        if "bias" in fconv.params:
            params["b2"] = fconv.params["bias"]
    act_params = {}
    if chain.act is not None:
        act_params = {k: v for k, v in chain.act.attrs.items()
                      if k in ("negative_slope", "alpha")}
    block_size = config.block_size or DEFAULT_BLOCK_SIZE
    # clamp to the restored channel count: an oversized block runs as a
    # single full-width tile, so the attrs must say so too — otherwise
    # fused_scratch_bytes would report scratch the kernel never uses
    block_size = min(max(1, block_size), int(lconv.output.shape[1]))
    attrs: dict = {
        "act": chain.act.op if chain.act is not None else None,
        "act_params": act_params or None,
        "block_size": block_size,
        "fused_from": [n.name for n in (lconv, chain.act, chain.resample, fconv)
                       if n is not None],
    }
    if lconv.attrs.get("passthrough"):
        attrs["passthrough"] = [list(run) for run in lconv.attrs["passthrough"]]
    if chain.resample is not None:
        if chain.resample.op in _ops.POOL_OPS:
            attrs["pool"] = {
                "kind": "max" if chain.resample.op == "maxpool2d" else "avg",
                "kernel": list(chain.resample.attrs["kernel"]),
                "stride": list(chain.resample.attrs.get(
                    "stride", chain.resample.attrs["kernel"])),
                "padding": list(chain.resample.attrs.get("padding", [0, 0])),
            }
            stats.with_pool += 1
        else:
            attrs["upsample"] = int(chain.resample.attrs.get("scale", 2))
            stats.with_upsample += 1

    if fconv is not None:
        final = fconv
        fused = make_node(graph, "fused_block", [lconv.inputs[0]], attrs=attrs,
                          params=params, name=f"fused[{lconv.name}+{fconv.name}]")
    else:
        final = chain.resample if chain.resample is not None else chain.act
        assert final is not None
        fused = make_node(graph, "fused_restore", [lconv.inputs[0]], attrs=attrs,
                          params=params, name=f"fused_restore[{lconv.name}]")
        stats.epilogues += 1
    if fused.output.shape != final.output.shape:  # pragma: no cover - defensive
        raise AssertionError(
            f"fusion shape mismatch: {fused.output.shape} vs {final.output.shape}")
    return Splice(
        [fused], final.output, fused.output, "fusion", fused.name, "fuse",
        "restore_epilogue" if fconv is None else "lconv_act_fconv",
        {"chain_nodes": len(attrs["fused_from"]),
         "reduced_bytes": lconv.inputs[0].nbytes,
         "restored_bytes": lconv.output.nbytes,
         "block_size": block_size})


def widen_tiles(graph: Graph, config: FusionConfig | None = None) -> int:
    """Widen default-tiled fused sites into memory the graph already owns.

    Fewer, wider blocks save a site's per-block passes and dispatch
    (1.5-2.9x at ``C' >= 104`` on at most 8x8 pixels), but a tile is
    scratch on top of whatever is live at that node.  The budget is
    therefore the scratch-counted peak the graph has anyway at the tiles
    it carries — ``execute(..., count_fused_scratch=True)``'s peak — and
    each site gets the fewest blocks of at most ``MAX_BLOCK_SIZE``
    channels whose tile fits under it next to the site's own live
    bytes, split evenly (384 channels in two blocks run 192 + 192, not
    256 + 128): no peak, counted either way, moves.  Run on the final
    schedule (``live`` is per node index).  Every site keeps its tile
    when ``block_size`` is configured.  Returns the number of sites
    widened.
    """
    config = config or FusionConfig()
    sites = [(index, node) for index, node in enumerate(graph.nodes)
             if node.op in ("fused_block", "fused_restore")]
    if not sites or config.block_size is not None:
        return 0
    tracer = get_tracer()
    schedule = simulate(graph)
    live = schedule.live
    budget = max(schedule.peak_bytes,
                 max(live[i] + site_scratch_bytes(node) for i, node in sites))
    widened = 0
    for index, node in sites:
        current = int(node.attrs.get("block_size", DEFAULT_BLOCK_SIZE))
        c_prime = _ops.tile_channels(node)
        fits = (budget - live[index]) // site_scratch_bytes(node, 1)
        widest = min(c_prime, MAX_BLOCK_SIZE, fits)
        blocks = -(-c_prime // max(widest, 1))
        if widest > current and blocks < -(-c_prime // current):
            block = -(-c_prime // blocks)
            block = min(block + block % 2, widest)  # even, if that fits too
            node.attrs["block_size"] = block
            widened += 1
            tracer.decision("fusion", node.name, "widen", "slack",
                            live_bytes=live[index], budget_bytes=budget,
                            block_size_before=current, block_size=block)
        elif current < min(c_prime, MAX_BLOCK_SIZE):
            tracer.decision("fusion", node.name, "keep", "no_slack",
                            live_bytes=live[index], budget_bytes=budget,
                            block_size=current)
    return widened
