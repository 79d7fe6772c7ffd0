"""Analytic cost model for fused-kernel tile candidates.

For each fusion site (a ``fused_block`` / ``fused_restore`` node) and
each candidate ``(block_size, spatial_tile)`` pair the model estimates

- **scratch bytes** — the channel-block tile the kernel streams
  through (:func:`repro.kernels.fused_scratch_bytes`),
- **FLOPs** — tile-invariant (the contractions are the same work at
  any blocking), reported for context,
- **memory traffic** — where tiling actually moves the needle on a
  cache hierarchy: the reduced input is re-read once per channel
  block, and the fconv accumulator is read+written once per extra
  block, so small blocks pay traffic while large blocks pay scratch.

The model is used to *prune and order* the candidate space before any
measurement; the measured search (:mod:`repro.tune.search`) has the
final word.  Pruning keeps the default configuration, so measurement
can always compare against the untuned baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ..ir.node import Node
from ..ir.ops import node_flops
from ..kernels import DEFAULT_BLOCK_SIZE, fused_scratch_bytes
from ..kernels.fused import spatially_tileable

__all__ = ["SiteSpec", "CostEstimate", "site_candidates", "estimate_cost",
           "prune_candidates", "DEFAULT_BLOCK_SIZES", "DEFAULT_SPATIAL_TILES"]

#: Grid seed of channel-block widths (clamped to each site's C').
DEFAULT_BLOCK_SIZES = (4, 8, 16, 32, 64, 128, 256)
#: Grid seed of spatial tile edges (0 = channel blocking only); a tile
#: survives only where the kernel would actually apply it exactly.
DEFAULT_SPATIAL_TILES = (0, 8, 16, 32)

#: Modeled fixed cost of one block dispatch, in equivalent traffic
#: bytes.  The NumPy kernels pay a fixed ~10 calls per block (two GEMM
#: launches, the in-place bias and activation passes, slicing, and the
#: accumulator add); this term is what makes tiny blocks score badly.
_DISPATCH_OVERHEAD_BYTES = 32 * 1024


@dataclass(frozen=True)
class SiteSpec:
    """Shape summary of one fusion site, extracted from its node."""

    name: str          #: fused node name (display)
    site_key: str      #: anchoring lconv name — stable across recompiles
    op: str            #: ``fused_block`` or ``fused_restore``
    input_shape: tuple[int, int, int, int]
    c_prime: int       #: restored channels (w1 rows)
    r_out: int | None  #: fconv output channels; None for restore sites
    itemsize: int
    act: str | None
    pool: dict[str, Any] | None
    upsample: int
    out_hw: tuple[int, int]  #: spatial size after the pool / upsample
    flops: int         #: :func:`repro.ir.ops.node_flops` of the node

    @classmethod
    def from_node(cls, node: Node) -> "SiteSpec":
        if node.op not in ("fused_block", "fused_restore"):
            raise ValueError(f"node {node.name!r} is {node.op}, not a fused site")
        fused_from = node.attrs.get("fused_from") or [node.name]
        return cls(
            name=node.name,
            site_key=str(fused_from[0]),
            op=node.op,
            input_shape=tuple(node.inputs[0].shape),  # type: ignore[arg-type]
            c_prime=int(node.params["w1"].shape[0]),
            r_out=(int(node.params["w2"].shape[0])
                   if "w2" in node.params else None),
            itemsize=node.inputs[0].dtype.itemsize,
            act=node.attrs.get("act"),
            pool=node.attrs.get("pool"),
            upsample=int(node.attrs.get("upsample", 0) or 0),
            # the IR's own shape inference (ir.ops.conv_output_hw for pools)
            out_hw=tuple(node.output.shape[2:]),  # type: ignore[arg-type]
            flops=node_flops(node),
        )


@dataclass(frozen=True)
class CostEstimate:
    """Predicted behaviour of one ``(block_size, spatial_tile)`` pair."""

    block_size: int
    spatial_tile: int
    scratch_bytes: int
    flops: int
    traffic_bytes: int
    blocks: int  #: total dispatches (channel blocks × spatial tiles)

    @property
    def score(self) -> float:
        """Lower is predicted faster: traffic plus dispatch overhead."""
        return float(self.traffic_bytes + self.blocks * _DISPATCH_OVERHEAD_BYTES)


def site_candidates(site: SiteSpec,
                    block_sizes: tuple[int, ...] = DEFAULT_BLOCK_SIZES,
                    spatial_tiles: tuple[int, ...] = DEFAULT_SPATIAL_TILES,
                    ) -> list[tuple[int, int]]:
    """Valid, deduplicated ``(block_size, spatial_tile)`` pairs.

    Block sizes clamp to ``C'`` (so 128 and 256 collapse onto one
    candidate for a 96-channel site); spatial tiles survive only where
    the kernel would apply them exactly rather than silently falling
    back to channel-only blocking.
    """
    _n, _r, h, w = site.input_shape
    blocks = sorted({min(max(1, int(b)), site.c_prime) for b in block_sizes})
    tiles = [0] + sorted({int(t) for t in spatial_tiles
                          if t > 0 and spatially_tileable(h, w, t, site.pool)})
    return [(b, t) for t in tiles for b in blocks]


def estimate_cost(site: SiteSpec, block_size: int,
                  spatial_tile: int) -> CostEstimate:
    """Predict scratch / FLOPs / traffic for one candidate pair."""
    n, r_in, h, w = site.input_shape
    blk = min(max(1, int(block_size)), site.c_prime)
    tiled = spatially_tileable(h, w, spatial_tile, site.pool)
    th, tw = (spatial_tile, spatial_tile) if tiled else (h, w)
    n_spatial = (h // th) * (w // tw)
    n_blocks = math.ceil(site.c_prime / blk)
    blocks = n_spatial * n_blocks
    oh, ow = site.out_hw
    out_ch = site.r_out if site.r_out is not None else site.c_prime

    # traffic: input re-read per channel block; weights once per spatial
    # tile; the tile itself written+read through act/resample; the fconv
    # accumulator read+written once per block beyond the first
    elems = 0
    elems += n_blocks * n * r_in * h * w                 # x re-reads
    elems += n_spatial * site.c_prime * r_in             # w1
    elems += 3 * n * site.c_prime * h * w                # tile stream
    if site.r_out is not None:
        elems += n_spatial * site.r_out * site.c_prime   # w2
        elems += (2 * (n_blocks - 1) + 1) * n * site.r_out * oh * ow
    else:
        elems += n * out_ch * oh * ow                    # block write-through
    traffic = elems * site.itemsize

    return CostEstimate(
        block_size=blk, spatial_tile=int(spatial_tile if tiled else 0),
        scratch_bytes=fused_scratch_bytes(
            site.input_shape, site.itemsize, block_size=blk,
            c_prime=site.c_prime, spatial_tile=spatial_tile if tiled else 0),
        flops=site.flops, traffic_bytes=traffic, blocks=blocks)


def prune_candidates(site: SiteSpec, candidates: list[tuple[int, int]],
                     keep: int = 8,
                     max_scratch_bytes: int | None = None,
                     ) -> list[CostEstimate]:
    """Rank candidates by predicted score; keep the best ``keep``.

    The default configuration (``DEFAULT_BLOCK_SIZE`` clamped, no
    spatial tile) always survives so the search can price the baseline.
    Candidates whose scratch exceeds ``max_scratch_bytes`` are dropped
    (the default cap is the site's own unblocked tile — i.e. no cap in
    practice, since the clamp bounds scratch at C').
    """
    estimates = {(c.block_size, c.spatial_tile): c
                 for c in (estimate_cost(site, b, t) for b, t in candidates)}
    default = estimate_cost(site, DEFAULT_BLOCK_SIZE, 0)
    estimates.setdefault((default.block_size, default.spatial_tile), default)
    ranked = sorted(estimates.values(), key=lambda c: c.score)
    if max_scratch_bytes is not None:
        ranked = [c for c in ranked if c.scratch_bytes <= max_scratch_bytes
                  or (c.block_size, c.spatial_tile)
                  == (default.block_size, default.spatial_tile)]
    kept = ranked[:max(1, keep)]
    if not any((c.block_size, c.spatial_tile)
               == (default.block_size, default.spatial_tile) for c in kept):
        kept.append(estimates[(default.block_size, default.spatial_tile)])
    return kept
