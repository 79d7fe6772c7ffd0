"""The fused ``lconv → activation [→ pool | upsample] → fconv`` kernel.

This is the NumPy analog of the paper's CUDA kernel (Listing 1).  The
CUDA version streams the restored C'-channel tensor through shared-
memory tiles over (C', H, W); here we stream it through *channel
blocks*: for each block of ``block_size`` restored channels we

1. restore the block with the lconv weights (``w1``),
2. apply the element-wise activation,
3. optionally pool / nearest-upsample the block spatially,
4. contract the block into the fconv accumulator (``w2``).

At no point does the full restored tensor ``(N, C', H, W)`` exist —
only one ``(N, block, H, W)`` tile, which is the entire memory claim of
activation-layer fusion.  The results equal running the three layers
separately up to float reassociation, which the equivalence checker
bounds (same contractions and activation order; the GEMMs run per sample
and the fconv sums over C' block by block).

Listing 1's tile lives in shared memory; ours should live in L2.  A
batch whose whole-batch tile outgrows :data:`TILE_BYTES` (a quarter of a
2 MiB L2) therefore runs in balanced *sample groups*, each with its own
``[x; 1]``, tile, pooled buffer and accumulator sized to the group, so
the tile the restore GEMM writes is still cached when the activation
rewrites it and the pool or fconv GEMM reads it (unet_small/cp's
``(32, 5, 32, 32) -> 48 -> 4`` site holds 4 MiB at once otherwise).
Every GEMM already runs per sample, and every block and accumulation
keeps its order, so a grouped call is bitwise the one-group call; a
tile of at most ``TILE_BYTES`` runs as one group.

Listing 1 also blocks the tile over (H, W); this kernel does not.  Every
tile spans the whole plane, and the sample groups above bound it instead
(``docs/algorithms.md`` says why).

The tile's layout is the kernel's own.  A site without a pool keeps it
NCHW, ``(N, block, h·w)``, the layout its input and output already have.
A site that pools keeps it channels-last, ``(N, h·w, block)``: a pooling
tap then reduces contiguous runs of ``w·block`` (rows) or ``block``
(columns) elements, where an NCHW tap reduces one 4–16-float image row
per NumPy inner loop — ``32 · 96 · 4 = 12,288`` loops per tap for a
96-channel block of alexnet's 8×8 site at batch 32.  The transposes cost
no copy: BLAS reads the NCHW ``[x; 1]`` and the pooled tile through
transposed views (a trans flag), so input and output stay NCHW.  Only
the tile, which no other op sees, changes.

Like Listing 1, which is compiled once for a static shape, the kernel is
*bound* once (:func:`bind_fused`): the activation callable with its
attrs, the clamped block size and each block's weight slices, the
resampling kernel, and the packed ``[w1 | b1]`` restore matrix are all resolved
before the first call.  The bound ``x -> y`` closure holds no per-call
state, so several threads may run it at once.  :func:`fused_block` and
:func:`fused_restore` bind for the shape they are given and call.

One tile buffer is allocated per sample group and reused by every
block, and a block touches it twice before it is resampled or the fconv
GEMM reads it — the restore GEMM writes it, the activation rewrites it
in place:

* step 1 is a batched ``np.matmul([w1 | b1][c0:c1], [x; 1], out=tile)``
  (one GEMM per sample, so no sample's result depends on its batch
  neighbours); a channels-last tile is its transpose,
  ``[x; 1]ᵀ @ [w1 | b1][c0:c1]ᵀ``, with each block's ``(R+1, block)``
  slice packed when the kernel is bound.  The bias is the last column of
  the restore matrix against a row of ones appended to the rank-``R``
  input (one ``(N, R+1, h·w)`` copy per sample group),
  so there is no ``tile += b1`` pass;
* step 2 runs the activation in place (``relu`` against a row of zeros,
  the array-operand form NumPy vectorises: see :mod:`.activation`);
* step 3 pools a channels-last tile with :func:`~.pool.bind_pool2d`
  bound ``channels_last`` — its row pass into a temporary, its column
  pass straight into a pooled buffer reused by every block (a block) or
  into the block's slice of the NCHW output (a restore).  Upsampling
  stays NCHW and makes new arrays;
* step 4 is a batched GEMM: the first block's writes the output itself,
  each later block's goes into one reused accumulator that is added into
  the output; a restore with nothing to resample writes straight into
  its output slice.

Data-movement passes, not FLOPs, are what a block costs: on the
``(4, 2, 32, 32) -> 16`` restore the GEMM is 21 us where the bias add
was 15 and the scalar-operand relu 40.  The ``kh + kw`` pooling taps
and ~10 NumPy calls of fixed dispatch per block remain, which is why the
compiler hands out the fewest, widest blocks the graph's memory already
pays for (:func:`repro.core.fusion.widen_tiles`).

A merged lconv's ``passthrough`` runs (Fig. 9a's concat branches that
are not restore chains) are tile rows read from ``x``: each block fills
a pass-through run with one activation pass straight from the input
channels it carries (a copy without an activation), and each run of
restored rows with one GEMM against ``[w1 | b1]``'s rows, ``w1`` holding
only the restored rows and columns and ``[x; 1]`` augmenting only the
restored channels.  The restored branches stay one compact
block-diagonal GEMM rather than one per branch, whose dispatch cost
2-5x at batch 4 on DenseNet's 3-8 branch sites.  A site without runs has
one restored run per block: the kernel as it was, bit for bit.

Correctness constraint from the paper (§3.2): the activation is
element-wise and the fconv needs *all* activated channels per output
element, so the sequence cannot be reordered — but it *can* be blocked
over C', because activation is applied per element and fconv is a sum
over C' that accumulates across blocks.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..ir.ops import conv_output_hw
from .activation import get_activation
from .pool import bind_pool2d, upsample_nearest

__all__ = ["bind_fused", "fused_block", "fused_restore",
           "fused_scratch_bytes", "DEFAULT_BLOCK_SIZE"]

#: Default number of restored channels processed per tile.
DEFAULT_BLOCK_SIZE = 32
#: The most tile one sample group may hold: a quarter of a 2 MiB L2, so
#: the tile the restore GEMM writes is still cached when the activation
#: rewrites it and the pool or fconv GEMM reads it.  Read at call time.
TILE_BYTES = 1 << 19


def _group_size(n: int, sample_tile_bytes: int) -> int:
    """Samples per group of a batch of ``n >= 1``: the fewest balanced
    groups whose tiles fit in :data:`TILE_BYTES` (the last group may be
    smaller)."""
    groups = -(-n * sample_tile_bytes // TILE_BYTES)
    return -(-n // groups)


def _bind_resample(tile_hw: tuple[int, int], pool: dict[str, Any] | None,
                   upsample: int):
    """The optional pooling step for channels-last tiles / nearest-upsample
    step for NCHW tiles of spatial size ``tile_hw``, and the ``(h, w)`` it
    leaves them at; ``None`` for no step."""
    h, w = tile_hw
    if pool is not None:
        stride = pool.get("stride", pool["kernel"])
        padding = pool.get("padding", 0)
        return (bind_pool2d(pool["kind"], (1, h, w, 1), pool["kernel"],
                            stride, padding, channels_last=True),
                conv_output_hw(h, w, pool["kernel"], stride, padding))
    if upsample:
        scale = int(upsample)
        return (lambda tile: upsample_nearest(tile, scale),
                (h * scale, w * scale))
    return None, (h, w)


def _row_pieces(c_prime: int, runs: tuple[tuple[int, int, int], ...]):
    """The tile's rows ``[0, C')`` in order, as ``(start, stop, in_col,
    w1_row)``: a pass-through run reads the input from channel ``in_col``
    on (``w1_row`` is None), a restored run reads ``w1`` from row
    ``w1_row`` on (``in_col`` is None)."""
    pieces, row, w1_row = [], 0, 0
    for out_row, in_col, width in runs:
        if out_row > row:
            pieces.append((row, out_row, None, w1_row))
            w1_row += out_row - row
        pieces.append((out_row, out_row + width, in_col, None))
        row = out_row + width
    if row < c_prime:
        pieces.append((row, c_prime, None, w1_row))
    return pieces


def _restored_columns(r_in: int, runs: tuple[tuple[int, int, int], ...]):
    """The input channels outside the pass-through runs, in order, as
    index pairs ``(columns of [x; 1], channels of x)``: they are ``w1``'s
    columns.  The second is None where the run is all of ``x``."""
    columns, col, k = [], 0, 0
    for _out_row, in_col, width in (*runs, (0, r_in, 0)):
        if in_col > col:
            columns.append(((slice(None), slice(k, k + in_col - col)),
                            None if (col, in_col) == (0, r_in)
                            else (slice(None), slice(col, in_col))))
            k += in_col - col
        col = in_col + width
    return tuple(columns)


def bind_fused(x_shape: tuple[int, ...], w1: np.ndarray,
               b1: np.ndarray | None, w2: np.ndarray | None = None,
               b2: np.ndarray | None = None, act: str | None = None,
               pool: dict[str, Any] | None = None, upsample: int = 0,
               block_size: int = DEFAULT_BLOCK_SIZE,
               act_params: dict[str, Any] | None = None,
               passthrough=()) -> Callable[[np.ndarray], np.ndarray]:
    """The fused kernel for inputs of shape ``x_shape`` (any batch):
    :func:`fused_block` with a reduce matrix ``w2``, :func:`fused_restore`
    without one (then ``b2`` is ignored).  See those for the parameters."""
    name = "fused_restore" if w2 is None else "fused_block"
    if pool is not None and upsample:
        raise ValueError(f"{name} cannot both pool and upsample")
    _n, r_in, h, w = x_shape
    runs = tuple((int(o), int(i), int(k)) for o, i, k in passthrough)
    carried = sum(k for _o, _i, k in runs)
    c_restored, r_restored = w1.shape
    c_prime = c_restored + carried
    if r_restored + carried != r_in:
        raise ValueError(f"w1 in-channels {r_restored}"
                         + (f" + {carried} pass-through" if carried else "")
                         + f" != input channels {r_in}")
    if w2 is not None and w2.shape[1] != c_prime:
        raise ValueError(f"w2 in-channels {w2.shape[1]} != w1 out-channels "
                         f"{c_prime}")
    act_fn = get_activation(act, **(act_params or {})) if act is not None else None
    block = min(max(1, int(block_size)), c_prime)
    # the output's dtype: a block promotes over both weights, a restore
    # keeps its input's
    weights_dtype = None if w2 is None else np.result_type(w1, w2)
    restore = w1 if b1 is None else np.concatenate((w1, b1[:, None]), axis=1)
    # a pooled site's tile is channels-last, (N, h·w, blk): each pooling
    # tap then reduces a contiguous w·blk or blk run, not one image row
    channels_last = pool is not None
    resample, (oh, ow) = _bind_resample((h, w), pool, upsample)
    r_out = c_prime if w2 is None else w2.shape[0]
    pieces = _row_pieces(c_prime, runs)
    # the tile axis that holds a block's channels
    rows_axis = (slice(None),) * (2 if channels_last else 1)

    def steps(c0: int, c1: int):
        """A block's runs: ``(rows, in_channels, None)`` for pass-through
        rows, ``(rows, None, restore_rows)`` for restored rows.  ``rows``
        indexes the tile (None: all of it); ``restore_rows`` is the restore
        GEMM's right operand, ``[w1 | b1]``'s rows against the NCHW
        ``[x; 1]``, or their transpose against ``[x; 1]ᵀ`` for a
        channels-last tile."""
        for start, stop, in_col, w1_row in pieces:
            lo, hi = max(start, c0), min(stop, c1)
            if lo >= hi:
                continue
            rows = (None if (lo, hi) == (c0, c1)
                    else rows_axis + (slice(lo - c0, hi - c0),))
            if in_col is not None:
                col = in_col + lo - start
                yield rows, (slice(None), slice(col, col + hi - lo)), None
                continue
            restore_rows = restore[w1_row + lo - start:w1_row + hi - start]
            yield (rows, None, np.ascontiguousarray(restore_rows.T)
                   if channels_last else restore_rows)

    blocks = tuple((c0, min(c0 + block, c_prime),
                    tuple(steps(c0, min(c0 + block, c_prime))),
                    None if w2 is None else w2[:, c0:c0 + block])
                   for c0 in range(0, c_prime, block))
    columns = _restored_columns(r_in, runs)
    # without a bias, one run of restored channels is read in place
    x_in_place = b1 is None and len(columns) == 1
    # a restore with nothing to resample lands straight in its output slice
    may_write_through = w2 is None and resample is None
    b2_nchw = None if w2 is None or b2 is None else b2[None, :, None, None]
    hw, ohw = h * w, oh * ow
    # one sample's share of the tile, in elements
    tile_elems, restore_itemsize = block * hw, restore.itemsize

    def core(x: np.ndarray, out: np.ndarray) -> None:
        """Channel-blocked lconv→act→resample[→fconv] over one sample
        group, streamed through one reusable tile into ``out``, that
        group's output."""
        n = x.shape[0]
        if x_in_place:  # a view
            channels = columns[0][1]
            x_flat = (x if channels is None else x[channels]
                      ).reshape(n, r_restored, hw)
        else:
            # [w1 | b1] @ [x; 1] over the restored channels only: the bias
            # is added inside the restore GEMM
            x_aug = np.empty((n, restore.shape[1], h, w), dtype=x.dtype)
            for to, channels in columns:
                x_aug[to] = x if channels is None else x[channels]
            if b1 is not None:
                x_aug[:, r_restored] = 1
            x_flat = x_aug.reshape(n, restore.shape[1], hw)
        if channels_last:  # BLAS reads the NCHW input with a trans flag
            x_flat = x_flat.transpose(0, 2, 1)
        direct = may_write_through and out.flags.c_contiguous
        dtype = np.promote_types(x.dtype, restore.dtype)
        if not direct:
            scratch = np.empty(n * block * hw, dtype=dtype)
        if w2 is not None:
            if channels_last:
                pooled = np.empty(n * block * ohw, dtype=dtype)
            # the first block's GEMM writes the output itself
            into_out = out.flags.c_contiguous
            if not into_out or len(blocks) > 1:
                acc = np.empty((n, r_out, ohw), dtype=out.dtype)
        for c0, c1, block_steps, reduce_block in blocks:
            width = c1 - c0
            if direct:
                tile = out[:, c0:c1].reshape(n, width, hw)
            else:
                tile = scratch[:n * width * hw].reshape(
                    (n, hw, width) if channels_last else (n, width, hw))
            for rows, source, restore_rows in block_steps:
                rows = tile if rows is None else tile[rows]
                if source is None:
                    # (1) restore the block's rows, one GEMM per sample
                    if channels_last:
                        np.matmul(x_flat, restore_rows, out=rows)
                    else:
                        np.matmul(restore_rows, x_flat, out=rows)
                    # (2) activation, in place
                    if act_fn is not None:
                        act_fn(rows, out=rows)
                    continue
                # (1-2) pass-through rows: the activation, or a copy, of
                # the input channels the run carries
                src = x[source]
                if channels_last:
                    src = src.transpose(0, 2, 3, 1)
                rows = rows.reshape(src.shape)
                if act_fn is not None and src.dtype == dtype:
                    act_fn(src, out=rows)
                    continue
                rows[...] = src
                if act_fn is not None:
                    act_fn(rows, out=rows)
            if direct:
                continue
            # (3) optional spatial resampling per block.  A pool's column
            # pass writes a restore's output slice, or the pooled tile the
            # fconv GEMM then reads through an NCHW view
            if channels_last:
                tile = tile.reshape(n, h, w, width)
                if w2 is None:
                    resample(tile, out=out[:, c0:c1].transpose(0, 2, 3, 1))
                    continue
                tile = resample(tile, out=pooled[:n * ohw * width].reshape(
                    n, oh, ow, width)).transpose(0, 3, 1, 2)
            else:
                tile = tile.reshape(n, width, h, w)
                if resample is not None:
                    tile = resample(tile)
                if w2 is None:  # restore epilogue: write the block through
                    out[:, c0:c1] = tile
                    continue
            tile = tile.reshape(n, width, ohw)
            # (4) accumulate into the reduced output
            if c0 == 0 and into_out:
                np.matmul(reduce_block, tile, out=out.reshape(n, r_out, ohw))
                continue
            np.matmul(reduce_block, tile, out=acc)
            if c0 == 0:
                out[...] = acc.reshape(out.shape)
            else:
                out += acc.reshape(out.shape)

    def fused(x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        dtype = (x.dtype if weights_dtype is None
                 else np.promote_types(x.dtype, weights_dtype))
        out = np.empty((n, r_out, oh, ow), dtype=dtype)
        # the tile's itemsize: the wider of the input's and the weights'
        itemsize = x.itemsize
        sample_bytes = tile_elems * (itemsize if itemsize > restore_itemsize
                                     else restore_itemsize)
        if n * sample_bytes <= TILE_BYTES:
            core(x, out)
        else:  # balanced sample groups, each with a tile that fits
            size = _group_size(n, sample_bytes)
            for s0 in range(0, n, size):
                core(x[s0:s0 + size], out[s0:s0 + size])
        if b2_nchw is not None:
            out += b2_nchw
        return out

    return fused


def fused_block(x: np.ndarray, w1: np.ndarray, b1: np.ndarray | None,
                w2: np.ndarray, b2: np.ndarray | None,
                act: str | None = None, pool: dict[str, Any] | None = None,
                upsample: int = 0,
                block_size: int = DEFAULT_BLOCK_SIZE,
                act_params: dict[str, Any] | None = None,
                passthrough=()) -> np.ndarray:
    """Run the fused sequence on ``x`` of shape ``(N, R_in, H, W)``.

    Parameters
    ----------
    w1:
        lconv restore matrix, shape ``(C', R_in)`` — without pass-through
        runs; with them, the restored rows only (below).
    w2:
        fconv reduce matrix, shape ``(R_out, C')``.
    act:
        Activation name or ``None`` for a pure lconv→fconv contraction.
    pool:
        Optional pooling config ``{"kind", "kernel", "stride", "padding"}``
        applied between the activation and the fconv.
    upsample:
        Optional nearest-neighbour upsample scale (mutually exclusive
        with ``pool``); used after the UNet decoder transformation.
    block_size:
        Restored channels per tile; clamped into ``[1, C']`` so an
        oversized block reports the same scratch it actually uses
        (one full-width tile) instead of a fictitious larger one.
        Scratch memory is at most ``block_size · H · W · N`` elements
        (``N`` a sample group's size where the batch runs in groups).
    passthrough:
        A merged lconv's ``(out_row, in_col, width)`` runs: tile rows
        ``out_row:out_row+width`` are input channels ``in_col:in_col+width``
        carried through (activated, as every tile row is).  ``w1`` then
        maps, in order, the rows outside the runs to the input channels
        outside them, and ``b1`` covers those rows only.
    """
    return bind_fused(x.shape, w1, b1, w2, b2, act, pool, upsample,
                      block_size, act_params, passthrough)(x)


def fused_restore(x: np.ndarray, w1: np.ndarray, b1: np.ndarray | None,
                  act: str | None = None, pool: dict[str, Any] | None = None,
                  upsample: int = 0,
                  block_size: int = DEFAULT_BLOCK_SIZE,
                  act_params: dict[str, Any] | None = None,
                  passthrough=()) -> np.ndarray:
    """Restore-epilogue kernel: ``lconv → act [→ pool | upsample]`` streamed
    through channel-block tiles, materializing only the *final* tensor.

    Used where a restored tensor is genuinely needed downstream (a join
    with multiple consumers) but the intermediate pre-activation /
    pre-pool full tensors are not: the classic
    ``stem.lconv → relu → maxpool`` prologue of ResNet/DenseNet.  The
    activation's input+output pair (Eq. 3's ``2·C'H'W'`` term) never
    coexists — each channel block is restored, activated, pooled and
    written out before the next block is touched.  This is Listing 1
    without the trailing fconv contraction; the parameters are
    :func:`fused_block`'s.
    """
    return bind_fused(x.shape, w1, b1, None, None, act, pool, upsample,
                      block_size, act_params, passthrough)(x)


def fused_scratch_bytes(input_shape: tuple[int, ...], itemsize: int,
                        block_size: int = DEFAULT_BLOCK_SIZE,
                        c_prime: int | None = None) -> int:
    """Peak scratch of :func:`fused_block`: one whole-batch channel-block
    tile over the whole plane.  The kernel holds at most
    this much: a batch whose tile outgrows :data:`TILE_BYTES` runs in
    sample groups that each hold a group-sized tile.  The figure stays
    the whole-batch one because :func:`repro.core.fusion.widen_tiles`
    budgets block widths with it, and a grouped figure would change
    compiles.

    Reported separately from internal-tensor memory (the paper's CUDA
    tiles live in shared memory, outside the DRAM tensor pool); exposed
    for the tile-size ablation benchmark.

    Beyond the returned array the kernels hold at most this tile + one
    resample call on it (pooled: the row-reduced tile, and for a block
    the pooled tile the column pass writes and the fconv GEMM reads — a
    restore's column pass writes its output slice, no padded copy either
    way; upsampled: ``scale + scale²`` tiles) + one ``(N, R_out, tile)``
    fconv accumulator, which only blocks after the first add into the
    output + the rank-``R+1`` augmented input ``[x; 1]`` when there is a
    bias, all independent of ``C'``
    (measured with ``tracemalloc`` in ``tests/test_kernels_fused.py``),
    each for one sample group where the batch is grouped.
    """
    n, _r, h, w = input_shape
    blk = max(1, int(block_size))
    if c_prime is not None:
        blk = min(blk, int(c_prime))
    return blk * n * h * w * itemsize
