"""Random CNN generator for differential property testing.

Generates structurally diverse, always-valid inference graphs: chains
with random activations (``leaky_relu`` / ``elu`` with drawn slopes and
alphas), pools, skip connections joined by add/concat, DenseNet
composite blocks, FractalNet sum joins and U-Net decoder upsampling —
the full surface TeMCO's passes pattern-match on — plus, on request, the
strays real exported graphs carry (graph inputs nothing reads and
branches nothing consumes) and a U-Net encoder–decoder stage whose
decoder reads the channel concat of its skip and its upsampled deep
branch.  Deterministic given the seed.
"""

from __future__ import annotations

import numpy as np

from repro.ir import Graph, GraphBuilder

ACTS = ("relu", "silu", "sigmoid", "tanh", "leaky_relu", "elu",
        "hardswish", "gelu")


def _activation(b: GraphBuilder, rng: np.random.Generator):
    """One drawn activation, with a drawn parameter where it takes one."""
    kind = str(rng.choice(ACTS))
    if kind == "leaky_relu":
        slope = round(float(rng.uniform(0.05, 0.5)), 2)
        return lambda h: b.leaky_relu(h, negative_slope=slope)
    if kind == "elu":
        alpha = round(float(rng.uniform(0.3, 2.0)), 2)
        return lambda h: b.elu(h, alpha=alpha)
    return getattr(b, kind)


def _fractal_join(b: GraphBuilder, rng: np.random.Generator, h, name: str):
    """FractalNet's join: 2–4 branches ``act(conv3x3(h))`` sharing one
    activation, summed by a randomly nested tree of binary adds, then a
    1×1 conv — the pattern the sum merge rewrites."""
    act = _activation(b, rng)
    # 16 or 24 restored channels: wide enough to decompose into a restore
    width = 8 * int(rng.integers(2, 4))
    terms = [act(b.conv2d(h, width, 3, padding=1, name=f"{name}.col{j}"))
             for j in range(int(rng.integers(2, 5)))]
    while len(terms) > 1:
        j = int(rng.integers(0, len(terms) - 1))
        terms[j:j + 2] = [b.add(terms[j], terms[j + 1])]
    return b.conv2d(terms[0], 8 * int(rng.integers(1, 3)), 1,
                    name=f"{name}.mix")


def _encoder_decoder(b: GraphBuilder, rng: np.random.Generator, h,
                     name: str):
    """U-Net's stage at the current resolution: a skip ``act(conv3x3(h))``
    pooled down, ``act(conv3x3)`` there, nearest-upsampled back and
    joined with the skip by a channel concat (either order) that a
    3×3 decoder conv reads — after decomposition, the concat of a
    reduced skip and an upsampled reduced tensor that the gather turns
    into the decoder's fused kernel's inputs.  One activation, so the
    concat merge applies."""
    act = _activation(b, rng)
    width = 8 * int(rng.integers(2, 4))
    skip = act(b.conv2d(h, width, 3, padding=1, name=f"{name}.enc"))
    down = (b.maxpool2d(skip, 2) if rng.integers(0, 2)
            else b.avgpool2d(skip, 2))
    for j in range(int(rng.integers(2, 4))):
        down = act(b.conv2d(down, 8 * int(rng.integers(2, 4)), 3, padding=1,
                            name=f"{name}.mid{j}"))
    up = b.upsample_nearest(down, 2)
    joined = (skip, up) if rng.integers(0, 2) else (up, skip)
    return act(b.conv2d(b.concat(*joined, name=f"{name}.cat"),
                        8 * int(rng.integers(1, 3)), 3, padding=1,
                        name=f"{name}.dec"))


def random_cnn(seed: int, *, max_blocks: int = 5, hw: int = 16,
               batch: int = 1, base_channels: int = 8,
               strays: bool = False, long_skip: bool = False,
               encoder_decoder: bool = False) -> Graph:
    """A random small CNN with skip connections.

    Structure: a stem conv, then up to ``max_blocks`` blocks, each
    randomly one of {plain conv+act, conv+act+pool, residual add,
    branch+concat, DenseNet composite (``concat → act → 1×1``, the new
    features activated or not, joined first or second), U-Net
    decoder (``act(1×1) → upsample``, only below the input size)},
    each followed, one time in four, by a FractalNet sum join
    (:func:`_fractal_join`); spatial dims change only block-wide, so
    adds/concats always align.

    ``strays`` adds up to two unused graph inputs (bound before and/or
    after ``x``, one of them larger than any activation) and a dead-end
    branch off some blocks, without changing the network drawn for
    ``seed``.  ``long_skip`` concatenates the (pooled) stem activation
    onto the tail, U-Net style: a tensor idle across every block, which
    is what gives a memory budget below the peak something to evict.
    ``encoder_decoder`` appends :func:`_encoder_decoder`'s stage after
    the blocks, drawn from its own stream, so the rest of the network
    drawn for ``seed`` stays the same.
    """
    rng = np.random.default_rng(seed)
    stray_rng = np.random.default_rng([seed, 1])  # leaves ``rng`` alone
    dense_rng = np.random.default_rng([seed, 2])  # so does the composite's layout
    fractal_rng = np.random.default_rng([seed, 3])  # and the sum joins
    unet_rng = np.random.default_rng([seed, 4])  # and the U-Net stage
    b = GraphBuilder(f"fuzz{seed}", seed=seed)
    if strays and stray_rng.integers(0, 2):
        b.input("unused_big", (batch, 64, hw, hw))
    x = b.input("x", (batch, 3, hw, hw))
    if strays and stray_rng.integers(0, 2):
        b.input("unused_small", (batch, 1, 2, 2))
    channels = base_channels * int(rng.integers(1, 3))
    h = b.conv2d(x, channels, 3, padding=1, name="stem")
    h = stem = _activation(b, rng)(h)

    cur_hw = hw
    num_blocks = int(rng.integers(1, max_blocks + 1))
    for i in range(num_blocks):
        kind = int(rng.integers(0, 6))
        act = _activation(b, rng)
        if strays and stray_rng.integers(0, 2):
            dead = b.conv2d(h, base_channels, 1, name=f"b{i}.dead")
            if stray_rng.integers(0, 2):
                b.relu(dead)
        if kind == 0:  # plain conv + act
            channels = base_channels * int(rng.integers(1, 5))
            h = b.conv2d(h, channels, 3, padding=1, name=f"b{i}.conv")
            h = act(h)
        elif kind == 1 and cur_hw >= 8:  # conv + act + pool
            channels = base_channels * int(rng.integers(1, 5))
            h = b.conv2d(h, channels, 3, padding=1, name=f"b{i}.conv")
            h = act(h)
            h = b.maxpool2d(h, 2) if rng.integers(0, 2) else b.avgpool2d(h, 2)
            cur_hw //= 2
        elif kind == 2:  # residual add (same width)
            skip = h
            h = b.conv2d(h, channels, 3, padding=1, name=f"b{i}.c1")
            h = act(h)
            h = b.conv2d(h, channels, 3, padding=1, name=f"b{i}.c2")
            h = act(b.add(h, skip))
        elif kind == 4:  # DenseNet composite: concat -> act -> 1x1
            # a growth of 16 is wide enough to decompose into a restore
            growth = base_channels * int(dense_rng.integers(1, 3))
            new = b.conv2d(h, growth, 3, padding=1, name=f"b{i}.dense")
            # DenseNet-BC joins the conv output unactivated, which makes
            # ``h`` a pass-through branch of the merged lconv — leading,
            # or second, as in ``concat(new, h)``
            if dense_rng.integers(0, 2):
                new = act(new)
            joined = (new, h) if dense_rng.integers(0, 2) else (h, new)
            channels = base_channels * int(rng.integers(1, 5))
            h = b.conv2d(act(b.concat(*joined, name=f"b{i}.dcat")), channels,
                         1, name=f"b{i}.bottleneck")
        elif kind == 5 and cur_hw < hw:  # U-Net decoder: act(1x1) -> upsample
            channels = h.shape[1] + base_channels  # widening: an lconv
            h = act(b.conv2d(h, channels, 1, name=f"b{i}.up"))
            h = b.upsample_nearest(h, 2)
            cur_hw *= 2
        else:  # two branches joined by concat
            left = b.conv2d(h, base_channels, 3, padding=1, name=f"b{i}.l")
            left = act(left)
            right = b.conv2d(h, base_channels, 1, name=f"b{i}.r")
            right = act(right)
            h = b.concat(left, right, name=f"b{i}.cat")
            channels = h.shape[1]
            if rng.integers(0, 2):
                h = b.conv2d(h, channels, 1, name=f"b{i}.mix")
        if fractal_rng.integers(0, 4) == 0:
            h = _fractal_join(b, fractal_rng, h, f"b{i}.frac")
            channels = h.shape[1]
    if encoder_decoder:
        h = _encoder_decoder(b, unet_rng, h, "unet")
    if long_skip:
        if cur_hw < hw:
            stem = b.avgpool2d(stem, hw // cur_hw)
        h = b.conv2d(b.concat(h, stem, name="tail.cat"), base_channels, 1,
                     name="tail.mix")
    return b.finish(h)
