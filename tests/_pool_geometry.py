"""The pooling-window sweep shared by the standalone pool tests
(``test_kernels_pool_act``) and the fused kernels' equivalence sweep
(``test_kernels_fused``)."""

from __future__ import annotations

from hypothesis import strategies as st


@st.composite
def pool_geometry(draw):
    """``(pool, (H, W), spatial_tile)``: a max or average window with
    kernel 1–3, stride 1–3 and padding 0..k//2 per axis (even kernels
    included) over an odd or even input as small as one row, so some
    windows touch both borders — or, half the time, a non-overlapping
    unpadded window with an exact spatial tile of a larger input."""
    kind = draw(st.sampled_from(["max", "avg"]))
    if draw(st.booleans()):
        # the tile divides the input and the stride divides the tile
        k = draw(st.integers(1, 3))
        tile = k * draw(st.integers(1, 2))
        hw = (tile * draw(st.integers(1, 3)), tile * draw(st.integers(2, 3)))
        pool = {"kind": kind, "kernel": (k, k), "stride": (k, k),
                "padding": (0, 0)}
        return pool, hw, tile
    kernel = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    padding = tuple(draw(st.integers(0, k // 2)) for k in kernel)
    hw = tuple(draw(st.integers(max(1, k - 2 * p), 9))
               for k, p in zip(kernel, padding))
    pool = {"kind": kind, "kernel": kernel, "stride": stride,
            "padding": padding}
    # a tile the kernel refuses (overlapping or padded windows, or one
    # that does not divide the input) falls back to the whole plane
    return pool, hw, draw(st.sampled_from([0, 2, 4]))
