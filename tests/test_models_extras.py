"""Extra model variants: build, run, and full TeMCO compatibility."""

import numpy as np
import pytest

from repro.core import optimize
from repro.models import EXTRA_MODELS, build_extra
from repro.runtime import execute

from _graph_fixtures import random_input


class TestExtraRegistry:
    def test_three_extras(self):
        assert set(EXTRA_MODELS) == {"resnet_bottleneck", "vgg11_silu",
                                     "unet_transpose"}

    def test_unknown_rejected(self):
        with pytest.raises(KeyError, match="unknown extra"):
            build_extra("resnext")


@pytest.mark.parametrize("name", sorted(EXTRA_MODELS))
class TestExtraModels:
    def test_builds_and_runs(self, name):
        g = build_extra(name, batch=1, hw=32)
        g.validate()
        out = execute(g, random_input(g)).output()
        assert np.isfinite(out).all()

    def test_temco_end_to_end(self, name, decomposed):
        dg = decomposed(name, 32)
        opt, report = optimize(dg)
        inp = random_input(dg)
        a = execute(dg, inp).output()
        b = execute(opt, inp).output()
        scale = max(1e-6, float(np.abs(a).max()))
        assert np.abs(a - b).max() <= 5e-4 * scale + 1e-6
        assert report.peak_after <= report.peak_before


class TestExtraSpecifics:
    def test_bottleneck_has_pointwise_pairs(self):
        from repro.ir import ops
        g = build_extra("resnet_bottleneck", batch=1, hw=32)
        pointwise = [n for n in g.nodes if n.op == "conv2d"
                     and n.params["weight"].shape[2:] == (1, 1)]
        assert len(pointwise) >= 6  # reduce/expand per block

    def test_vgg_silu_uses_silu(self):
        g = build_extra("vgg11_silu", batch=1, hw=32)
        assert sum(1 for n in g.nodes if n.op == "silu") >= 8
        # only the classifier head's hidden layer may use relu
        assert sum(1 for n in g.nodes if n.op == "relu") <= 1

    def test_vgg_silu_fusion_produces_silu_kernels(self, decomposed):
        opt, report = optimize(decomposed("vgg11_silu", 32))
        fused_acts = {n.attrs.get("act") for n in opt.nodes
                      if n.op.startswith("fused")}
        assert "silu" in fused_acts

    def test_unet_transpose_keeps_transpose_convs(self):
        g = build_extra("unet_transpose", batch=1, hw=32)
        assert any(n.op == "conv_transpose2d" for n in g.nodes)
