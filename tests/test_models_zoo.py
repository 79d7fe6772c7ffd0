"""Model zoo: structure, determinism, and end-to-end TeMCO compatibility."""

import numpy as np
import pytest

from repro.core import optimize
from repro.models import (MODEL_ZOO, build_densenet, build_model, build_resnet,
                          build_unet, build_vgg, model_names)
from repro.runtime import execute

from _graph_fixtures import random_input

SMALL = {"alexnet": 32, "vgg11": 32, "vgg13": 32, "vgg16": 32, "vgg19": 32,
         "resnet18": 32, "resnet34": 32, "densenet": 32, "unet": 32,
         "unet_small": 32, "wavenet2d": 32, "fractalnet": 32}


class TestZooRegistry:
    def test_twelve_models_seven_families(self):
        # the paper's 10 models of 5 families, plus the two long-skip
        # stacks that exercise the budget planner
        assert len(MODEL_ZOO) == 12
        assert len({spec.family for spec in MODEL_ZOO.values()}) == 7

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError, match="unknown model"):
            build_model("resnet50")

    def test_specs_declare_skip_connections_correctly(self):
        from repro.core import find_skip_connections
        for name, spec in MODEL_ZOO.items():
            g = build_model(name, batch=1, hw=SMALL[name])
            # a ResNet basic block is only ~4 nodes once BN is folded, so
            # probe with a slightly tighter threshold than the default
            has_skips = bool(find_skip_connections(g, 3))
            assert has_skips == spec.has_skip_connections, name


@pytest.mark.parametrize("name", model_names())
class TestEveryModel:
    def test_builds_and_validates(self, name):
        g = build_model(name, batch=1, hw=SMALL[name])
        g.validate()
        assert g.inputs[0].shape[0] == 1

    def test_deterministic(self, name):
        g1 = build_model(name, batch=1, hw=SMALL[name], seed=3)
        g2 = build_model(name, batch=1, hw=SMALL[name], seed=3)
        for n1, n2 in zip(g1.nodes, g2.nodes):
            assert n1.name == n2.name
            for k in n1.params:
                np.testing.assert_array_equal(n1.params[k], n2.params[k])

    def test_runs_and_produces_finite_output(self, name):
        g = build_model(name, batch=1, hw=SMALL[name])
        out = execute(g, random_input(g)).output()
        assert np.isfinite(out).all()
        if MODEL_ZOO[name].task == "classification":
            assert out.shape == (1, 10)
        else:
            assert out.shape[1] == 1
            assert ((out >= 0) & (out <= 1)).all()  # sigmoid mask

    def test_no_batchnorm_remains(self, name):
        g = build_model(name, batch=1, hw=SMALL[name])
        assert not any(n.op == "batchnorm2d" for n in g.nodes)

    def test_decompose_and_optimize_preserve_outputs(self, name, decomposed):
        dg = decomposed(name, SMALL[name])
        opt, report = optimize(dg)
        inp = random_input(dg)
        a = execute(dg, inp).output()
        b = execute(opt, inp).output()
        scale = max(1e-6, float(np.abs(a).max()))
        assert np.abs(a - b).max() <= 5e-4 * scale + 1e-6
        assert report.peak_after <= report.peak_before


class TestBuilderValidation:
    def test_vgg_bad_variant(self):
        with pytest.raises(ValueError, match="unknown VGG"):
            build_vgg("vgg7")

    def test_vgg_bad_resolution(self):
        with pytest.raises(ValueError, match="divisible by 32"):
            build_vgg("vgg11", hw=40)

    def test_resnet_bad_variant(self):
        with pytest.raises(ValueError, match="unknown ResNet"):
            build_resnet("resnet99")

    def test_densenet_bad_variant(self):
        with pytest.raises(ValueError, match="unknown DenseNet"):
            build_densenet("densenet161")

    def test_unet_bad_resolution(self):
        with pytest.raises(ValueError, match="divisible"):
            build_unet(hw=50)

    def test_unet_transpose_variant(self):
        g = build_unet(batch=1, hw=32, depth=2, base_channels=8,
                       use_transpose=True)
        assert any(n.op == "conv_transpose2d" for n in g.nodes)
        out = execute(g, random_input(g)).output()
        assert np.isfinite(out).all()

    def test_densenet_channel_growth(self):
        g = build_densenet(batch=1, hw=32)
        concats = [n for n in g.nodes if n.op == "concat"]
        widths = [n.output.shape[1] for n in concats]
        # widths grow within each dense block
        assert any(b > a for a, b in zip(widths, widths[1:]))
