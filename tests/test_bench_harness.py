"""Benchmark harness: variant building, tables, figure drivers (small sizes)."""

import numpy as np
import pytest

from repro.bench import (build_variants, figure4, figure10, figure12,
                         format_table, geomean, internal_reduction_geomean,
                         overhead_ratios, variant_names_for)
from repro.bench.figures import Figure11Row
from repro.core import assert_equivalent


class TestHarness:
    def test_variant_names_follow_paper(self):
        assert variant_names_for("vgg16") == ["original", "decomposed", "fusion"]
        assert variant_names_for("unet") == ["original", "decomposed",
                                             "skip_opt", "skip_opt_fusion"]

    def test_build_variants_cached(self):
        a = build_variants("unet_small", batch=1, hw=32)
        assert build_variants("unet_small", batch=1, hw=32) is a
        # however the call is spelled
        assert build_variants("unet_small", 1, 32) is a
        assert build_variants(model="unet_small", hw=32, batch=1, ratio=0.1,
                              seed=0, method="tucker") is a
        # hw=None is the model's default resolution (wavenet2d: 32)
        assert build_variants("wavenet2d", batch=1) \
            is build_variants("wavenet2d", 1, 32)

    def test_variants_are_equivalent(self):
        vs = build_variants("unet_small", batch=1, hw=32)
        inputs = vs.input_batch()
        assert_equivalent(vs.graphs["decomposed"], vs.graphs["skip_opt_fusion"],
                          inputs, rtol=2e-3)

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_format_table(self):
        text = format_table(["a", "bb"], [["x", 1.5], ["y", 2.0]], title="T")
        assert "T" in text and "1.500" in text and "bb" in text


class TestFigureDrivers:
    def test_figure4_structure(self):
        result = figure4("unet_small", batch=1, hw=32)
        assert set(result.timelines) == {"original", "decomposed"}
        assert result.peaks["decomposed"] > 0
        assert 0.0 <= result.skip_share_decomposed <= 1.0
        for series in result.timelines.values():
            assert len(series) > 10

    def test_figure10_rows_and_reduction(self):
        rows = figure10(models=["alexnet", "unet_small"], batch=1, hw=32)
        models = {r.model for r in rows}
        assert models == {"alexnet", "unet_small"}
        for row in rows:
            assert row.weight_mib > 0 and row.internal_mib > 0
        reduction = internal_reduction_geomean(rows)
        assert 0.0 < reduction < 1.0

    def test_figure12_agreement_is_perfect(self):
        rows = figure12(models=["unet_small"], batch=2, hw=32)
        for row in rows:
            assert row.agreement_with_decomposed == pytest.approx(1.0)

    def test_overhead_ratio_math(self):
        rows = [
            Figure11Row("m1", "decomposed", 4, 1.0),
            Figure11Row("m1", "fusion", 4, 1.5),
            Figure11Row("m2", "decomposed", 4, 2.0),
            Figure11Row("m2", "fusion", 4, 2.0),
        ]
        ratios = overhead_ratios(rows)
        assert ratios[4] == pytest.approx((1.5 * 1.0) ** 0.5)
