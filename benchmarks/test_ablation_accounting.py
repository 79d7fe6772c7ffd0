"""A5 — ablation: accounting policy.

The paper's Eq. 3/4 count each activation's input+output pair;
PyTorch's ``inplace=True`` ReLUs collapse it.  TeMCO's advantage must
not be an artifact of the conservative policy — this bench re-measures
Figure 10's comparison under in-place accounting.
"""

import pytest

from repro.bench import MIB, build_variants, fast_mode, format_table, variant_names_for
from repro.core import estimate_peak_internal

from _bench_util import run_once

MODELS = ("vgg16", "unet_small") if fast_mode() \
    else ("alexnet", "vgg16", "resnet18", "densenet", "unet_small")
BATCH = 2


def test_inplace_policy_ablation(benchmark, report_sink):
    def compute():
        rows = []
        for model in MODELS:
            vs = build_variants(model, batch=BATCH)
            for variant in variant_names_for(model):
                g = vs.graphs[variant]
                rows.append([model, variant,
                             estimate_peak_internal(g) / MIB,
                             estimate_peak_internal(g, inplace_activations=True) / MIB])
        return rows

    rows = run_once(benchmark, compute)
    report_sink("ablation_inplace", format_table(
        ["model", "variant", "peak MiB (Eq.3/4 policy)", "peak MiB (inplace)"],
        rows, title="A5: accounting policy (batch 2)"))

    by_model: dict[str, dict[str, tuple[float, float]]] = {}
    for model, variant, default, inplace in rows:
        by_model.setdefault(model, {})[variant] = (default, inplace)
        assert inplace <= default + 1e-9
    for model, variants in by_model.items():
        best = min(v for k, (d, v) in variants.items()
                   if k not in ("original", "decomposed"))
        _, orig_inplace = variants["original"]
        # TeMCO still wins under the in-place policy
        assert best < orig_inplace, model

