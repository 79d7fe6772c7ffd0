"""MemoryProfile <-> arena consistency across the model zoo.

The invariant chain the whole memory story rests on, checked end to
end on real measured runs (not estimates):

    measured peak == static liveness prediction
    measured max-live <= arena plan lower bound <= arena total bytes
    optimized measured peak < original measured peak
"""

import pytest

from repro.bench import build_variants, variant_names_for
from repro.core import estimate_peak_internal
from repro.runtime import InferenceSession, plan_arena
from repro.runtime.executor import execute

#: one plain CNN, one residual-skip net, one concat-skip net
MODELS = ("alexnet", "resnet18", "unet_small")


@pytest.fixture(scope="module", params=MODELS)
def variants(request):
    # spelled as audit_model spells it, so TestAuditZoo hits
    # build_variants' memo instead of factorising the model again
    return build_variants(request.param, batch=2, hw=32, ratio=0.1, seed=0,
                          method="tucker")


class TestMeasuredVsArena:
    def test_measured_max_live_never_exceeds_arena(self, variants):
        inputs = variants.input_batch()
        for name in variant_names_for(variants.model):
            graph = variants.graphs[name]
            result = execute(graph, inputs, record_ledger=True)
            plan = plan_arena(graph)
            max_live = result.memory.ledger.max_live_bytes
            assert max_live <= plan.peak_lower_bound, (variants.model, name)
            assert plan.peak_lower_bound <= plan.arena_bytes

    def test_measured_peak_equals_static_prediction(self, variants):
        inputs = variants.input_batch()
        for name in variant_names_for(variants.model):
            graph = variants.graphs[name]
            profile = InferenceSession(graph).run(inputs).memory
            assert profile.peak_internal_bytes == \
                estimate_peak_internal(graph), (variants.model, name)


class TestOptimizedStrictlyLower:
    def test_best_variant_measures_strictly_below_original(self, variants):
        inputs = variants.input_batch()
        best = variant_names_for(variants.model)[-1]
        original = InferenceSession(
            variants.graphs["original"]).run(inputs).memory
        optimized = InferenceSession(
            variants.graphs[best]).run(inputs).memory
        assert optimized.peak_internal_bytes < original.peak_internal_bytes, \
            variants.model


class TestAuditZoo:
    def test_audit_model_passes_for_each(self, variants):
        from repro.obs.audit import audit_model
        result = audit_model(variants.model, batch=2, hw=32)
        assert result.passed, [f.message for f in result.all_findings()]
        assert result.reduction_pct > 0.0
