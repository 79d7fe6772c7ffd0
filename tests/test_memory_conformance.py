"""MemoryProfile <-> arena consistency across the model zoo.

The invariant chain the whole memory story rests on, checked end to
end on real measured runs (not estimates):

    measured peak == static liveness prediction
    measured max-live <= arena plan lower bound <= arena total bytes
    optimized measured peak < original measured peak
    measured peak == the number committed in PINNED_PEAK_BYTES
    scratch-counted peak == PINNED_SCRATCH_PEAK_BYTES >= live + tile, per site
"""

import pytest

from repro.bench import build_variants, variant_names_for
from repro.core import estimate_peak_internal
from repro.core.liveness import simulate
from repro.kernels import site_scratch_bytes
from repro.runtime import InferenceSession, plan_arena
from repro.runtime.executor import execute

#: one plain CNN, one residual-skip net, one concat-skip net
MODELS = ("alexnet", "resnet18", "unet_small")

#: measured peak internal bytes of every variant at batch 2, hw 32,
#: Tucker 0.1, taken at PR 16.  Peaks depend only on tensor shapes and
#: the compiler's decisions, so any difference is a behaviour change:
#: growth is a regression; a deliberate improvement updates the number
#: in the same commit.
PINNED_PEAK_BYTES = {
    "alexnet": {"original": 262144, "decomposed": 262144, "fusion": 32768},
    "resnet18": {"original": 262144, "decomposed": 262144,
                 "skip_opt": 262144, "skip_opt_fusion": 98304},
    "unet_small": {"original": 786432, "decomposed": 786432,
                   "skip_opt": 786432, "skip_opt_fusion": 81920},
}

#: the same runs with every fused tile charged as transient scratch
#: (``count_fused_scratch=True``), taken at PR 20 when every site ran at
#: block 32.  The gated ``peak_bytes`` never counted scratch; this is the
#: budget ``core.fusion.widen_tiles`` sizes the compiled tiles under, so
#: a wider default tile must not move it either.
PINNED_SCRATCH_PEAK_BYTES = {
    "alexnet": {"original": 262144, "decomposed": 262144, "fusion": 80896},
    "resnet18": {"original": 262144, "decomposed": 262144,
                 "skip_opt": 262144, "skip_opt_fusion": 110592},
    "unet_small": {"original": 786432, "decomposed": 786432,
                   "skip_opt": 786432, "skip_opt_fusion": 344064},
}


@pytest.fixture(scope="module", params=MODELS)
def variants(request):
    return build_variants(request.param, batch=2, hw=32)


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


class TestPinnedPeaks:
    def test_every_variant_measures_its_committed_peak(self, variants):
        inputs = variants.input_batch()
        measured = {
            name: InferenceSession(variants.graphs[name]).run(
                inputs).memory.peak_internal_bytes
            for name in variant_names_for(variants.model)}
        assert measured == PINNED_PEAK_BYTES[variants.model]

    def test_every_variant_measures_its_committed_scratch_counted_peak(
            self, variants):
        inputs = variants.input_batch()
        pinned = PINNED_SCRATCH_PEAK_BYTES[variants.model]
        measured = {
            name: execute(variants.graphs[name], inputs,
                          count_fused_scratch=True).memory.peak_internal_bytes
            for name in variant_names_for(variants.model)}
        assert measured == pinned
        for name, graph in variants.graphs.items():
            live = simulate(graph).live
            for index, node in enumerate(graph.nodes):
                assert live[index] + site_scratch_bytes(node) <= pinned[name], \
                    (variants.model, name, node.name)


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
