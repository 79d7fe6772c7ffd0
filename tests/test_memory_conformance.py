"""MemoryProfile <-> static prediction consistency across the model zoo.

The invariant chain the whole memory story rests on, checked end to
end on real measured runs (not estimates):

    measured ledger == the events simulate() predicts, event for event
    simulated residencies == analyze_liveness() intervals
    measured peak == static liveness prediction
    optimized measured peak < original measured peak
    measured peak == the number committed in PINNED_PEAK_BYTES
    scratch-counted peak == PINNED_SCRATCH_PEAK_BYTES >= live + tile, per site
"""

import pytest

from repro.bench import build_variants, variant_names_for
from repro.core import analyze_liveness, estimate_peak_internal, optimize
from repro.core.liveness import simulate
from repro.data import random_inputs
from repro.decompose import DecompositionConfig, decompose_graph
from repro.kernels import site_scratch_bytes
from repro.models import EXTRA_MODELS, MODEL_ZOO, build_model
from repro.plan import plan_memory
from repro.runtime import InferenceSession
from repro.runtime.executor import execute

from _fuzz import random_cnn
from _zoo_compiles import cheap, memoise_factor_solves, zoo_model

#: one plain CNN, one residual-skip net, one concat-skip net
MODELS = ("alexnet", "resnet18", "unet_small")

#: measured peak internal bytes of every variant at batch 2, hw 32,
#: Tucker 0.1, taken at PR 16.  Peaks depend only on tensor shapes and
#: the compiler's decisions, so any difference is a behaviour change:
#: growth is a regression; a deliberate improvement updates the number
#: in the same commit.  unet_small's TeMCO peak fell 81920 -> 63488 when
#: its decoder kernels began reading the concat's branches in place (the
#: concat and the upsample are no longer allocated).
PINNED_PEAK_BYTES = {
    "alexnet": {"original": 262144, "decomposed": 262144, "fusion": 32768},
    "resnet18": {"original": 262144, "decomposed": 262144,
                 "skip_opt": 262144, "skip_opt_fusion": 98304},
    "unet_small": {"original": 786432, "decomposed": 786432,
                   "skip_opt": 786432, "skip_opt_fusion": 63488},
}

#: the same runs with every fused tile charged as transient scratch
#: (``count_fused_scratch=True``), taken at PR 20 when every site ran at
#: block 32.  The gated ``peak_bytes`` never counted scratch; this is the
#: budget ``core.fusion.widen_tiles`` sizes the compiled tiles under, so
#: a wider default tile must not move it either.  The gathered decoder
#: concat took unet_small's 344064 -> 325632.
PINNED_SCRATCH_PEAK_BYTES = {
    "alexnet": {"original": 262144, "decomposed": 262144, "fusion": 80896},
    "resnet18": {"original": 262144, "decomposed": 262144,
                 "skip_opt": 262144, "skip_opt_fusion": 110592},
    "unet_small": {"original": 786432, "decomposed": 786432,
                   "skip_opt": 786432, "skip_opt_fusion": 325632},
}


@pytest.fixture(scope="module", params=MODELS)
def variants(request):
    return build_variants(request.param, batch=2, hw=32)


class TestLedgerIsTheSimulation:
    @pytest.mark.parametrize("model", sorted(MODEL_ZOO))
    def test_every_zoo_model(self, model):
        graph = build_model(model, batch=1, hw=32)
        ledger = execute(graph, random_inputs(graph, 0),
                         record_ledger=True).memory.ledger
        assert ledger == simulate(graph).events

    @pytest.mark.parametrize("model,share", [("wavenet2d", 0.8),
                                             ("fractalnet", 0.9)])
    def test_benchmark_budget_rows(self, model, share):
        # the budgeted rows of the benchmark of record: batch 4, the
        # Tucker 0.1 TeMCO graph planned to a share of its own peak
        graph, _ = optimize(decompose_graph(
            build_model(model, batch=4, hw=32), DecompositionConfig(ratio=0.1)))
        plan = plan_memory(graph, int(share * estimate_peak_internal(graph)))
        assert plan.spills or plan.remats
        ledger = execute(graph, random_inputs(graph, 0), plan=plan,
                         record_ledger=True).memory.ledger
        assert ledger == simulate(graph, actions=plan.buckets).events


def _residencies(graph):
    """``{value: (alloc index, free index)}`` read off the events
    ``simulate`` predicts; a value never freed (a graph output) stays
    resident to the last index."""
    last = len(graph.nodes) - 1
    events = simulate(graph).events
    allocs = [e for e in events if e.action == "alloc" and e.nbytes > 0]
    frees = {e.value: e.node_index for e in events if e.action == "free"}
    spans = {e.value: (e.node_index, frees.get(e.value, last))
             for e in allocs}
    assert len(spans) == len(allocs), "a value was allocated twice"
    return spans


def _liveness(graph):
    return {v.name: (iv.begin, iv.end)
            for v, iv in analyze_liveness(graph).items() if v.nbytes > 0}


def _three_variants(graph):
    decomposed = decompose_graph(graph, cheap("tucker"))
    return {"original": graph, "decomposed": decomposed,
            "temco": optimize(decomposed)[0]}


class TestResidencyIsLiveness:
    """The intervals the planner and skip-opt read are the frees the
    executor makes: every tensor the allocator holds is resident from
    its ``analyze_liveness`` begin to its end, and nothing else is."""

    @pytest.fixture(autouse=True)
    def _factor_once(self, monkeypatch):
        memoise_factor_solves(monkeypatch)

    @pytest.mark.parametrize("model", sorted(MODEL_ZOO) + sorted(EXTRA_MODELS))
    def test_every_zoo_model(self, model):
        for variant, graph in _three_variants(zoo_model(model)).items():
            assert _residencies(graph) == _liveness(graph), (model, variant)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_cnns(self, seed):
        variants = _three_variants(random_cnn(seed, max_blocks=3, strays=True))
        for variant, graph in variants.items():
            assert _residencies(graph) == _liveness(graph), (seed, variant)


class TestMeasuredVsPredicted:
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
