"""repro.tune.tuner: the exhaustive sweep, cache integration, compiler hook."""

import math

import numpy as np
import pytest

from repro.core import (FusionConfig, TeMCOConfig, estimate_peak_internal,
                        optimize)
from repro.decompose import DecompositionConfig, decompose_graph
from repro.obs import Tracer, use_tracer
from repro.runtime import InferenceSession
from repro.tune import (TuneCache, TuneConfig, apply_overrides,
                        cached_overrides, collect_sites, load_cached_plan,
                        site_candidates, tune_graph, tune_model)
from repro.tune import tuner as tuner_mod

from _graph_fixtures import make_chain_graph, random_input

FAST = TuneConfig(repeats=1)


def optimized_chain(**kwargs):
    graph = make_chain_graph(**kwargs)
    optimized, _report = optimize(
        decompose_graph(graph, DecompositionConfig(seed=0)))
    return graph, optimized


class TestTuneGraph:
    def test_covers_every_site(self):
        _graph, optimized = optimized_chain()
        result = tune_graph(optimized, FAST)
        assert {s.node for s in result.sites} == \
            {n.name for n in collect_sites(optimized)}
        assert result.total_trials >= len(result.sites)

    def test_does_not_modify_graph(self):
        _graph, optimized = optimized_chain()
        before = {n.name: (n.attrs.get("block_size"),
                           n.attrs.get("spatial_tile"))
                  for n in collect_sites(optimized)}
        tune_graph(optimized, FAST)
        after = {n.name: (n.attrs.get("block_size"),
                          n.attrs.get("spatial_tile"))
                 for n in collect_sites(optimized)}
        assert before == after

    def test_no_sites_is_a_noop(self):
        graph = make_chain_graph()  # unfused: no fused_block nodes
        result = tune_graph(graph, FAST)
        assert result.sites == []

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            TuneConfig(repeats=0)


def bowl(site, block, tile):
    """Unimodal: one minimum at (16, 0)."""
    return 1.0 + abs(math.log2(block) - 4) + tile / 8


def pit(site, block, tile):
    """Non-unimodal: tile 0 slopes gently down to the widest block and
    tile 8 is a plateau twice as slow, except one pit at (4, 8).  The
    hill-climb this sweep replaced seeded at the default, the blocking
    extremes of tile 0 and the model's favourite, climbed to the widest
    block and stopped there — (4, 8) is no neighbour of anything it
    measured (checked on the parent commit: it returned (128, 0))."""
    if tile:
        return 0.1 if block == 4 else 2.0
    return 1.0 - 0.001 * math.log2(block)


def scattered(site, block, tile):
    """No structure at all, and a different table per kind of site."""
    shift = 7 * site.startswith("fused_restore")
    return 1.0 + (block * 31 + tile * 17 + shift) % 101 / 101


@pytest.fixture
def fake_timer(monkeypatch):
    """Replace the per-site timer by a function of (site, block, tile);
    returns the installer, which also hands back the call log."""
    def install(surface):
        calls = []

        def timer(node, x, block_size, spatial_tile, repeats):
            calls.append((node.name, block_size, spatial_tile))
            return surface(node.name, block_size, spatial_tile)

        monkeypatch.setattr(tuner_mod, "_site_seconds", timer)
        return calls
    return install


class TestExhaustiveSweep:
    """With a deterministic timer the pick is provably the best point."""

    @pytest.mark.parametrize(("surface", "first_pick"), [
        (bowl, (16, 0)), (pit, (4, 8)), (scattered, (32, 8))],
        ids=["bowl", "pit", "scattered"])
    def test_every_candidate_measured_once_and_argmin_wins(
            self, fake_timer, surface, first_pick):
        # 64 channels at hw 16: the first site has a 6 x 2 grid
        _graph, optimized = optimized_chain(channels=64, hw=16)
        calls = fake_timer(surface)
        tracer = Tracer()
        with use_tracer(tracer):
            result = tune_graph(optimized, FAST)
        sites = collect_sites(optimized)
        assert len(site_candidates(sites[0])) == 12
        for node, rec in zip(sites, result.sites):
            candidates = site_candidates(node)
            compiled = (node.attrs["block_size"], node.attrs["spatial_tile"])
            if compiled not in candidates:  # a slack-widened block, off the grid
                candidates.append(compiled)
            mine = [(b, t) for name, b, t in calls if name == node.name]
            assert sorted(mine) == sorted(candidates)  # all, each once
            assert rec.trials == len(candidates)
            trials = {(d["args"]["block_size"], d["args"]["spatial_tile"]):
                      d["args"]["seconds"]
                      for d in tracer.decisions_for(verdict="trial")
                      if d["args"]["subject"] == node.name}
            assert len(trials) == len(candidates)
            best = min(trials, key=trials.get)
            assert (rec.block_size, rec.spatial_tile) == best
            assert rec.seconds == surface(node.name, *best)
            assert rec.baseline_seconds == surface(
                node.name, node.attrs["block_size"],
                node.attrs["spatial_tile"])
        assert result.total_trials == len(calls)
        first = result.sites[0]
        assert (first.block_size, first.spatial_tile) == first_pick

    def test_ties_go_to_the_compiled_tile(self, fake_timer):
        _graph, optimized = optimized_chain(channels=64, hw=16)
        fake_timer(lambda site, block, tile: 1.0)
        result = tune_graph(optimized, FAST)
        for node, rec in zip(collect_sites(optimized), result.sites):
            assert (rec.block_size, rec.spatial_tile) == \
                (node.attrs["block_size"], node.attrs["spatial_tile"])

    def test_only_the_compiled_tile_is_a_noop(self, fake_timer, monkeypatch):
        _graph, optimized = optimized_chain()  # C' = 32: compiled (32, 0)
        calls = fake_timer(bowl)
        monkeypatch.setattr(tuner_mod, "SPATIAL_TILES", (0,))
        result = tune_graph(optimized, TuneConfig(
            repeats=1, block_sizes=(32,)))
        assert len(calls) == len(result.sites)
        assert all((s.block_size, s.spatial_tile, s.trials) == (32, 0, 1)
                   and s.seconds == s.baseline_seconds
                   for s in result.sites)

    def test_compiled_tile_off_the_grid_is_still_priced(self, fake_timer):
        graph = make_chain_graph()
        optimized, _report = optimize(
            decompose_graph(graph, DecompositionConfig(seed=0)),
            TeMCOConfig(fusion=FusionConfig(block_size=5)))
        calls = fake_timer(lambda site, block, tile: 1.0)
        result = tune_graph(optimized, FAST)
        assert all((name, 5, 0) in calls
                   for name in {n.name for n in collect_sites(optimized)})
        assert all(s.block_size == 5 for s in result.sites)  # the tie rule


class TestApplyOverrides:
    def test_patches_matching_sites(self):
        _graph, optimized = optimized_chain()
        sites = collect_sites(optimized)
        key = sites[0].attrs["fused_from"][0]
        assert apply_overrides(optimized, {key: (2, 0)}) == 1
        assert sites[0].attrs["block_size"] == 2

    def test_clamps_oversized_block(self):
        _graph, optimized = optimized_chain()
        sites = collect_sites(optimized)
        key = sites[0].attrs["fused_from"][0]
        apply_overrides(optimized, {key: (10 ** 6, 0)})
        assert sites[0].attrs["block_size"] == sites[0].params["w1"].shape[0]

    def test_unknown_keys_ignored(self):
        _graph, optimized = optimized_chain()
        assert apply_overrides(optimized, {"nope": (4, 0)}) == 0

    def test_tiles_do_not_change_outputs(self):
        graph, optimized = optimized_chain()
        x = random_input(optimized)
        want = InferenceSession(optimized).run(x).outputs
        overrides = {n.attrs["fused_from"][0]: (3, 8)
                     for n in collect_sites(optimized)}
        work = optimized.clone()
        assert apply_overrides(work, overrides) == len(overrides)
        got = InferenceSession(work).run(x).outputs
        for name in want:
            np.testing.assert_allclose(got[name], want[name],
                                       rtol=1e-4, atol=1e-5)


class TestTuneModel:
    def test_miss_then_hit(self, tmp_path):
        cache = TuneCache(tmp_path)
        graph = make_chain_graph()
        plan1, rec1, hit1 = tune_model(graph, cache=cache, config=FAST)
        assert not hit1
        assert cache.record_path(rec1.key).is_file()
        assert cache.plan_path(rec1.key).is_file()
        plan2, rec2, hit2 = tune_model(graph, cache=cache, config=FAST)
        assert hit2 and rec2.key == rec1.key
        assert [n.name for n in plan2.nodes] == [n.name for n in plan1.nodes]

    def test_graph_edit_invalidates(self, tmp_path):
        cache = TuneCache(tmp_path)
        graph = make_chain_graph()
        tune_model(graph, cache=cache, config=FAST)
        edited = graph.clone()
        node = next(n for n in edited.nodes if "weight" in n.params)
        node.params["weight"] = node.params["weight"] * np.float32(1.01)
        _plan, _rec, hit = tune_model(edited, cache=cache, config=FAST)
        assert not hit

    def test_force_retunes(self, tmp_path):
        cache = TuneCache(tmp_path)
        graph = make_chain_graph()
        tune_model(graph, cache=cache, config=FAST)
        _plan, _rec, hit = tune_model(graph, cache=cache, config=FAST,
                                      force=True)
        assert not hit

    def test_plan_matches_default_compile_numerically(self, tmp_path):
        cache = TuneCache(tmp_path)
        graph = make_chain_graph()
        plan, _rec, _hit = tune_model(graph, cache=cache, config=FAST)
        reference, _report = optimize(
            decompose_graph(graph, DecompositionConfig(seed=0)))
        x = random_input(reference)
        want = InferenceSession(reference).run(x).outputs
        got = InferenceSession(plan).run(x).outputs
        for name in want:
            np.testing.assert_allclose(got[name], want[name],
                                       rtol=1e-4, atol=1e-5)

    def test_peak_internal_bytes_never_regress(self, tmp_path):
        cache = TuneCache(tmp_path)
        graph = make_chain_graph()
        _plan, rec, _hit = tune_model(graph, cache=cache, config=FAST)
        reference, _report = optimize(
            decompose_graph(graph, DecompositionConfig(seed=0)))
        assert rec.peak_internal_bytes == estimate_peak_internal(reference)

    def test_ab_guard_falls_back_when_tuned_loses(self, tmp_path, monkeypatch):
        from repro.kernels import DEFAULT_BLOCK_SIZE
        # whole-graph timings: default fast, tuned slow
        seconds = iter([0.001, 0.1])
        monkeypatch.setattr(tuner_mod, "_graph_seconds",
                            lambda *a, **k: next(seconds))
        cache = TuneCache(tmp_path)
        _plan, rec, _hit = tune_model(make_chain_graph(), cache=cache,
                                      config=FAST)
        assert rec.fell_back_to_default
        assert all(s.block_size == DEFAULT_BLOCK_SIZE and s.spatial_tile == 0
                   for s in rec.sites)

    def test_ab_guard_falls_back_to_the_compiled_tiles(self, tmp_path,
                                                       monkeypatch):
        # compiled at block 8: a lost A/B must restore 8 — the tiles the
        # "default" whole-graph time was taken at — not block 32
        seconds = iter([0.001, 0.1])
        monkeypatch.setattr(tuner_mod, "_graph_seconds",
                            lambda *a, **k: next(seconds))
        temco = TeMCOConfig(fusion=FusionConfig(block_size=8))
        plan, rec, _hit = tune_model(make_chain_graph(),
                                     cache=TuneCache(tmp_path), temco=temco,
                                     config=FAST)
        assert rec.fell_back_to_default
        assert all((s.block_size, s.spatial_tile) == (8, 0)
                   for s in rec.sites)
        assert all((n.attrs["block_size"], n.attrs["spatial_tile"]) == (8, 0)
                   for n in collect_sites(plan))

    def test_emits_tune_decisions(self, tmp_path):
        cache = TuneCache(tmp_path)
        graph = make_chain_graph()
        tracer = Tracer()
        with use_tracer(tracer):
            tune_model(graph, cache=cache, config=FAST)
            tune_model(graph, cache=cache, config=FAST)
        verdicts = {d["args"]["verdict"] for d in tracer.decisions_for("tune")}
        assert {"cache_miss", "trial", "select",
                "cache_store", "cache_hit"} <= verdicts
        assert any(s["ph"] == "X" and s["name"] == "tune.site"
                   for s in tracer.events)


class TestLookupHooks:
    def test_cached_overrides_miss_is_none(self, tmp_path):
        assert cached_overrides(make_chain_graph(),
                                cache=TuneCache(tmp_path),
                                config=FAST) is None

    def test_cached_overrides_hit(self, tmp_path):
        cache = TuneCache(tmp_path)
        graph = make_chain_graph()
        _plan, rec, _hit = tune_model(graph, cache=cache, config=FAST)
        overrides = cached_overrides(graph, cache=cache, config=FAST)
        if rec.fell_back_to_default:
            assert overrides == {}
        else:
            assert overrides == rec.overrides

    def test_load_cached_plan(self, tmp_path):
        cache = TuneCache(tmp_path)
        graph = make_chain_graph()
        assert load_cached_plan(graph, cache=cache, config=FAST) is None
        plan, rec, _hit = tune_model(graph, cache=cache, config=FAST)
        cached = load_cached_plan(graph, cache=cache, config=FAST)
        assert cached is not None
        got_plan, got_rec = cached
        assert got_rec.key == rec.key
        assert [n.name for n in got_plan.nodes] == [n.name for n in plan.nodes]


class TestCompilerHook:
    def test_optimize_applies_tuner_overrides(self):
        graph = make_chain_graph()
        decomposed = decompose_graph(graph, DecompositionConfig(seed=0))
        plain, _report = optimize(decomposed)
        overrides = {n.attrs["fused_from"][0]: (2, 0)
                     for n in collect_sites(plain)}
        tuned, _report = optimize(decomposed, TeMCOConfig(
            fusion=FusionConfig(site_overrides=overrides)))
        assert all(n.attrs["block_size"] == 2 for n in collect_sites(tuned))

    def test_none_and_empty_tuner_results_are_noops(self):
        graph = make_chain_graph()
        decomposed = decompose_graph(graph, DecompositionConfig(seed=0))
        plain, _report = optimize(decomposed)
        for result in (None, {}):
            tuned, _report = optimize(decomposed, TeMCOConfig(
                fusion=FusionConfig(site_overrides=result)))
            assert {(n.name, n.attrs["block_size"])
                    for n in collect_sites(tuned)} == \
                {(n.name, n.attrs["block_size"])
                 for n in collect_sites(plain)}


@pytest.fixture
def factorise_once(decomposed, monkeypatch):
    """``use_tuned_fusion`` clears ``build_variants``' memo on entry and
    exit (by design); only the fused tiles differ between the rebuilds,
    so the factorisation underneath comes from the session cache."""
    monkeypatch.setattr(
        "repro.bench.harness.decompose_graph",
        lambda original, config: decomposed(
            original.name, original.inputs[0].shape[2], config.method,
            config.ratio, batch=original.inputs[0].shape[0]))


@pytest.mark.usefixtures("factorise_once")
class TestHarnessHook:
    def test_use_tuned_fusion_patches_variants(self):
        from repro.bench import build_variants, use_tuned_fusion

        def fused_tiles(vs):
            return {n.name: n.attrs["block_size"]
                    for n in vs.graphs["fusion"].nodes
                    if n.op.startswith("fused")}

        untuned = build_variants("alexnet", batch=1, hw=16)
        keys = [n.attrs["fused_from"][0]
                for n in untuned.graphs["fusion"].nodes
                if n.op.startswith("fused")]
        assert keys
        calls = []

        def lookup(original, config):
            calls.append(original.name)
            return {k: (5, 0) for k in keys}

        with use_tuned_fusion(lookup):
            tuned = build_variants("alexnet", batch=1, hw=16)
        assert calls
        for node in tuned.graphs["fusion"].nodes:
            if node.op.startswith("fused"):
                assert node.attrs["block_size"] == \
                    min(5, node.params["w1"].shape[0])
        # memo cache cleared on exit: untuned builds come back untouched
        after = build_variants("alexnet", batch=1, hw=16)
        assert fused_tiles(after) == fused_tiles(untuned)

    def test_lookup_miss_builds_untuned(self):
        from repro.bench import build_variants, use_tuned_fusion
        untuned = build_variants("alexnet", batch=1, hw=16)
        with use_tuned_fusion(lambda original, config: None):
            vs = build_variants("alexnet", batch=1, hw=16)
        assert {n.name: n.attrs.get("block_size")
                for n in vs.graphs["fusion"].nodes} == \
            {n.name: n.attrs.get("block_size")
             for n in untuned.graphs["fusion"].nodes}
