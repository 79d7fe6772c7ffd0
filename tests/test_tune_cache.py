"""repro.tune.cache: content addressing, persistence, corruption handling."""

import json
import logging

import numpy as np
import pytest

from repro.tune import (CACHE_VERSION, SiteRecord, TuneCache, TuneRecord,
                        default_cache_dir)
from repro.tune.cache import new_record

from _graph_fixtures import make_chain_graph


@pytest.fixture
def cache(tmp_path):
    return TuneCache(tmp_path / "tune-cache")


def make_record(key: str) -> TuneRecord:
    record = new_record(key, "chain")
    record.sites = [SiteRecord(site_key="c1", node="fused[c1+c2]",
                               block_size=16, spatial_tile=8,
                               seconds=0.001, baseline_seconds=0.002,
                               scratch_bytes=4096,
                               baseline_scratch_bytes=8192, trials=4)]
    record.total_trials = 4
    return record


class TestKeying:
    def test_key_stable_across_clone(self, cache):
        graph = make_chain_graph()
        assert cache.key_for(graph) == cache.key_for(graph.clone("other"))

    def test_key_changes_on_weight_edit(self, cache):
        graph = make_chain_graph()
        edited = graph.clone()
        node = next(n for n in edited.nodes if "weight" in n.params)
        node.params["weight"] = node.params["weight"] + np.float32(0.5)
        assert cache.key_for(graph) != cache.key_for(edited)

    def test_key_changes_on_structure_edit(self, cache):
        a, b = make_chain_graph(channels=16), make_chain_graph(channels=8)
        assert cache.key_for(a) != cache.key_for(b)

    def test_extra_settings_change_key(self, cache):
        graph = make_chain_graph()
        assert (cache.key_for(graph, extra={"fusion_block_size": 32})
                != cache.key_for(graph, extra={"fusion_block_size": 16}))


class TestRoundtrip:
    def test_store_then_load(self, cache):
        record = make_record("k" * 32)
        cache.store(record)
        loaded = cache.load(record.key)
        assert loaded is not None
        assert loaded.overrides == {"c1": (16, 8)}
        assert loaded.sites[0].seconds == pytest.approx(0.001)
        assert loaded.hardware == record.hardware

    def test_miss_returns_none(self, cache):
        assert cache.load("absent" * 5) is None
        assert cache.load_plan("absent" * 5) is None

    def test_plan_roundtrip_executes(self, cache):
        from repro.runtime import InferenceSession
        graph = make_chain_graph()
        record = make_record("p" * 32)
        cache.store(record, plan=graph)
        plan = cache.load_plan(record.key)
        assert plan is not None
        rng = np.random.default_rng(0)
        x = {"x": rng.normal(size=graph.inputs[0].shape).astype(np.float32)}
        want = InferenceSession(graph).run(x).outputs
        got = InferenceSession(plan).run(x).outputs
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-5)

    def test_entries_lists_stored_keys(self, cache):
        assert cache.entries() == []
        cache.store(make_record("a" * 32))
        cache.store(make_record("b" * 32))
        assert cache.entries() == ["a" * 32, "b" * 32]


class TestCorruption:
    def test_corrupt_json_ignored_with_warning(self, cache, caplog):
        record = make_record("c" * 32)
        cache.store(record)
        cache.record_path(record.key).write_text("{not json!!")
        with caplog.at_level(logging.WARNING, logger="repro.tune.cache"):
            assert cache.load(record.key) is None
        assert any("corrupt" in r.message for r in caplog.records)

    def test_wrong_schema_fields_ignored(self, cache, caplog):
        path = cache.record_path("d" * 32)
        cache.dir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"unexpected": 1}))
        with caplog.at_level(logging.WARNING, logger="repro.tune.cache"):
            assert cache.load("d" * 32) is None
        assert any("corrupt" in r.message for r in caplog.records)

    @pytest.mark.parametrize("version", [CACHE_VERSION - 1, CACHE_VERSION + 1],
                             ids=["older", "newer"])
    def test_version_mismatch_ignored(self, cache, caplog, version):
        # "older" is what a cache tuned before the last bump holds: a v2
        # record, whose extra fields must read as stale, not as corrupt
        record = make_record("e" * 32)
        record.version = version
        path = cache.store(record)
        if version < CACHE_VERSION:
            doc = json.loads(path.read_text())
            path.write_text(json.dumps({**doc, "mode": "per-site",
                                        "budget": 12}))
        with caplog.at_level(logging.WARNING, logger="repro.tune.cache"):
            assert cache.load(record.key) is None
        assert any("schema" in r.message for r in caplog.records)

    def test_corrupt_plan_ignored_with_warning(self, cache, caplog):
        record = make_record("f" * 32)
        cache.store(record, plan=make_chain_graph())
        cache.plan_path(record.key).write_bytes(b"\x00\x01truncated")
        with caplog.at_level(logging.WARNING, logger="repro.tune.cache"):
            assert cache.load_plan(record.key) is None
        assert any("corrupt" in r.message for r in caplog.records)


class TestCacheDir:
    def test_explicit_dir_respected(self, tmp_path):
        cache = TuneCache(tmp_path / "elsewhere")
        record = make_record("g" * 32)
        cache.store(record)
        assert (tmp_path / "elsewhere" / f"{record.key}.json").is_file()

    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"
        assert TuneCache().dir == tmp_path / "envcache"

    def test_home_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TUNE_CACHE", raising=False)
        assert default_cache_dir().name == "repro-tune"
