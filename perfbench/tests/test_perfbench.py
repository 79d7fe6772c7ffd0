"""Checks of the benchmark itself (not part of tier-1):

    python -m pytest perfbench/tests

The schema tests run every workload for two seconds in both trace modes,
so the whole file takes about a minute.
"""

from __future__ import annotations

import copy
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import compare  # noqa: E402

SPEC = common.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def drive(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace),
         "--setups", "1"], cwd=cwd, capture_output=True, text=True)


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert len(SPEC["workloads"]) == 4
    assert len(SPEC["end_to_end"]) == 10 and len(SPEC["per_layer"]) == 92
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # 4 + 22 x workloads runs must fit the driver's 3420 s
    assert 1 <= SPEC["run_seconds"] <= 60


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_matches_spec(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = drive(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert set(result["metrics"]) == set(units)
        for name, entry in result["metrics"].items():
            assert set(entry) == {"value", "unit"}
            assert entry["unit"] == units[name]
            assert np.isfinite(entry["value"])
            if trace == 0:
                assert entry["value"] != 0, name
    assert (ROOT / "perfbench" / "out" / f"{workload}.trace.json").is_file()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = drive(tmp_path, "graph_b4", 0)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_planted_wrong_output_counts_as_failed():
    import graph_workload

    class WrongSession:
        """The TeMCO session, answering 1.0 off."""

        def __init__(self, session):
            self.session, self.graph = session, session.graph

        def run(self, x, **kwargs):
            result = self.session.run(x, **kwargs)
            for name in result.outputs:
                result.outputs[name] = result.outputs[name] + 1.0
            return result

    yard = common.Yardstick()
    c = graph_workload.compile_model("densenet", "tucker", 4, seed=7, index=0,
                                     budget_share=None, yard=yard)
    honest = common.Tally()
    graph_workload.measure([c], 0.1, 7, honest, yard)
    assert honest.failed == 0 and honest.ok_share == 1.0
    c.sessions["temco"] = WrongSession(c.sessions["temco"])
    planted = common.Tally()
    phase = graph_workload.measure([c], 0.1, 7, planted, yard)
    rounds = len(phase.runs[("densenet", "temco")])
    assert planted.failed == rounds >= 1
    assert planted.ok_share < 1.0 and planted.reasons


def test_expected_file_catches_reference_drift():
    with open(common.EXPECTED_PATH) as fh:
        entry = json.load(fh)["serve_open"]
    shape = entry["outputs"]["unet_small"]["shape"]
    drifted = common.Tally()
    common.check_expected("serve_open", 0, {"unet_small": np.zeros(shape)},
                          entry["counts"], drifted)
    assert drifted.failed == 1
    other_seed = common.Tally()
    common.check_expected("serve_open", 1, {"unet_small": np.zeros(shape)},
                          entry["counts"], other_seed)
    assert other_seed.failed == 0 and other_seed.attempted == len(entry["counts"])


def test_yardstick_scales_times_to_the_reference_speed():
    yard = common.Yardstick()
    # a machine running at exactly half the reference speed ...
    yard.samples = [2 * common.YARDSTICK_REF_S] * 50
    assert yard.slowness() == pytest.approx(np.full(50, 2.0))
    # ... but for one sample, which a median over its neighbours ignores
    yard.samples[25] *= 10
    assert yard.slowness() == pytest.approx(np.full(50, 2.0))
    times = {}
    with yard.timed(times, "stage"):
        pass
    assert len(yard.samples) == 50 + 2 * common.YARDSTICK_BURST
    assert 0 <= times["stage"] < 1e-3


def test_span_self_time_subtracts_children():
    spans = common.SpanLog()
    root = spans.open("replay", 0.0)
    spans.add("kernels.conv", 0.1, 0.4, root)
    spans.add("kernels.conv", 0.5, 0.7, root)
    spans.close(root, 1.0)
    self_s = spans.self_times()
    assert self_s["replay"] == pytest.approx(0.5)
    assert self_s["kernels.conv"] == pytest.approx(0.5)


def synthetic_doc(runs: int = 1) -> dict:
    workload = {kind: {m["name"]: [1.0] * runs for m in SPEC[kind]}
                for kind in ("end_to_end", "per_layer")}
    return {"quick": False, "env": {"runs": runs},
            "workloads": {"graph_b4": workload}}


def run_compare(a: dict, b: dict) -> tuple[int, str]:
    out = io.StringIO()
    return compare.compare(a, b, SPEC, out=out), out.getvalue()


def test_compare_passes_identical_and_flags_regression():
    base = synthetic_doc()
    code, text = run_compare(base, copy.deepcopy(base))
    assert code == 0 and "regressed" not in text.split("\n", 1)[1].rsplit(
        "\n", 2)[0]

    slower = copy.deepcopy(base)
    slower["workloads"]["graph_b4"]["end_to_end"]["overhead_vs_decomposed"] = \
        [1.2]
    code, text = run_compare(base, slower)
    assert code == 1
    row = next(line for line in text.splitlines()
               if "overhead_vs_decomposed" in line)
    assert row.endswith("regressed") and "+20.0%" in row

    # the same 20 % is inside the wall-clock metrics' wider bound
    within = copy.deepcopy(base)
    within["workloads"]["graph_b4"]["end_to_end"]["latency_ms_p50"] = [1.2]
    assert run_compare(base, within)[0] == 0

    # direction matters: 30 % less throughput regresses, 30 % more does not
    for factor, expected in ((0.7, 1), (1.3, 0)):
        doc = copy.deepcopy(base)
        doc["workloads"]["graph_b4"]["end_to_end"]["throughput_sps"] = [factor]
        assert run_compare(base, doc)[0] == expected

    # per-layer metrics carry no bound and never fail the comparison
    doc = copy.deepcopy(base)
    doc["workloads"]["graph_b4"]["per_layer"]["kernels.conv.ms"] = [5.0]
    assert run_compare(base, doc)[0] == 0


def test_compare_reports_wide_spread_as_unresolved_and_refuses_quick():
    noisy = synthetic_doc(runs=4)
    noisy["workloads"]["graph_b4"]["end_to_end"]["latency_ms_p50"] = \
        [0.5, 1.0, 1.0, 1.5]
    worse = copy.deepcopy(noisy)
    worse["workloads"]["graph_b4"]["end_to_end"]["latency_ms_p50"] = \
        [1.0, 1.5, 1.5, 2.0]
    code, text = run_compare(noisy, worse)
    row = next(line for line in text.splitlines() if "latency_ms_p50" in line)
    assert code == 0 and row.endswith("unresolved")

    quick = synthetic_doc()
    quick["quick"] = True
    assert run_compare(synthetic_doc(), quick)[0] == 2
