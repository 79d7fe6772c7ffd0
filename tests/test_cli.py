"""CLI commands run in-process."""

import json

import numpy as np
import pytest

from repro.cli import main


class TestCLI:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "vgg16" in out and "unet" in out

    def test_inspect(self, capsys):
        assert main(["inspect", "unet_small", "--batch", "1", "--hw", "32"]) == 0
        out = capsys.readouterr().out
        assert "peak internal" in out and "arena" not in out

    def test_inspect_with_ir(self, capsys):
        assert main(["inspect", "alexnet", "--batch", "1", "--hw", "32",
                     "--ir"]) == 0
        out = capsys.readouterr().out
        assert "conv2d" in out and "return" in out

    def test_optimize_and_save(self, capsys, tmp_path):
        out_path = tmp_path / "opt.npz"
        assert main(["optimize", "unet_small", "--batch", "1", "--hw", "32",
                     "--ratio", "0.25", "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "reduction" in out
        assert out_path.exists()
        # the saved graph round-trips through inspect
        assert main(["inspect", str(out_path)]) == 0

    def test_saved_gathered_graph_round_trips_bitwise(self, capsys,
                                                      tmp_path):
        """unet_small's decoder kernels read their concat's branches (k
        inputs, an upsample factor each); a saved plan loads as the same
        graph and answers bit for bit what the in-process compile does."""
        from repro import (DecompositionConfig, InferenceSession,
                           build_model, decompose_graph, optimize)
        from repro.ir import graph_fingerprint, load_graph

        path = tmp_path / "plan.npz"
        assert main(["optimize", "unet_small", "--batch", "4", "--hw", "32",
                     "-o", str(path)]) == 0
        assert "concats gathered" in capsys.readouterr().out
        loaded = load_graph(path)
        compiled, _ = optimize(decompose_graph(
            build_model("unet_small", batch=4, hw=32, seed=0),
            DecompositionConfig(method="tucker", ratio=0.1, seed=0)))
        assert graph_fingerprint(loaded) == graph_fingerprint(compiled)
        assert [n.attrs["input_scales"] for n in loaded.nodes
                if "input_scales" in n.attrs] == [[1, 2]] * 3
        x = np.random.default_rng(0).standard_normal(
            loaded.inputs[0].shape).astype(np.float32)
        assert (InferenceSession(loaded).run(x).output().tobytes()
                == InferenceSession(compiled).run(x).output().tobytes())

    def test_optimize_cp_method(self, capsys):
        assert main(["optimize", "unet_small", "--batch", "1", "--hw", "32",
                     "--method", "tt", "--ratio", "0.25"]) == 0
        assert "reduction" in capsys.readouterr().out

    def test_run(self, capsys):
        assert main(["run", "alexnet", "--batch", "1", "--hw", "32",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "wall-clock" in out

    def test_bench_fig10_single_model(self, capsys):
        assert main(["bench", "fig10", "--model", "unet_small",
                     "--batch", "1"]) == 0
        out = capsys.readouterr().out
        assert "Skip-Opt+Fusion" in out

    def test_bench_fig12_single_model(self, capsys):
        assert main(["bench", "fig12", "--model", "alexnet", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "agreement" in out

    def test_export_dot(self, capsys, tmp_path):
        out = tmp_path / "g.dot"
        assert main(["export", "alexnet", "dot", "--batch", "1", "--hw", "32",
                     "-o", str(out)]) == 0
        assert out.read_text().startswith("digraph")

    def test_export_timeline(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["export", "unet_small", "timeline", "--batch", "1",
                     "--hw", "32", "-o", str(out)]) == 0
        assert out.read_text().startswith("index,node,op")

    def test_export_report(self, capsys, tmp_path):
        out = tmp_path / "r.md"
        assert main(["export", "unet_small", "report", "--batch", "1",
                     "--hw", "32", "-o", str(out)]) == 0
        assert "peak internal" in out.read_text()

    def test_extra_model_via_cli(self, capsys):
        assert main(["inspect", "vgg11_silu", "--batch", "1", "--hw", "32"]) == 0
        assert "peak internal" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            main(["inspect", "resnet50"])

    def test_optimize_energy_policy(self, capsys):
        assert main(["optimize", "unet_small", "--batch", "1", "--hw", "32",
                     "--rank-policy", "energy", "--energy", "0.7"]) == 0
        assert "reduction" in capsys.readouterr().out

    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "6/6 checks passed" in out


class TestServeCLI:
    def test_loadgen_json_report(self, capsys):
        assert main(["loadgen", "unet_small", "--batch", "2", "--hw", "16",
                     "--requests", "6", "--concurrency", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "closed"
        assert doc["offered"] == 6 and doc["completed"] == 6
        assert doc["rejected"] == 0 and doc["errors"] == 0
        assert set(doc["latency_ms"]) >= {"p50", "p95", "p99"}
        assert doc["server"]["serve.completed"] == 6
        assert doc["server"]["serve.batch_samples.max"] >= 1

    def test_loadgen_text_summary(self, capsys):
        assert main(["loadgen", "unet_small", "--batch", "2", "--hw", "16",
                     "--requests", "4", "--concurrency", "2"]) == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "server metrics" in out and "serve.batches" in out

    def test_loadgen_open_mode(self, capsys):
        assert main(["loadgen", "unet_small", "--batch", "2", "--hw", "16",
                     "--mode", "open", "--requests", "4", "--rate", "500",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "open"
        assert doc["completed"] + doc["rejected"] + doc["shed"] == 4

    def test_loadgen_no_batching_runs_one_request_per_batch(self, capsys):
        assert main(["loadgen", "unet_small", "--batch", "2", "--hw", "16",
                     "--requests", "4", "--concurrency", "4",
                     "--no-batching", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["server"]["serve.batches"] == 4

    def test_run_prints_latency_percentiles(self, capsys):
        assert main(["run", "alexnet", "--batch", "1", "--hw", "32",
                     "--repeats", "3"]) == 0
        out = capsys.readouterr().out
        assert "latency percentiles" in out
        assert "p50" in out and "p95" in out and "p99" in out


class TestObservabilityCLI:
    def test_trace_writes_valid_chrome_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "unet_small", "--batch", "1", "--hw", "32",
                     "--ratio", "0.25", "--trace", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "memory counter track matches" in stdout
        doc = json.loads(out.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases <= {"X", "i", "C", "M"}
        # the memory counter track reproduces the profile peak
        samples = [e["args"]["live_bytes"] for e in doc["traceEvents"]
                   if e["ph"] == "C" and e["name"] == "memory"]
        assert samples and max(samples) == \
            doc["otherData"]["metrics"]["executor.peak_internal_bytes"]
        # the compiler decision log made it into the trace
        assert any(e.get("args", {}).get("pass_name") == "skip_opt"
                   for e in doc["traceEvents"] if e["ph"] == "i")

    def test_trace_default_output_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "alexnet", "--batch", "1", "--hw", "32",
                     "--ratio", "0.25"]) == 0
        assert (tmp_path / "alexnet.trace.json").exists()

    def test_trace_jsonl_output(self, capsys, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "alexnet", "--batch", "1", "--hw", "32",
                     "--ratio", "0.25", "--trace", str(out)]) == 0
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        assert {"X", "i", "C"} == {r["ph"] for r in records}
        assert {"decision", "counter"} <= {r["cat"] for r in records}

    def test_optimize_with_trace_flag(self, capsys, tmp_path):
        out = tmp_path / "opt.trace.json"
        assert main(["optimize", "unet_small", "--batch", "1", "--hw", "32",
                     "--ratio", "0.25", "--trace", str(out),
                     "--log-level", "warning"]) == 0
        doc = json.loads(out.read_text())
        assert any(e["name"] == "pipeline" for e in doc["traceEvents"])

    def test_bench_fig11_hw_and_repeats_flags(self, capsys):
        assert main(["bench", "fig11", "--model", "alexnet", "--batch", "1",
                     "--hw", "16", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out.lower()

    def test_bench_with_trace_flag(self, capsys, tmp_path):
        out = tmp_path / "bench.trace.json"
        assert main(["bench", "fig12", "--model", "alexnet", "--batch", "1",
                     "--hw", "16", "--trace", str(out)]) == 0
        assert "traceEvents" in json.loads(out.read_text())


class TestMemcheckCLI:
    def test_memcheck_passes_on_small_models(self, capsys):
        assert main(["memcheck", "alexnet", "unet_small"]) == 0
        out = capsys.readouterr().out
        assert "memcheck passed" in out
        assert "PASS alexnet" in out and "PASS unet_small" in out
        # both variants of each model appear in the table
        assert "original" in out and "fusion" in out

    def test_memcheck_json_output(self, capsys):
        assert main(["memcheck", "alexnet", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["model"] == "alexnet" and doc[0]["passed"] is True
        assert doc[0]["original"]["measured_peak_bytes"] == \
            doc[0]["original"]["predicted_peak_bytes"]

    def test_memcheck_unknown_model_is_an_error(self, capsys):
        assert main(["memcheck", "nope"]) == 2
        assert "unknown zoo model" in capsys.readouterr().err

    def test_memcheck_trace_carries_memory_track(self, capsys, tmp_path):
        out = tmp_path / "memcheck.trace.json"
        assert main(["memcheck", "alexnet", "--trace", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        tracks = {e["name"] for e in events if e.get("ph") == "C"}
        assert tracks == {"memory"}
        verdicts = [e for e in events if e["name"] == "audit_verdict"]
        assert [v["args"]["passed"] for v in verdicts] == [True, True]


class TestBenchCLI:
    def test_bare_bench_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "usage: repro bench" in capsys.readouterr().err


class TestProfileCLI:
    def test_profile_prints_hot_tables(self, capsys):
        assert main(["profile", "unet_small", "--batch", "1", "--hw", "16",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "hot op" in out and "hot layer" in out
        assert "FLOP/B" in out and "GFLOP/s" in out
        assert "traced run" in out

    def test_profile_json_report(self, capsys):
        assert main(["profile", "unet_small", "--batch", "1", "--hw", "16",
                     "--repeats", "2", "--no-optimize", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"] == 2
        ops = {row["key"]: row for row in doc["by_op"]}
        assert "conv2d" in ops
        assert ops["conv2d"]["flops"] > 0
        assert ops["conv2d"]["total_bytes"] > 0

    def test_profile_flamegraph_and_trace(self, capsys, tmp_path):
        fg = tmp_path / "profile.collapsed"
        tr = tmp_path / "profile.trace.json"
        assert main(["profile", "unet_small", "--batch", "1", "--hw", "16",
                     "--repeats", "1", "--flamegraph", str(fg),
                     "--trace", str(tr)]) == 0
        lines = fg.read_text().splitlines()
        assert lines
        # collapsed-stack format: "frame;frame;... <self_us>"
        assert all(ln.rsplit(" ", 1)[1].isdigit() for ln in lines)
        assert any(ln.startswith("repro;inference;") for ln in lines)
        assert "traceEvents" in json.loads(tr.read_text())


class TestServeSLOCLI:
    def test_loadgen_slo_pass(self, capsys):
        assert main(["loadgen", "unet_small", "--batch", "2", "--hw", "16",
                     "--requests", "4", "--concurrency", "2",
                     "--slo", "availability:0.5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["slo_ok"] is True
        (status,) = doc["slo"]
        assert status["name"] == "availability_50"
        assert status["healthy"] is True and status["good"] == 4

    def test_loadgen_slo_violation_exits_nonzero(self, capsys):
        # a 1 us latency objective is unmeetable: every completion burns
        # budget, so the run must fail with the violation spelled out
        assert main(["loadgen", "unet_small", "--batch", "2", "--hw", "16",
                     "--requests", "4", "--concurrency", "2",
                     "--slo", "latency:0.001:0.99"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "SLO VIOLATED" in out
        assert "latency_0.001ms_99" in out

    def test_loadgen_text_summary_lists_objectives(self, capsys):
        assert main(["loadgen", "unet_small", "--batch", "2", "--hw", "16",
                     "--requests", "4", "--concurrency", "2",
                     "--slo", "availability:0.9",
                     "--slo", "latency:60000:0.9"]) == 0
        out = capsys.readouterr().out
        assert "slo [ok] availability_90" in out
        assert "burn rate" in out

    def test_serve_trace_flag_writes_request_waterfall(self, tmp_path):
        # loadgen shares the serve pipeline; its --trace must carry the
        # per-request async waterfall and the fan-in flow arrows
        out = tmp_path / "serve.trace.json"
        assert main(["loadgen", "unet_small", "--batch", "2", "--hw", "16",
                     "--requests", "4", "--concurrency", "2",
                     "--trace", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"b", "e", "s", "f"} <= phases
        lanes = {e["name"] for e in events if e["ph"] == "b"}
        assert {"request", "queue_wait", "execute"} <= lanes
        labels = {e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "worker-0" in labels
