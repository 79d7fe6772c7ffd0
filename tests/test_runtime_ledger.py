"""The allocation ledger: the allocator's own event tuples, the list
``simulate`` predicts, and every tamper the audit's one comparison
catches."""

import numpy as np
import pytest

from repro.core import simulate
from repro.ir.value import Value
from repro.models import build_model
from repro.obs import audit as audit_module
from repro.obs.audit import audit_graph, event_findings
from repro.runtime import LedgerEvent, TensorAllocator
from repro.runtime import executor as executor_module
from repro.runtime.executor import execute


def _inputs(graph, seed=0):
    rng = np.random.default_rng(seed)
    return {v.name: rng.normal(size=v.shape).astype(v.dtype.np)
            for v in graph.inputs}


@pytest.fixture(scope="module")
def alexnet_run():
    graph = build_model("alexnet", batch=2, hw=32)
    result = execute(graph, _inputs(graph), record_ledger=True)
    return graph, result


class TestRecording:
    def test_manual_record_and_replay(self):
        allocator = TensorAllocator()
        ledger: list[LedgerEvent] = []
        allocator.sinks.append(ledger.append)
        a, b = Value("a", (25,)), Value("b", (5, 2))  # 100 B, 40 B
        allocator.node_index = 0
        allocator.alloc(a)
        allocator.alloc(b)
        allocator.node_index = 1
        allocator.free(a)
        assert ledger == [LedgerEvent(0, "alloc", "a", 100, 100),
                          LedgerEvent(0, "alloc", "b", 40, 140),
                          LedgerEvent(1, "free", "a", 100, 40)]
        assert allocator.peak_bytes == max(e.live_bytes for e in ledger)

    def test_scratch_is_transient(self):
        allocator = TensorAllocator()
        ledger: list[LedgerEvent] = []
        allocator.sinks.append(ledger.append)
        allocator.alloc(Value("out", (25,)))
        allocator.charge_scratch(40)
        assert ledger[-1] == LedgerEvent(-1, "scratch", "<scratch>", 40, 140)
        assert allocator.peak_bytes == 140
        # scratch never stays resident
        assert allocator.current_bytes == 100

    def test_unknown_action_rejected(self, alexnet_run):
        graph, result = alexnet_run
        ledger = list(result.memory.ledger)
        ledger[3] = ledger[3]._replace(action="realloc")
        [finding] = event_findings(graph, simulate(graph).events, ledger)
        assert finding.kind == "event_mismatch"
        assert finding.message.startswith("event 3 ")
        assert "measured realloc" in finding.message

    def test_events_carry_schedule_position(self, alexnet_run):
        graph, result = alexnet_run
        ledger = result.memory.ledger
        # input binding happens at position -1, before any node
        assert ledger[0].node_index == -1
        # each node's output is charged at that node's own index
        allocs = {e.value: e.node_index for e in ledger if e.action == "alloc"}
        for index, node in enumerate(graph.nodes):
            assert allocs[node.output.name] == index

    def test_node_indices_monotonic(self, alexnet_run):
        _graph, result = alexnet_run
        indices = [e.node_index for e in result.memory.ledger]
        assert indices == sorted(indices)


class TestExecutorIntegration:
    def test_ledger_off_by_default(self):
        graph = build_model("alexnet", batch=1, hw=32)
        result = execute(graph, _inputs(graph))
        assert result.memory.ledger is None

    def test_replayed_peak_matches_profile(self, alexnet_run):
        _graph, result = alexnet_run
        assert max(e.live_bytes for e in result.memory.ledger) \
            == result.memory.peak_internal_bytes

    def test_verify_clean_run(self, alexnet_run):
        graph, result = alexnet_run
        assert result.memory.ledger == simulate(graph).events


def _audit_tampered(monkeypatch, graph, tamper):
    """``audit_graph`` of ``graph`` with ``tamper`` applied to the
    run's ledger before the audit reads it."""
    real = audit_module.execute

    def tampered(*args, **kwargs):
        result = real(*args, **kwargs)
        tamper(result.memory.ledger)
        return result

    monkeypatch.setattr(audit_module, "execute", tampered)
    return audit_graph(graph)


def _event_mismatch(audit):
    assert not audit.passed
    [finding] = [f for f in audit.findings if f.kind == "event_mismatch"]
    return finding


class TestTamperDetection:
    """A ledger that leaves the predicted event list is caught as an
    ``event_mismatch`` naming the first event where it does."""

    @pytest.fixture
    def graph(self):
        return build_model("alexnet", batch=1, hw=32)

    def test_corrupted_live_total_is_caught(self, monkeypatch, graph):
        def tamper(ledger):
            ledger[3] = ledger[3]._replace(
                live_bytes=ledger[3].live_bytes + 4096)
        finding = _event_mismatch(_audit_tampered(monkeypatch, graph, tamper))
        assert finding.message.startswith("event 3 ")
        assert finding.measured == finding.expected + 4096

    def test_understated_size_is_caught(self, monkeypatch, graph):
        index = next(i for i, e in enumerate(simulate(graph).events)
                     if e.action == "alloc" and e.node_index >= 0)

        def tamper(ledger):
            ledger[index] = ledger[index]._replace(
                nbytes=ledger[index].nbytes // 2)
        finding = _event_mismatch(_audit_tampered(monkeypatch, graph, tamper))
        assert finding.message.startswith(f"event {index} ")

    def test_dropped_free_is_caught(self, monkeypatch, graph):
        index = next(i for i, e in enumerate(simulate(graph).events)
                     if e.action == "free")
        finding = _event_mismatch(_audit_tampered(
            monkeypatch, graph, lambda ledger: ledger.pop(index)))
        assert finding.message.startswith(f"event {index} ")

    def test_double_alloc_is_caught(self, monkeypatch, graph):
        def tamper(ledger):
            ledger.insert(2, ledger[1])
        finding = _event_mismatch(_audit_tampered(monkeypatch, graph, tamper))
        assert finding.message.startswith("event 2 ")

    def test_stray_free_is_caught(self, monkeypatch, graph):
        def tamper(ledger):
            ledger.append(LedgerEvent(len(graph.nodes) - 1, "free", "ghost",
                                      10, ledger[-1].live_bytes - 10))
        finding = _event_mismatch(_audit_tampered(monkeypatch, graph, tamper))
        assert "predicted no event" in finding.message
        assert "'ghost'" in finding.message

    def test_wrong_expected_peak_is_caught(self, monkeypatch, graph):
        schedule = simulate(graph)
        peak = next(i for i, e in enumerate(schedule.events)
                    if e.live_bytes == schedule.peak_bytes)

        def tamper(ledger):
            ledger[peak] = ledger[peak]._replace(
                live_bytes=ledger[peak].live_bytes + 1)
        audit = _audit_tampered(monkeypatch, graph, tamper)
        finding = _event_mismatch(audit)
        node = graph.nodes[schedule.peak_index].name
        assert finding.message.startswith(
            f"event {peak} (node {schedule.peak_index}, {node}):")

    def test_reordered_frees_are_caught(self, monkeypatch):
        # the two tensors node 6 frees are the same size, so every live
        # total, the peak and the timeline survive the swap; only the
        # event order tells
        graph = build_model("resnet18", batch=2, hw=32)
        real = executor_module.free_schedule

        def reversed_at_6(*args, **kwargs):
            frees = list(real(*args, **kwargs))
            assert len(frees[6]) == 2
            frees[6] = frees[6][::-1]
            return tuple(frees)

        monkeypatch.setattr(executor_module, "free_schedule", reversed_at_6)
        finding = _event_mismatch(audit_graph(graph))
        assert f"(node 6, {graph.nodes[6].name})" in finding.message

    def test_free_of_the_wrong_same_sized_tensor_is_caught(self, monkeypatch):
        # after node 6 the run frees add_7's output instead of the
        # same-sized conv output add_7 read, and the conv output a node
        # later: every total still adds up, each freed tensor is live
        # when freed — only the tensor names tell
        graph = build_model("resnet18", batch=2, hw=32)
        frees = {e.value: i for i, e in enumerate(simulate(graph).events)
                 if e.action == "free"}
        first, second = frees["layer1.0.conv2.out"], frees["add_7.out"]

        def tamper(ledger):
            a, b = ledger[first], ledger[second]
            ledger[first] = a._replace(value=b.value)
            ledger[second] = b._replace(value=a.value)
        finding = _event_mismatch(_audit_tampered(monkeypatch, graph, tamper))
        assert finding.message.startswith(f"event {first} ")
