"""The run observers report the same run: the ledger, the tracer's
allocator instants and counter tracks, the profile timeline and the
static simulation are five views that must agree event for event."""

import pytest

from repro import kernels
from repro.core import estimate_peak_internal, optimize, simulate
from repro.ir.graph import Graph
from repro.obs import Tracer
from repro.plan import PlanCostModel, bucket_actions, plan_memory
from repro.plan import planner as planner_module
from repro.runtime import InferenceSession, execute
from repro.runtime import executor as executor_module

from _graph_fixtures import make_skip_graph, random_input


def _budgeted(decomposed, name, fraction, cost_model=None):
    graph, _ = optimize(decomposed(name, 16))
    assert any(n.op.startswith("fused") for n in graph.nodes)
    plan = plan_memory(graph, int(fraction * estimate_peak_internal(graph)),
                       cost_model=cost_model)
    return graph, plan


@pytest.fixture(params=["skipnet", "fused+spills", "fused+remats"])
def traced_run(request, decomposed):
    """``(graph, plan, tracer, result)`` of one run with the tracer and
    the ledger both on."""
    if request.param == "skipnet":
        graph, plan = make_skip_graph(), None
    elif request.param == "fused+spills":
        graph, plan = _budgeted(decomposed, "fractalnet", 0.9)
        assert plan.spills
    else:
        graph, plan = _budgeted(
            decomposed, "wavenet2d", 0.8,
            PlanCostModel(recompute_flops_per_s=2e12))  # remats priced ~free
        assert plan.remats
    tracer = Tracer()
    result = execute(graph, random_input(graph), tracer=tracer,
                     record_ledger=True, plan=plan)
    return graph, plan, tracer, result


class TestObserversAgree:
    def test_allocator_instants_are_the_ledger_events(self, traced_run):
        _, _, tracer, result = traced_run
        instants = [(i["name"], i["args"]["value"], i["args"]["bytes"],
                     i["args"]["live_bytes"])
                    for i in tracer.events if i["cat"] == "allocator"]
        events = [(e.action, e.value, e.nbytes, e.live_bytes)
                  for e in result.memory.ledger]
        assert instants == events

    def test_memory_counter_is_the_timeline_is_the_simulation(
            self, traced_run):
        graph, plan, tracer, result = traced_run
        schedule = simulate(
            graph, actions=bucket_actions(plan.actions) if plan else None)
        timeline = result.memory.events
        assert tracer.counter_series("memory", "live_bytes") == timeline
        assert timeline == list(schedule.live)
        assert result.memory.ledger == schedule.events
        assert result.memory.peak_internal_bytes == schedule.peak_bytes

    def test_plan_counter_carries_the_planned_bytes(self, traced_run):
        _, plan, tracer, _ = traced_run
        planned = tracer.counter_series("plan", "planned_bytes")
        if plan is None:
            assert planned == []
        else:
            assert planned == list(plan.planned_live)
            assert tracer.counter_series("plan", "live_bytes") \
                == tracer.counter_series("memory", "live_bytes")


NODE_ARGS = ["bytes", "flops", "index", "op", "scratch"]
ALLOCATOR_ARGS = ["bytes", "live_bytes", "value"]


def test_trace_records_of_the_skip_graph():
    """The Chrome-trace contract (docs/observability.md), literally:
    per record type, every record's name, category and arg keys."""
    graph = make_skip_graph()
    tracer = Tracer()
    execute(graph, random_input(graph), tracer=tracer, record_ledger=True)
    by_phase = {ph: [e for e in tracer.events if e["ph"] == ph]
                for ph in ("X", "i", "C")}
    assert sum(map(len, by_phase.values())) == len(tracer.events)
    assert [(s["name"], s["cat"], sorted(s["args"]))
            for s in by_phase["X"]] == [
        ("enc1", "conv2d", NODE_ARGS),
        ("relu_1", "relu", NODE_ARGS),
        ("maxpool2d_2", "maxpool2d", NODE_ARGS),
        ("enc2", "conv2d", NODE_ARGS),
        ("relu_3", "relu", NODE_ARGS),
        ("upsample_nearest_4", "upsample_nearest", NODE_ARGS),
        ("join", "concat", NODE_ARGS),
        ("dec", "conv2d", NODE_ARGS),
        ("relu_5", "relu", NODE_ARGS),
    ]
    assert [(i["name"], i["cat"], i["args"]["value"], sorted(i["args"]))
            for i in by_phase["i"]] == [
        ("alloc", "allocator", "x", ALLOCATOR_ARGS),
        ("alloc", "allocator", "enc1.out", ALLOCATOR_ARGS),
        ("free", "allocator", "x", ALLOCATOR_ARGS),
        ("alloc", "allocator", "relu_1.out", ALLOCATOR_ARGS),
        ("free", "allocator", "enc1.out", ALLOCATOR_ARGS),
        ("alloc", "allocator", "maxpool2d_2.out", ALLOCATOR_ARGS),
        ("alloc", "allocator", "enc2.out", ALLOCATOR_ARGS),
        ("free", "allocator", "maxpool2d_2.out", ALLOCATOR_ARGS),
        ("alloc", "allocator", "relu_3.out", ALLOCATOR_ARGS),
        ("free", "allocator", "enc2.out", ALLOCATOR_ARGS),
        ("alloc", "allocator", "upsample_nearest_4.out", ALLOCATOR_ARGS),
        ("free", "allocator", "relu_3.out", ALLOCATOR_ARGS),
        ("alloc", "allocator", "join.out", ALLOCATOR_ARGS),
        ("free", "allocator", "relu_1.out", ALLOCATOR_ARGS),
        ("free", "allocator", "upsample_nearest_4.out", ALLOCATOR_ARGS),
        ("alloc", "allocator", "dec.out", ALLOCATOR_ARGS),
        ("free", "allocator", "join.out", ALLOCATOR_ARGS),
        ("alloc", "allocator", "relu_5.out", ALLOCATOR_ARGS),
        ("free", "allocator", "dec.out", ALLOCATOR_ARGS),
    ]
    assert [(c["name"], sorted(c["args"])) for c in by_phase["C"]] \
        == [("memory", ["live_bytes", "scratch_bytes"])] * len(graph.nodes)
    assert sorted(tracer.metrics.snapshot()) == [
        "executor.allocation_traffic_bytes", "executor.nodes_executed",
        "executor.peak_internal_bytes", "executor.peak_scratch_bytes",
        "executor.runs"]
    assert not tracer.decisions_for()


def test_schedule_is_built_once_per_session(decomposed, monkeypatch):
    """What only the graph fixes is decided at construction, not per
    request."""
    graph, _ = optimize(decomposed("wavenet2d", 16))
    plan = plan_memory(graph, int(0.8 * estimate_peak_internal(graph)))
    calls = {"free_schedule": 0, "weight_bytes": 0, "fused_scratch_bytes": 0,
             "node_flops": 0, "bucket_actions": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(executor_module, "free_schedule",
                        counted("free_schedule",
                                executor_module.free_schedule))
    monkeypatch.setattr(Graph, "weight_bytes",
                        counted("weight_bytes", Graph.weight_bytes))
    monkeypatch.setattr(kernels, "fused_scratch_bytes",
                        counted("fused_scratch_bytes",
                                kernels.fused_scratch_bytes))
    monkeypatch.setattr(executor_module, "node_flops",
                        counted("node_flops", executor_module.node_flops))
    monkeypatch.setattr(planner_module, "bucket_actions",
                        counted("bucket_actions",
                                planner_module.bucket_actions))
    fused = sum(n.op.startswith("fused") for n in graph.nodes)
    session = InferenceSession(graph, memory_plan=plan)
    built = dict(calls)
    assert built == {"free_schedule": 1, "weight_bytes": 1,
                     "fused_scratch_bytes": fused,
                     "node_flops": len(graph.nodes), "bucket_actions": 0}
    inputs = random_input(graph)
    first = session.run(inputs)
    second = session.run(inputs, record_ledger=True)
    tracers = [Tracer(), Tracer()]
    for tracer in tracers:
        session.run(inputs, tracer=tracer)
    # the plan's actions are bucketed by the first run that enforces it
    assert calls == dict(built, bucket_actions=1)
    assert first.memory.peak_scratch_bytes > 0
    assert first.memory.events == second.memory.events
    node_spans = [[(s["name"], s["args"]) for s in tracer.events
                   if s["ph"] == "X" and s["cat"] == s["args"].get("op")]
                  for tracer in tracers]
    assert len(node_spans[0]) == len(graph.nodes)
    assert node_spans[0] == node_spans[1]
