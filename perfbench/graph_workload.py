"""Graph-path workloads: compile -> plan -> `InferenceSession.run`.

`graph_b4` is the paper's Fig. 10/11 set-up (Tucker r=0.1, batch 4,
hw 32) where tensors are small and executor bookkeeping is a visible
share of a run; `graph_b32` is kernel-bound and the only place CP/TT
compile and run time are tracked.  Per model a `decomposed` and a
`temco` session run interleaved, so their ratio sees the same machine
state.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, field

import numpy as np

from repro import (DecompositionConfig, InferenceSession, Tracer, build_model,
                   decompose_graph, estimate_peak_internal, kernels, optimize,
                   use_tracer)
from repro.ir import graph_fingerprint
from repro.ir.ops import node_flops
from repro.plan import plan_memory

from common import (SpanLog, Tally, Yardstick, geomean, now, outputs_close,
                    p50, p90, rss_peak_mb, yardstick_metrics)

HW = 32
RATIO = 0.1

#: (model, decomposition method) per workload, and the budget rows as a
#: share of the model's own measured TeMCO peak.  vgg16 and resnet18 are
#: left out: their Tucker/TT factorisations take 6-14 s each, and every
#: run repeats set-up three times inside the driver's time limit.
WORKLOADS = {
    "graph_b4": {
        "batch": 4,
        "models": [("alexnet", "tucker"), ("densenet", "tucker"),
                   ("unet_small", "tucker"), ("wavenet2d", "tucker"),
                   ("fractalnet", "tucker")],
        "budgets": {"wavenet2d": 0.8, "fractalnet": 0.9},
    },
    "graph_b32": {
        "batch": 32,
        "models": [("alexnet", "tt"), ("densenet", "tucker"),
                   ("unet_small", "cp")],
        "budgets": {},
    },
}

FAMILIES = ("conv", "fused", "linear", "pool", "elementwise", "movement")

#: op kind -> kernel family; `movement` ops copy or alias data without
#: arithmetic (the ones a virtual-tensor scheme would turn into views)
OP_FAMILY = {
    "conv2d": "conv", "conv_transpose2d": "conv",
    "fused_block": "fused", "fused_restore": "fused",
    "linear": "linear",
    "maxpool2d": "pool", "avgpool2d": "pool", "global_avgpool": "pool",
    "upsample_nearest": "pool",
    "batchnorm2d": "elementwise", "add": "elementwise",
    "softmax": "elementwise", "relu": "elementwise", "silu": "elementwise",
    "sigmoid": "elementwise", "tanh": "elementwise",
    "leaky_relu": "elementwise", "elu": "elementwise",
    "hardswish": "elementwise", "gelu": "elementwise",
    "concat": "movement", "flatten": "movement", "identity": "movement",
    "dropout": "movement",
}


@dataclass
class Compiled:
    """One model compiled once: graphs, sessions, set-up times, counts."""

    model: str
    method: str
    batch: int
    original: object
    decomposed: object
    temco: object
    report: object
    times: dict[str, float]
    x: np.ndarray
    sessions: dict[str, InferenceSession] = field(default_factory=dict)
    peaks: dict[str, int] = field(default_factory=dict)
    plan: object = None
    reference: np.ndarray | None = None
    #: `last_uses` of the TeMCO graph, for the bare replay
    dead: list[list[str]] = field(default_factory=list)


def make_input(seed: int, index: int, shape) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    return rng.normal(size=shape).astype(np.float32)


def compile_model(model: str, method: str, batch: int, seed: int, index: int,
                  budget_share: float | None, yard: Yardstick) -> Compiled:
    """Build, decompose, optimize, plan, open sessions and warm them;
    `times` holds the yardstick-scaled seconds of each stage."""
    times = {"plan": 0.0}
    with yard.timed(times, "build"):
        original = build_model(model, batch=batch, hw=HW, seed=0)
    with yard.timed(times, method):
        decomposed = decompose_graph(
            original, DecompositionConfig(method=method, ratio=RATIO, seed=0))
    with yard.timed(times, "optimize"):
        temco, report = optimize(decomposed)
    c = Compiled(model, method, batch, original, decomposed, temco, report,
                 times, make_input(seed, index, original.inputs[0].shape))
    with yard.timed(times, "warmup"):
        for variant, graph in (("decomposed", decomposed), ("temco", temco)):
            session = c.sessions[variant] = InferenceSession(graph)
            result = session.run(c.x)
            c.peaks[variant] = result.memory.peak_internal_bytes
            if variant == "decomposed":
                c.reference = result.output()
    if budget_share is not None:
        with yard.timed(times, "plan"):
            c.plan = plan_memory(temco, int(budget_share * c.peaks["temco"]))
        with yard.timed(times, "warmup"):
            session = c.sessions["temco_budget"] = InferenceSession(
                temco, memory_plan=c.plan)
            c.peaks["temco_budget"] = \
                session.run(c.x).memory.peak_internal_bytes
    c.dead = last_uses(temco)
    return c


def set_up(spec: dict, seed: int, yard: Yardstick
           ) -> tuple[list[Compiled], float]:
    """Every model compiled once, and the seconds that took."""
    compiled = [compile_model(model, method, spec["batch"], seed, i,
                              spec["budgets"].get(model), yard)
                for i, (model, method) in enumerate(spec["models"])]
    return compiled, sum(sum(c.times.values()) for c in compiled)


def graph_flops(graph) -> int:
    return sum(node_flops(node) for node in graph.nodes)


def last_uses(graph) -> list[list[str]]:
    """Per node, the values nothing later reads (graph outputs never)."""
    last = {}
    for index, node in enumerate(graph.nodes):
        for v in node.inputs:
            last[v.name] = index
        last.setdefault(node.output.name, index)
    for v in graph.outputs:
        last.pop(v.name, None)
    dead: list[list[str]] = [[] for _ in graph.nodes]
    for name, index in last.items():
        dead[index].append(name)
    return dead


def replay(c: Compiled, spans: SpanLog, parent: int, rid: int
           ) -> tuple[np.ndarray, dict[str, float]]:
    """The TeMCO graph's kernels with no executor around them: one
    `kernels.<family>` span per `run_node` call.  Values are dropped
    after their last use, as the executor does, because kernels run
    measurably slower when every output lands in fresh memory.
    Returns the output and the seconds spent per family."""
    graph = c.temco
    env = {graph.inputs[0].name: c.x}
    family_s = dict.fromkeys(FAMILIES, 0.0)
    for node, dead in zip(graph.nodes, c.dead):
        arrays = [env[v.name] for v in node.inputs]
        family = OP_FAMILY[node.op]
        start = now()
        out = kernels.run_node(node, arrays)
        end = now()
        spans.add("kernels." + family, start, end, parent, rid)
        family_s[family] += end - start
        env[node.output.name] = out
        del arrays, out
        for name in dead:
            del env[name]
    return env[graph.outputs[0].name], family_s


def timed_run(session, x, tally: Tally, **kwargs):
    """One `InferenceSession.run`: (start, seconds, result or None)."""
    start = now()
    try:
        result = session.run(x, **kwargs)
    except Exception as exc:  # the op failed; the benchmark goes on
        tally.fail(f"{session.graph.name}: {exc!r}")
        return start, now() - start, None
    return start, now() - start, result


@dataclass
class Phase:
    """Samples of one measured phase: seconds, yardstick-scaled (see
    `common.Yardstick`) once `scale` has run."""

    #: (model, what ran) -> one sample per round; what ran is a session
    #: variant or, in a traced phase, "replay", "tracer_on", "ledger_on"
    #: or a kernel family of the replay
    runs: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    #: per sample, the yardstick sample taken just before it
    ticks: dict[tuple[str, str], list[int]] = field(default_factory=dict)
    #: the phase's yardstick samples, seconds
    yard: np.ndarray | None = None
    #: per model, from the last TeMCO run's memory profile
    profile: dict[str, object] = field(default_factory=dict)
    plan_stats: dict[str, object] = field(default_factory=dict)
    peak_mismatch: int = 0

    def add(self, model: str, what: str, seconds: float, tick: int) -> None:
        self.runs.setdefault((model, what), []).append(seconds)
        self.ticks.setdefault((model, what), []).append(tick)

    def scale(self, yard: Yardstick, first_tick: int) -> None:
        """Divide every sample by the machine's slowness around it."""
        slow = yard.slowness()
        for key, ticks in self.ticks.items():
            self.runs[key] = list(np.asarray(self.runs[key]) / slow[ticks])
        self.yard = np.asarray(yard.samples[first_tick:])

    def p(self, model: str, what: str, fn=p50) -> float:
        """Percentile of one pair's run time, in ms."""
        return fn(self.runs[(model, what)]) * 1e3

    def ratio(self, model: str, what: str, base: str) -> float:
        """Median over rounds of `what`'s time over `base`'s in the same
        round: the two ran moments apart, so drift in the machine's
        state cancels far better than in a ratio of two medians."""
        return p50(np.asarray(self.runs[(model, what)])
                   / np.asarray(self.runs[(model, base)]))


def run_pair(c: Compiled, variant: str, outputs: dict, phase: Phase,
             tally: Tally, yard: Yardstick) -> tuple[float, float]:
    """Run one session once and check what it answered."""
    tick = yard.tick()
    start, dt, result = timed_run(c.sessions[variant], c.x, tally)
    # a failed run keeps its slot, so rounds stay aligned across pairs
    phase.add(c.model, variant, dt, tick)
    if result is None:
        return start, dt
    out = result.output()
    if variant == "decomposed":
        tally.ok()
        outputs[c.model, "decomposed"] = out
    elif variant == "temco":
        reference = outputs.get((c.model, "decomposed"), c.reference)
        tally.check(outputs_close(reference, out),
                    f"{c.model}: temco output differs from decomposed")
        outputs[c.model, "temco"] = out
        phase.profile[c.model] = result.memory
    else:
        peak_ok = (result.memory.peak_internal_bytes
                   == c.plan.planned_peak_bytes)
        phase.peak_mismatch += not peak_ok
        phase.plan_stats[c.model] = result.memory.plan_stats
        reference = outputs.get((c.model, "temco"))
        tally.check(peak_ok and reference is not None
                    and np.array_equal(reference, out),
                    f"{c.model}: budgeted run not bitwise equal to temco, "
                    f"or measured peak != planned peak")
    return start, dt


def trace_layers(c: Compiled, outputs: dict, phase: Phase, tally: Tally,
                 yard: Yardstick, spans: SpanLog, parent: int, rid: int
                 ) -> None:
    """The traced extras for one model: bare kernel replay, then a run
    under the program's tracer and one with its ledger recording."""
    tick = yard.tick()
    start = now()
    span = spans.open("runtime.replay", start, parent, rid)
    out, family_s = replay(c, spans, span, rid)
    end = now()
    spans.close(span, end)
    phase.add(c.model, "replay", end - start, tick)
    for family, seconds in family_s.items():
        phase.add(c.model, family, seconds, tick)
    tally.check(np.array_equal(out, outputs.get((c.model, "temco"))),
                f"{c.model}: bare kernel replay differs from the run")
    session = c.sessions["temco"]
    for what, context, kwargs in (
            ("tracer_on", use_tracer(Tracer()), {}),
            ("ledger_on", contextlib.nullcontext(), {"record_ledger": True})):
        tick = yard.tick()
        with context:
            start, dt, result = timed_run(session, c.x, tally, **kwargs)
        spans.add("obs." + what, start, start + dt, parent, rid)
        phase.add(c.model, what, dt, tick)
        if result is not None:
            tally.ok()


def measure(compiled: list[Compiled], seconds: float, seed: int,
            tally: Tally, yard: Yardstick, spans: SpanLog | None = None
            ) -> Phase:
    """Round-robin every (model, variant) pair, models in an order
    shuffled from the seed, until `seconds` have passed; whole rounds only, so
    every pair has the same number of samples.  The yardstick is sampled
    before every run.  With `spans`, each round also runs `trace_layers`
    for every model."""
    order = list(compiled)
    random.Random(seed).shuffle(order)
    # a model's variants stay adjacent and in this order: each is
    # checked against the one before it, under the same machine state
    pairs = [(c, variant) for c in order for variant in c.sessions]
    phase = Phase()
    outputs: dict[tuple[str, str], np.ndarray] = {}
    rid = 0
    first_tick = len(yard.samples)
    end = now() + seconds
    while rid == 0 or now() < end:
        if spans is None:
            for c, variant in pairs:
                run_pair(c, variant, outputs, phase, tally, yard)
        else:
            round_span = spans.open("round", now(), None, rid)
            for c, variant in pairs:
                start, dt = run_pair(c, variant, outputs, phase, tally, yard)
                spans.add(f"runtime.run.{variant}", start, start + dt,
                          round_span, rid)
            for c in compiled:
                trace_layers(c, outputs, phase, tally, yard, spans,
                             round_span, rid)
            spans.close(round_span, now())
        rid += 1
    phase.scale(yard, first_tick)
    return phase


def rows(compiled: list[Compiled], phase: Phase) -> list[dict]:
    return [{"model": c.model, "method": c.method, "variant": variant,
             "p50_ms": phase.p(c.model, variant),
             "p90_ms": phase.p(c.model, variant, p90),
             "peak_bytes": c.peaks[variant],
             "n": len(phase.runs[(c.model, variant)])}
            for c in compiled for variant in c.sessions]


def end_to_end(compiled, phase: Phase, setup_s: float, tally: Tally) -> dict:
    temco_s = np.asarray([phase.runs[(c.model, "temco")] for c in compiled])
    budgeted = [c for c in compiled if "temco_budget" in c.sessions]
    return {
        "setup_s": setup_s,
        "latency_ms_p50": geomean(phase.p(c.model, "temco") for c in compiled),
        "latency_ms_p90": geomean(phase.p(c.model, "temco", p90)
                                  for c in compiled),
        "throughput_sps": compiled[0].batch * temco_s.size / temco_s.sum(),
        "overhead_vs_decomposed": geomean(
            phase.ratio(c.model, "temco", "decomposed") for c in compiled),
        "peak_bytes": float(sum(c.peaks["temco"] for c in compiled)),
        "peak_ratio_vs_decomposed": geomean(
            c.peaks["temco"] / c.peaks["decomposed"] for c in compiled),
        "budget_overhead": geomean(
            phase.ratio(c.model, "temco_budget", "temco") for c in budgeted),
        # no latency limit on this path: an answer is good when correct
        "goodput_share": tally.ok_share,
        "ok_share": tally.ok_share,
    }


def sites(graph) -> int:
    """Convolutions the decomposition replaced (one lconv each)."""
    return sum(1 for node in graph.nodes if node.attrs.get("role") == "lconv")


def per_layer(compiled, setups: list[list[Compiled]], reference: Phase,
              traced: Phase, spans: SpanLog) -> dict:
    """Per-layer numbers of one traced run.  Set-up times are medians
    over the repeated set-ups; kernel bytes are computed from tensor and
    parameter sizes, not measured."""
    def setup_time(key: str) -> float:
        return p50([sum(c.times.get(key, 0.0) for c in one)
                    for one in setups])

    def total(fn) -> float:
        return float(sum(fn(c) for c in compiled))

    m: dict[str, float] = {
        "models.build_s": setup_time("build"),
        "decompose.tucker_s": setup_time("tucker"),
        "decompose.cp_s": setup_time("cp"),
        "decompose.tt_s": setup_time("tt"),
        "core.optimize_s": setup_time("optimize"),
        "plan.plan_memory_s": setup_time("plan"),
        "decompose.sites": total(lambda c: sites(c.decomposed)),
        "decompose.weight_ratio": (total(lambda c: c.decomposed.weight_bytes())
                                   / total(lambda c: c.original.weight_bytes())),
        "core.skip_opt.applied": total(
            lambda c: c.report.skip_opt.optimized if c.report.skip_opt else 0),
        "core.transform.applied": total(
            lambda c: c.report.transforms.total() if c.report.transforms else 0),
        "core.fusion.applied": total(
            lambda c: c.report.fusion.fused if c.report.fusion else 0),
        "core.nodes_out": total(lambda c: len(c.temco.nodes)),
        "core.flops_ratio": (total(lambda c: graph_flops(c.temco))
                             / total(lambda c: graph_flops(c.decomposed))),
        "core.peak_predict_err_bytes": total(lambda c: sum(
            abs(estimate_peak_internal(graph) - c.peaks[variant])
            for variant, graph in (("decomposed", c.decomposed),
                                   ("temco", c.temco)))),
    }
    # the repeated set-ups double as the compile-twice determinism check
    prints = [[graph_fingerprint(c.temco) for c in one] for one in setups]
    m["core.determinism_mismatch"] = float(sum(
        a != b for other in prints[1:] for a, b in zip(prints[0], other)))

    stats = list(traced.plan_stats.values())
    m["plan.spills"] = float(sum(s.spills for s in stats))
    m["plan.remats"] = float(sum(s.remats for s in stats))
    m["plan.spilled_bytes"] = float(sum(s.spilled_bytes for s in stats))
    m["plan.peak_mismatch"] = float(traced.peak_mismatch)

    for variant in ("decomposed", "temco"):
        m[f"runtime.run_ms_p50.{variant}"] = geomean(
            traced.p(c.model, variant) for c in compiled)
    # per round, what `run` costs over the same kernels run bare
    m["runtime.executor_overhead_ms"] = sum(
        p50(np.subtract(traced.runs[(c.model, "temco")],
                        traced.runs[(c.model, "replay")])) for c in compiled
    ) * 1e3
    m["runtime.executor_overhead_share"] = (
        m["runtime.executor_overhead_ms"]
        / sum(traced.p(c.model, "temco") for c in compiled))
    profiles = traced.profile.values()
    m["runtime.allocations"] = float(sum(p.num_allocations for p in profiles))
    m["runtime.allocated_bytes"] = float(sum(
        p.total_allocated_bytes for p in profiles))
    m["runtime.nodes_executed"] = float(sum(len(p.events) for p in profiles))

    for family in FAMILIES:
        nodes = [node for c in compiled for node in c.temco.nodes
                 if OP_FAMILY[node.op] == family]
        m[f"kernels.{family}.ms"] = sum(
            traced.p(c.model, family) for c in compiled)
        m[f"kernels.{family}.calls"] = float(len(nodes))
        m[f"kernels.{family}.flops"] = float(sum(map(node_flops, nodes)))
        m[f"kernels.{family}.bytes"] = float(sum(
            sum(v.nbytes for v in node.inputs) + node.output.nbytes
            + node.param_bytes() for node in nodes))
    m["kernels.total_ms"] = sum(m[f"kernels.{f}.ms"] for f in FAMILIES)
    m["kernels.gflops_per_s"] = (
        sum(m[f"kernels.{f}.flops"] for f in FAMILIES)
        / (m["kernels.total_ms"] * 1e-3) / 1e9)

    for what in ("tracer", "ledger"):
        m[f"obs.{what}_tax"] = geomean(
            traced.ratio(c.model, what + "_on", "temco") for c in compiled)

    m["bench.trace_overhead"] = (
        m["runtime.run_ms_p50.temco"]
        / geomean(reference.p(c.model, "temco") for c in compiled))
    m["bench.samples_min"] = float(min(map(len, traced.runs.values())))
    # share of the replays' wall time that no kernel span accounts for
    m["bench.layer_sum_err"] = (spans.self_times()["runtime.replay"]
                                / sum(spans.durations("runtime.replay")))
    m["bench.rss_peak_mb"] = rss_peak_mb()
    m.update(yardstick_metrics(traced.yard))
    return m


def reference_data(compiled) -> tuple[dict, dict]:
    """What `expected/seed0.json` pins: the decomposed models' outputs
    and structure.  Nothing here depends on `repro.core`, the executor's
    accounting or the planner, which later changes may improve."""
    outputs = {c.model: c.reference for c in compiled}
    counts = {}
    for c in compiled:
        counts[f"{c.model}.sites"] = sites(c.decomposed)
        counts[f"{c.model}.nodes"] = len(c.decomposed.nodes)
        counts[f"{c.model}.weight_bytes"] = c.decomposed.weight_bytes()
    return outputs, counts


def run(name: str, seed: int, seconds: float, traced: bool, setups: int,
        tally: Tally, spans: SpanLog | None, check_reference) -> dict:
    spec = WORKLOADS[name]
    yard = Yardstick()
    all_setups, setup_times = [], []
    for _ in range(setups):
        compiled, dt = set_up(spec, seed, yard)
        all_setups.append(compiled)
        setup_times.append(dt)
    compiled = all_setups[-1]
    check_reference(*reference_data(compiled))
    if traced:
        reference = measure(compiled, seconds * 0.25, seed, tally, yard)
        phase = measure(compiled, seconds * 0.75, seed, tally, yard, spans)
        metrics = per_layer(compiled, all_setups, reference, phase, spans)
    else:
        phase = measure(compiled, seconds, seed, tally, yard)
        metrics = end_to_end(compiled, phase, p50(setup_times), tally)
    return {"metrics": metrics, "rows": rows(compiled, phase)}
