"""The budget planner: grammar, simulation fidelity, greedy relief,
and the typed infeasibility contract."""

import pytest

from repro import DecompositionConfig, build_model, decompose_graph, optimize
from repro.core import estimate_peak_floor, estimate_peak_internal, simulate
from repro.data.synthetic import random_inputs
from repro.ir import GraphBuilder
from repro.models import build_wavenet2d
from repro.plan import (BudgetSyntaxError, InfeasibleBudget, KeepAction,
                        MemoryPlan, SpillAction, bucket_actions, format_bytes,
                        parse_budget, plan_memory)


@pytest.fixture(scope="module")
def wavenet():
    # small enough to plan in milliseconds, long-skip enough that the
    # peak sits well above the single-node floor
    return build_wavenet2d(batch=1, hw=16, channels=8, layers=6)


class TestBudgetGrammar:
    def test_plain_integers_and_byte_suffix(self):
        assert parse_budget("1048576") == 1048576
        assert parse_budget("1048576B") == 1048576
        assert parse_budget(4096) == 4096

    def test_binary_and_decimal_units(self):
        assert parse_budget("64KiB") == 64 * 1024
        assert parse_budget("1.5MiB") == int(1.5 * 1024 ** 2)
        assert parse_budget("2GiB") == 2 * 1024 ** 3
        assert parse_budget("64KB") == 64_000
        assert parse_budget("2GB") == 2_000_000_000

    def test_units_are_case_insensitive(self):
        assert parse_budget("64kib") == parse_budget("64KIB")

    def test_percentage_needs_a_reference(self):
        assert parse_budget("60%", reference=1000) == 600
        with pytest.raises(BudgetSyntaxError, match="reference"):
            parse_budget("60%")

    def test_percentage_floors_to_whole_bytes(self):
        # a budget is a ceiling: never round up past what was asked
        assert parse_budget("33%", reference=100) == 33
        assert parse_budget("0.1%", reference=1000) == 1

    def test_rejects_garbage_and_non_positive(self):
        for bad in ("", "banana", "12XB", "-5", "0"):
            with pytest.raises(BudgetSyntaxError):
                parse_budget(bad)
        with pytest.raises(BudgetSyntaxError):
            parse_budget(0)
        with pytest.raises(BudgetSyntaxError):
            parse_budget(-1)

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(64 * 1024) == "64.00 KiB"
        assert format_bytes(int(1.5 * 1024 ** 2)) == "1.50 MiB"


class TestSimulation:
    def test_planned_live_has_one_sample_per_node(self, wavenet):
        schedule = simulate(wavenet)
        assert len(schedule.live) == len(wavenet.nodes)
        assert 0 <= schedule.peak_index < len(wavenet.nodes)
        # pre-free samples bound the peak from below, never above
        assert max(schedule.live) <= schedule.peak_bytes

    def test_plan_actions_replay_to_the_planned_peak(self, wavenet):
        budget = int(0.7 * estimate_peak_internal(wavenet))
        plan = plan_memory(wavenet, budget)
        schedule = simulate(wavenet, actions=bucket_actions(plan.actions))
        assert schedule.peak_bytes == plan.planned_peak_bytes
        assert schedule.live == plan.planned_live


def _two_spills_at_one_boundary():
    """``a`` and ``bb`` both idle across the relu pair: each is spilled
    after node 1 and prefetched back before node 4, their consumer."""
    b = GraphBuilder("two_spills", seed=0)
    x = b.input("x", (1, 4, 8, 8))
    a = b.conv2d(x, 2, 1)                           # node 0
    bb = b.conv2d(x, 8, 1)                          # node 1
    m = b.relu(b.relu(x))                           # nodes 2, 3
    ab = b.concat(a, bb)                            # node 4
    g = b.finish(b.concat(b.concat(ab, m), x))      # nodes 5, 6

    def spill(value):
        return SpillAction(value=value, spill_after=1, prefetch_issue=3,
                           next_use=4)

    return g, spill(a), spill(bb)


class TestActionOrder:
    """Two spills at one boundary: the ledger is the same event list
    whatever order the actions were found in."""

    @pytest.mark.parametrize("found_first", ["a", "b"])
    def test_priced_order_is_the_enforced_order(self, found_first):
        from repro.runtime import execute
        g, sa, sb = _two_spills_at_one_boundary()
        found = (sa, sb) if found_first == "a" else (sb, sa)
        priced = simulate(g, actions=bucket_actions(found))
        # the plan hands the enforcer the opposite arrival order
        plan = MemoryPlan(
            graph_name=g.name, num_nodes=len(g.nodes), budget_bytes=None,
            baseline_peak_bytes=simulate(g).peak_bytes,
            planned_peak_bytes=priced.peak_bytes, planned_live=priced.live,
            actions=found[::-1])
        inputs = random_inputs(g, 0)
        result = execute(g, inputs, plan=plan, record_ledger=True)
        assert result.memory.plan_stats.spills == 2
        assert result.memory.ledger == priced.events
        assert result.memory.peak_internal_bytes == plan.planned_peak_bytes
        assert tuple(result.memory.events) == plan.planned_live
        for name, want in execute(g, inputs).outputs.items():
            assert (result.outputs[name] == want).all()


class TestPlanMemory:
    def test_no_budget_is_the_all_keep_analysis_view(self, wavenet):
        plan = plan_memory(wavenet)
        assert plan.budget_bytes is None
        assert not plan.spills
        assert plan.planned_peak_bytes == plan.baseline_peak_bytes
        assert plan.within_budget
        assert plan.relief_bytes == 0

    @pytest.mark.parametrize("fraction", [0.9, 0.75, 0.6, 0.5])
    def test_planned_peak_fits_any_feasible_budget(self, wavenet, fraction):
        baseline = estimate_peak_internal(wavenet)
        budget = int(fraction * baseline)
        plan = plan_memory(wavenet, budget)
        assert plan.planned_peak_bytes <= budget
        assert plan.within_budget
        assert plan.baseline_peak_bytes == baseline
        assert plan.relief_bytes == baseline - plan.planned_peak_bytes
        assert plan.spills

    def test_actions_are_ordered_spills_keeps(self, wavenet):
        plan = plan_memory(wavenet, int(0.6 * estimate_peak_internal(wavenet)))
        rank = {"spill": 0, "keep": 1}
        ranks = [rank[a.kind] for a in plan.actions]
        assert ranks == sorted(ranks)
        assert all(isinstance(a, (SpillAction, KeepAction))
                   for a in plan.actions)

    def test_spill_schedule_is_internally_consistent(self, wavenet):
        plan = plan_memory(wavenet, int(0.6 * estimate_peak_internal(wavenet)))
        for a in plan.spills:
            assert a.spill_after < a.prefetch_issue <= a.next_use
            assert a.nbytes == a.value.nbytes

    def test_to_dict_is_json_shaped(self, wavenet):
        plan = plan_memory(wavenet, int(0.6 * estimate_peak_internal(wavenet)))
        doc = plan.to_dict()
        for key in ("graph", "budget_bytes", "baseline_peak_bytes",
                    "planned_peak_bytes", "relief_bytes", "actions",
                    "planned_live", "within_budget"):
            assert key in doc
        for key in ("cost_model", "predicted_overhead_seconds"):
            assert key not in doc  # a plan prices nothing
        assert len(doc["actions"]) == len(plan.actions)
        assert all(a["kind"] in ("spill", "keep") for a in doc["actions"])

    def test_non_positive_budget_rejected(self, wavenet):
        with pytest.raises(ValueError, match="positive"):
            plan_memory(wavenet, 0)
        with pytest.raises(ValueError, match="positive"):
            plan_memory(wavenet, -4096)


def _two_idle_candidates(big="a"):
    """``big`` (98,304 B) and ``b`` (65,536 B) both sit idle across the
    peak at node 3, the first relu, and either spill alone fits a
    budget of peak - 64 KiB."""
    g = GraphBuilder("name_order", seed=0)
    x = g.input("x", (1, 4, 32, 32))
    a = g.conv2d(x, 24, 1, name=big)                # node 0
    b = g.conv2d(x, 16, 1, name="b")                # node 1
    w = g.conv2d(x, 64, 1, name="w")                # node 2
    p = g.conv2d(g.relu(g.relu(w)), 4, 1, name="p")  # nodes 3, 4, 5
    return g.finish(g.concat(a, b, p))              # node 6


class TestSpillOrder:
    def test_spills_rank_by_name(self):
        graph = _two_idle_candidates()
        schedule = simulate(graph)
        assert (schedule.peak_bytes, schedule.peak_index) == (688_128, 3)
        plan = plan_memory(graph, schedule.peak_bytes - 65_536)
        assert [(s.value.name, s.nbytes) for s in plan.spills] \
            == [("a.out", 98_304)]
        assert plan.planned_peak_bytes == 688_128 - 98_304

    def test_renaming_flips_the_spill(self):
        # the same graph with the big tensor named after ``b``: size
        # does not rank, so the smaller ``b.out`` now goes first
        graph = _two_idle_candidates(big="c")
        schedule = simulate(graph)
        plan = plan_memory(graph, schedule.peak_bytes - 65_536)
        assert [(s.value.name, s.nbytes) for s in plan.spills] \
            == [("b.out", 65_536)]
        assert plan.planned_peak_bytes == 688_128 - 65_536


class TestInfeasibleBudget:
    def test_below_floor_raises_with_residual(self, wavenet):
        floor = estimate_peak_floor(wavenet)
        budget = floor // 2
        with pytest.raises(InfeasibleBudget) as exc_info:
            plan_memory(wavenet, budget)
        exc = exc_info.value
        assert exc.budget_bytes == budget
        assert exc.predicted_peak_bytes > budget
        assert exc.residual_bytes == exc.predicted_peak_bytes - budget
        assert "residual" in str(exc)

    def test_floor_never_exceeds_baseline_peak(self, wavenet):
        assert estimate_peak_floor(wavenet) <= estimate_peak_internal(wavenet)

    def test_plan_type_is_memory_plan(self, wavenet):
        assert isinstance(plan_memory(wavenet), MemoryPlan)


class TestBenchmarkRows:
    """The plans of perfbench's two budget rows (``graph_b4``: Tucker
    0.1, batch 4, hw 32, budgets a share of the TeMCO peak), pinned.
    Which tensors spill depends on shapes only, so the factors are
    solved without HOOI sweeps."""

    @staticmethod
    def _plan(model, share):
        graph = build_model(model, batch=4, hw=32, seed=0)
        decomposed = decompose_graph(graph, DecompositionConfig(
            method="tucker", ratio=0.1, seed=0, hooi_iters=0))
        temco, _ = optimize(decomposed)
        plan = plan_memory(temco, int(share * estimate_peak_internal(temco)))
        return [(a.value.name, a.spill_after, a.prefetch_issue, a.next_use)
                for a in plan.spills], plan.planned_peak_bytes

    def test_wavenet2d_at_80_percent(self):
        spills, peak = self._plan("wavenet2d", 0.8)
        assert spills == [
            ("layer0.out.out", 9, 13, 14), ("layer1.out.out", 15, 19, 20),
            ("layer2.out.out", 21, 25, 26), ("layer3.out.out", 27, 32, 33),
            ("layer4.out.out", 34, 38, 39), ("layer5.out.out", 40, 44, 45)]
        assert peak == 1_572_864

    def test_fractalnet_at_90_percent(self):
        spills, peak = self._plan("fractalnet", 0.9)
        assert spills == [("frac.b.b.s.core.out", 99, 132, 133),
                          ("frac.b.s.core.out", 67, 134, 135),
                          ("frac.s.core.out", 3, 136, 137)]
        assert peak == 819_200
