"""The budget planner: grammar, simulation fidelity, greedy relief,
and the typed infeasibility contract."""

import pytest

from repro.core import estimate_peak_floor, estimate_peak_internal, simulate
from repro.data.synthetic import random_inputs
from repro.ir import GraphBuilder
from repro.ir.ops import node_flops
from repro.models import build_wavenet2d
from repro.plan import (BudgetSyntaxError, InfeasibleBudget, KeepAction,
                        MemoryPlan, PlanCostModel, RematAction, SpillAction,
                        bucket_actions, format_bytes, parse_budget,
                        plan_memory)


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


def _two_remats_at_one_boundary():
    """``a`` is cheap to hold but replays through a wide intermediate;
    ``b`` is its own chain.  Both are dropped after node 2 and replayed
    before node 5, where which chain goes first sets the high water."""
    b = GraphBuilder("two_remats", seed=0)
    x = b.input("x", (1, 4, 8, 8))
    a = b.conv2d(b.conv2d(x, 32, 1), 2, 1)         # nodes 0, 1
    bb = b.conv2d(x, 8, 1)                          # node 2
    m = b.relu(b.relu(x))                           # nodes 3, 4
    ab = b.concat(a, bb)                            # node 5
    g = b.finish(b.concat(b.concat(ab, m), x))      # nodes 6, 7

    def remat(value, chain):
        return RematAction(
            value=value, drop_after=2, remat_before=5, chain=chain,
            recompute_flops=sum(node_flops(n) for n in chain),
            transient_bytes=sum(n.output.nbytes for n in chain))

    return g, remat(a, (g.nodes[0], g.nodes[1])), remat(bb, (g.nodes[2],))


class TestActionOrder:
    """Two remats at one boundary: the planner prices the order the
    enforcer replays, whatever order the actions were found in."""

    def test_the_two_orders_would_price_differently(self):
        _, ra, rb = _two_remats_at_one_boundary()
        assert (max(ra.transient_bytes, ra.nbytes + rb.transient_bytes)
                != max(rb.transient_bytes, rb.nbytes + ra.transient_bytes))

    @pytest.mark.parametrize("found_first", ["a", "b"])
    def test_priced_order_is_the_enforced_order(self, found_first):
        from repro.runtime import execute
        g, ra, rb = _two_remats_at_one_boundary()
        found = (ra, rb) if found_first == "a" else (rb, ra)
        priced = simulate(g, actions=bucket_actions(found))
        # the plan hands the enforcer the opposite arrival order
        plan = MemoryPlan(
            graph_name=g.name, num_nodes=len(g.nodes), budget_bytes=None,
            baseline_peak_bytes=simulate(g).peak_bytes,
            planned_peak_bytes=priced.peak_bytes, planned_live=priced.live,
            actions=found[::-1], cost_model=PlanCostModel())
        inputs = random_inputs(g, 0)
        result = execute(g, inputs, plan=plan, record_ledger=True)
        assert result.memory.plan_stats.remats == 2
        assert result.memory.ledger == simulate(g, actions=plan.buckets).events
        assert result.memory.peak_internal_bytes == plan.planned_peak_bytes
        assert tuple(result.memory.events) == plan.planned_live
        for name, want in execute(g, inputs).outputs.items():
            assert (result.outputs[name] == want).all()


class TestPlanMemory:
    def test_no_budget_is_the_all_keep_analysis_view(self, wavenet):
        plan = plan_memory(wavenet)
        assert plan.budget_bytes is None
        assert not plan.spills and not plan.remats
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
        assert plan.spills or plan.remats

    def test_actions_are_ordered_spills_remats_keeps(self, wavenet):
        plan = plan_memory(wavenet, int(0.6 * estimate_peak_internal(wavenet)))
        rank = {"spill": 0, "remat": 1, "keep": 2}
        ranks = [rank[a.kind] for a in plan.actions]
        assert ranks == sorted(ranks)
        assert all(isinstance(a, (SpillAction, RematAction, KeepAction))
                   for a in plan.actions)

    def test_spill_schedule_is_internally_consistent(self, wavenet):
        plan = plan_memory(wavenet, int(0.6 * estimate_peak_internal(wavenet)))
        for a in plan.spills:
            assert a.spill_after < a.prefetch_issue <= a.next_use
            assert a.nbytes == a.value.nbytes

    def test_remat_chain_bookkeeping(self, wavenet):
        # remat actions (when chosen) must carry a schedule-ordered
        # chain whose flop/byte totals match the chain itself
        baseline = estimate_peak_internal(wavenet)
        index_of = {n.name: i for i, n in enumerate(wavenet.nodes)}
        for fraction in (0.9, 0.7, 0.55):
            plan = plan_memory(wavenet, int(fraction * baseline))
            for a in plan.remats:
                order = [index_of[n.name] for n in a.chain]
                assert order == sorted(order)
                assert a.chain[-1].output.name == a.value.name
                assert a.recompute_flops == sum(node_flops(n) for n in a.chain)
                assert a.transient_bytes == \
                    sum(n.output.nbytes for n in a.chain)
                assert a.drop_after < a.remat_before

    def test_overhead_prediction_follows_the_cost_model(self, wavenet):
        cm = PlanCostModel(spill_bandwidth_bytes_per_s=1e9)
        plan = plan_memory(wavenet, int(0.6 * estimate_peak_internal(wavenet)),
                           cost_model=cm)
        expected = sum(a.cost_seconds(cm) for a in plan.actions)
        assert plan.predicted_overhead_seconds == pytest.approx(expected)
        assert plan.predicted_overhead_seconds > 0

    def test_to_dict_is_json_shaped(self, wavenet):
        plan = plan_memory(wavenet, int(0.6 * estimate_peak_internal(wavenet)))
        doc = plan.to_dict()
        for key in ("graph", "budget_bytes", "baseline_peak_bytes",
                    "planned_peak_bytes", "relief_bytes", "actions",
                    "planned_live", "cost_model", "within_budget"):
            assert key in doc
        assert len(doc["actions"]) == len(plan.actions)
        assert all(a["kind"] in ("spill", "remat", "keep")
                   for a in doc["actions"])

    def test_non_positive_budget_rejected(self, wavenet):
        with pytest.raises(ValueError, match="positive"):
            plan_memory(wavenet, 0)
        with pytest.raises(ValueError, match="positive"):
            plan_memory(wavenet, -4096)


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
