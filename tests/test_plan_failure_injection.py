"""Failure injection for budgeted runs: a run that raises mid-plan
leaves nothing behind in its session — the next budgeted run is
bitwise correct and lands on the planned peak."""

import numpy as np
import pytest

from repro import kernels
from repro.core import estimate_peak_internal
from repro.models import build_wavenet2d
from repro.plan import plan_memory
from repro.runtime import InferenceSession
from repro.runtime.executor import execute


class TestAbandonedRun:
    def test_session_serves_the_next_run_after_a_kernel_failure(
            self, monkeypatch):
        graph = build_wavenet2d(batch=1, hw=32)
        plan = plan_memory(graph, int(0.60 * estimate_peak_internal(graph)))
        assert plan.spills
        rng = np.random.default_rng(0)
        inputs = {v.name: rng.standard_normal(v.shape).astype(np.float32)
                  for v in graph.inputs}
        reference = execute(graph, inputs)
        # the node a prefetch is issued at: a spilled tensor is still
        # parked, its bytes already charged back
        doomed = graph.nodes[plan.spills[0].prefetch_issue]
        binder = kernels.BINDERS[doomed.op]
        armed = [True]

        def bind_doomed(node):
            kernel = binder(node)
            if node is not doomed:
                return kernel

            def fails_once(in_arrays):
                if armed:
                    armed.pop()
                    raise ZeroDivisionError("injected kernel failure")
                return kernel(in_arrays)
            return fails_once

        # the session's schedule binds every node when it is built
        monkeypatch.setitem(kernels.BINDERS, doomed.op, bind_doomed)
        session = InferenceSession(graph, memory_plan=plan)
        with pytest.raises(ZeroDivisionError, match="injected"):
            session.run(inputs)
        result = session.run(inputs)
        for name, array in reference.outputs.items():
            assert np.array_equal(result.outputs[name], array), name
        assert result.memory.peak_internal_bytes == plan.planned_peak_bytes
        assert result.memory.plan_stats.prefetches == len(plan.spills)
