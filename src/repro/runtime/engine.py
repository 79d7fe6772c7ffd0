"""High-level inference session.

:class:`InferenceSession` is the user-facing entry point: it owns a
validated graph, runs single inferences and repeated timed inferences
(Figure 11's end-to-end timing protocol: warmup + median of repeats).
Each run returns its own memory profile; the session keeps nothing of
it.
"""

from __future__ import annotations

import logging
import statistics
import time
from dataclasses import dataclass

import numpy as np

from ..ir.graph import Graph
from ..obs import get_tracer
from ..obs.metrics import interpolated_quantile
from .executor import ExecutionResult, Schedule, execute

logger = logging.getLogger(__name__)

__all__ = ["InferenceSession", "TimingResult"]


@dataclass(frozen=True)
class TimingResult:
    """Repeated-inference timing summary."""

    seconds_per_run: list[float]

    @property
    def median(self) -> float:
        return statistics.median(self.seconds_per_run)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.seconds_per_run)

    @property
    def best(self) -> float:
        return min(self.seconds_per_run)

    def percentile(self, q: float) -> float:
        """Linearly interpolated percentile, ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return interpolated_quantile(self.seconds_per_run, q / 100.0)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)


class InferenceSession:
    """Run a (possibly TeMCO-optimized) model graph.

    The graph is frozen at construction: its run
    :class:`~repro.runtime.executor.Schedule` (free lists, byte sizes,
    fused-tile scratch and every node's kernel, bound with its attrs,
    geometry and packed weights) is built from it once and reused by
    every inference, so mutate a graph — its ``params`` included —
    before handing it to a session, never after.  Nothing of a run is
    kept in the schedule: several threads (the serving workers) may run
    one session at once.

    Parameters
    ----------
    graph:
        A validated IR graph.  The session validates it again on
        construction so user-assembled graphs fail fast.
    tracer:
        An :class:`repro.obs.Tracer` that every inference of this
        session records into; defaults to the ambient tracer (a no-op
        unless one is installed with :func:`repro.obs.use_tracer`).
    memory_plan:
        A :class:`~repro.plan.MemoryPlan` enforced on every inference
        of this session: spills, prefetches and remats keep the
        measured peak at the plan's predicted peak (see
        :mod:`repro.runtime.planned`).
    """

    def __init__(self, graph: Graph, *, tracer=None,
                 memory_plan=None) -> None:
        graph.validate()
        self.graph = graph
        self.tracer = tracer
        self.memory_plan = memory_plan
        self._schedule = Schedule(graph)

    def run(self, inputs: dict[str, np.ndarray] | np.ndarray, *,
            record_ledger: bool = False, tracer=None) -> ExecutionResult:
        """Run one inference.  A bare array is bound to the sole input.

        ``tracer`` overrides the session tracer for this call only —
        the serving layer passes a per-batch tagged view
        (:meth:`~repro.obs.Tracer.tagged`) so executor node spans carry
        the trace ids of the requests coalesced into the batch.
        """
        if isinstance(inputs, np.ndarray):
            if len(self.graph.inputs) != 1:
                raise ValueError(
                    f"graph has {len(self.graph.inputs)} inputs; pass a dict")
            inputs = {self.graph.inputs[0].name: inputs}
        if tracer is None:
            tracer = self.tracer if self.tracer is not None else get_tracer()
        with tracer.span("inference", category="runtime",
                         graph=self.graph.name):
            result = execute(self._schedule, inputs,
                             record_ledger=record_ledger,
                             plan=self.memory_plan, tracer=tracer)
        if logger.isEnabledFor(logging.DEBUG):  # summary() is not free
            logger.debug("inference on %s: %s", self.graph.name,
                         result.memory.summary())
        return result

    def time_inference(self, inputs: dict[str, np.ndarray] | np.ndarray,
                       *, warmup: int = 1, repeats: int = 3) -> TimingResult:
        """End-to-end wall-clock timing with warmup (Figure 11 protocol)."""
        for _ in range(warmup):
            self.run(inputs)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.run(inputs)
            times.append(time.perf_counter() - start)
        return TimingResult(times)
