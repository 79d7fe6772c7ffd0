"""Data-parallel batch inference across processes.

NumPy releases the GIL inside BLAS but graph interpretation is Python;
for throughput-oriented batch serving the standard HPC recipe is batch
sharding: split the batch axis across worker processes, run the same
graph in each, concatenate results.  The graph ships to workers once
(via :mod:`repro.ir.serialize`) in the pool initializer, so per-call
overhead is just the input shard.

This mirrors an MPI scatter/gather pattern (cf. the mpi4py tutorial in
the domain guides) on a single node using ``multiprocessing``.

**Trace propagation.**  When the ambient tracer is enabled, each
worker runs its shard under a process-local
:class:`~repro.obs.Tracer`, ships the records back with the outputs
(:meth:`~repro.obs.Tracer.export_records`), and the parent merges them
into its own timeline (:meth:`~repro.obs.Tracer.absorb`): wall-clock
aligned, one labeled ``shard-N`` row per worker, every absorbed span
stamped with the run's ``trace_id`` — so one Chrome trace shows the
fan-out across process boundaries end to end.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Any

import numpy as np

from ..ir.graph import Graph
from ..ir.serialize import graph_from_dict, graph_to_dict
from ..obs import TaggedTracer, Tracer, get_tracer, new_trace_id
from .executor import execute

__all__ = ["ParallelRunner", "shard_batch", "PARALLEL_TID_BASE"]

#: Chrome-trace rows for absorbed shard timelines start here, clear of
#: the serve workers' 1..N rows
PARALLEL_TID_BASE = 1000

_WORKER_GRAPH: Graph | None = None


def _init_worker(structure: dict[str, Any], weights: dict[str, np.ndarray]) -> None:
    global _WORKER_GRAPH
    _WORKER_GRAPH = graph_from_dict(structure, weights)


def _run_shard(payload: tuple[Graph | None, int, str | None,
                              dict[str, np.ndarray]],
               ) -> tuple[dict[str, np.ndarray], dict[str, Any] | None]:
    """Run one shard; ``payload`` is ``(graph, shard_index, trace_id,
    shard)``.  ``graph=None`` means the pool worker's own copy.

    With a ``trace_id`` the shard runs under a fresh local tracer
    (tagged with the id and the shard index) and the tracer's picklable
    record dump comes back with the outputs for the parent to absorb —
    the worker half of cross-process trace propagation.
    """
    graph, shard_index, trace_id, shard = payload
    if graph is None:
        assert _WORKER_GRAPH is not None, "worker not initialized"
        graph = _WORKER_GRAPH
    if trace_id is None:
        return execute(graph, shard).outputs, None
    local = Tracer()
    tagged = TaggedTracer(local, trace_id=trace_id, shard=shard_index)
    with tagged.span("parallel.shard", category="parallel",
                     samples=next(iter(shard.values())).shape[0]):
        outputs = execute(graph, shard, tracer=tagged).outputs
    return outputs, local.export_records()


def shard_batch(inputs: dict[str, np.ndarray], num_shards: int) -> list[dict[str, np.ndarray]]:
    """Split every input along axis 0 into up to ``num_shards`` chunks.

    All inputs must share the same batch size.  Returns only non-empty
    shards (fewer than ``num_shards`` if the batch is small).
    """
    batch_sizes = {name: arr.shape[0] for name, arr in inputs.items()}
    if len(set(batch_sizes.values())) != 1:
        raise ValueError(f"inconsistent batch sizes across inputs: {batch_sizes}")
    batch = next(iter(batch_sizes.values()))
    if batch == 0:
        raise ValueError("empty batch")
    bounds = np.linspace(0, batch, num=min(num_shards, batch) + 1, dtype=int)
    shards = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            shards.append({name: arr[lo:hi] for name, arr in inputs.items()})
    return shards


class ParallelRunner:
    """Run a fixed graph on batches, sharded over a process pool.

    The graph must accept arbitrary batch sizes only if it was built
    that way; since our IR has static shapes, the runner re-binds the
    graph per shard size by rebuilding inputs — instead we require the
    caller to pass batches whose size is divisible by ``num_workers``
    times the graph's batch, or simply graphs built at the shard batch
    size.  In practice: build the graph at batch ``B``, run batches of
    ``k·B`` with ``num_workers = k``.
    """

    def __init__(self, graph: Graph, num_workers: int = 2) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        graph.validate()
        self.graph = graph
        self.num_workers = num_workers
        self._pool: mp.pool.Pool | None = None

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ParallelRunner":
        structure, weights = graph_to_dict(self.graph)
        ctx = mp.get_context("spawn" if mp.get_start_method(allow_none=True) == "spawn"
                             else "fork")
        self._pool = ctx.Pool(self.num_workers, initializer=_init_worker,
                              initargs=(structure, weights))
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    # -- execution -----------------------------------------------------
    def run(self, inputs: dict[str, np.ndarray], *,
            trace_id: str | None = None) -> dict[str, np.ndarray]:
        """Shard the batch, run shards in parallel, concatenate outputs.

        When the ambient tracer is enabled, the whole run is traced
        under one ``trace_id`` (a fresh one unless the caller
        propagates its own): the parent records a ``parallel.run``
        span, every worker process records its shard locally, and the
        shard timelines are merged back onto labeled ``shard-N`` rows.
        """
        graph_batch = self.graph.inputs[0].shape[0]
        shards = []
        batch = next(iter(inputs.values())).shape[0]
        if batch % graph_batch != 0:
            raise ValueError(
                f"batch {batch} not divisible by graph batch {graph_batch}")
        for lo in range(0, batch, graph_batch):
            shards.append({name: arr[lo:lo + graph_batch] for name, arr in inputs.items()})

        tracer = get_tracer()
        # shards are traced (and their records absorbed) only when the
        # ambient tracer records
        trace_id = (trace_id or new_trace_id()) if tracer.enabled else None
        # few shards or no pool: same code, this process
        local = self._pool is None or len(shards) == 1
        payloads = [(self.graph if local else None, index, trace_id, shard)
                    for index, shard in enumerate(shards)]
        results = []
        with tracer.span("parallel.run", category="parallel",
                         trace_id=trace_id, shards=len(shards),
                         workers=self.num_workers):
            pairs = (map(_run_shard, payloads) if local
                     else self._pool.map(_run_shard, payloads))
            for index, (outputs, records) in enumerate(pairs):
                if records is not None:
                    tid = PARALLEL_TID_BASE + index
                    tracer.name_thread(tid, f"shard-{index}")
                    tracer.absorb(records, tid=tid)
                results.append(outputs)
        return {name: np.concatenate([r[name] for r in results], axis=0)
                for name in results[0]}
