"""Dynamic micro-batching: pack requests into bucket-sized shards.

The IR has static shapes, so a servable plan is compiled at one batch
size ``B``.  Requests arrive carrying 1..k samples each; this module
is the pure packing logic between the two:

- :func:`request_samples` validates a request's inputs against the
  graph signature and returns its sample count,
- :func:`derive_buckets` re-infers the served graph at every power of
  two below ``B`` (:meth:`Graph.with_batch`: same nodes, weights,
  tiles and schedule order, so nothing is decomposed or optimised
  twice) and **offers** a bucket only when :func:`probe_buckets`
  proves, node by node, that it answers bitwise what the static batch
  answers,
- :func:`assemble` walks admitted requests in FIFO order and packs
  their samples into :class:`Shard`\\ s of ``B`` samples —
  **coalescing** small requests into one shard, **splitting** requests
  larger than ``B`` across several — and hands the tail shard to the
  smallest offered **bucket** that holds it, zero-padding only up to
  that bucket,
- :func:`scatter` routes a shard's outputs back into per-request
  result buffers.

What keeps a served sample bitwise-identical to
:meth:`InferenceSession.run` on the zero-padded static batch (the
serve test suite and the benchmark assert this) is two different
facts.  Neighbour *values* never matter: every kernel in the zoo
computes each sample from that sample alone, so padding and co-riders
cannot leak in.  Batch *size* may matter: a GEMM's rounding order is a
function of its shape (``linear`` is a gemv at one sample and a gemm
at four; ``pointwise_conv``'s ``tensordot`` folds the batch into the
GEMM's N), not of the data and not of a per-op flag, so the only
truthful check is to run the exact shapes — which the probe does once
at start-up.  A refused bucket's shards run on the next larger offered
one; the static batch is always offered.

Everything here is pure data plumbing — no locks, no clocks — so the
queueing policy in :mod:`repro.serve.server` stays separately
testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .. import kernels
from ..core.liveness import free_schedule
from ..data import random_inputs
from ..ir.graph import Graph
from ..plan import InfeasibleBudget, MemoryPlan, plan_memory

__all__ = ["Segment", "Shard", "Bucket", "BucketRefusal", "Buckets",
           "request_samples", "derive_buckets", "probe_buckets", "assemble",
           "scatter"]


def request_samples(graph: Graph, inputs: dict[str, np.ndarray]) -> int:
    """Validate ``inputs`` against ``graph``'s signature; return the
    request's sample count.

    Every graph input must be present with the graph's per-sample
    shape (all dims after the batch axis) and a shared leading batch
    dimension ``k >= 1``.
    """
    expected = {v.name: v for v in graph.inputs}
    missing = sorted(set(expected) - set(inputs))
    if missing:
        raise ValueError(f"request missing inputs {missing}; "
                         f"graph inputs: {sorted(expected)}")
    extra = sorted(set(inputs) - set(expected))
    if extra:
        raise ValueError(f"request has unknown inputs {extra}; "
                         f"graph inputs: {sorted(expected)}")
    counts = {}
    for name, value in expected.items():
        arr = inputs[name]
        if arr.ndim != len(value.shape) or tuple(arr.shape[1:]) != value.shape[1:]:
            raise ValueError(
                f"input {name!r} has per-sample shape {tuple(arr.shape[1:])}, "
                f"expected {value.shape[1:]}")
        counts[name] = arr.shape[0]
    if len(set(counts.values())) != 1:
        raise ValueError(f"inconsistent sample counts across inputs: {counts}")
    samples = next(iter(counts.values()))
    if samples < 1:
        raise ValueError("request carries zero samples")
    return samples


@dataclass(frozen=True)
class Bucket:
    """One batch size the served graph runs at."""

    size: int
    graph: Graph
    #: the plan enforced on every run at this size (None = unplanned)
    memory_plan: MemoryPlan | None = None


@dataclass(frozen=True)
class BucketRefusal:
    """Why a batch size is not offered."""

    #: first node whose output at this size differs from the static
    #: batch's; None when the bucket was refused for its budget
    node: str | None
    reason: str

    def __str__(self) -> str:
        return self.node or self.reason


@dataclass(frozen=True)
class Buckets:
    """The batch sizes a server runs at, smallest first; the static
    batch is always the last of ``offered``."""

    offered: dict[int, Bucket]
    refused: dict[int, BucketRefusal] = field(default_factory=dict)

    @property
    def sizes(self) -> list[int]:
        return list(self.offered)

    @property
    def static(self) -> Bucket:
        """The served graph at its own batch: always offered, and the
        capacity of a shard."""
        return self.offered[max(self.offered)]

    def holding(self, samples: int) -> int:
        """The smallest offered size with room for ``samples``."""
        return next(size for size in self.offered if size >= samples)

    def describe(self) -> str:
        """One start-up log phrase: what is offered, what is not, why."""
        return f"buckets {self.sizes}" + "".join(
            f", bucket {size} refused ({refusal})"
            for size, refusal in self.refused.items())

    def health_fields(self) -> dict:
        """The ``/healthz`` fields naming the buckets."""
        return {"buckets": self.sizes,
                "buckets_refused": {str(size): str(refusal)
                                    for size, refusal in self.refused.items()}}


def probe_buckets(graph: Graph, candidates: dict[int, Graph]
                  ) -> dict[int, str]:
    """Which of ``candidates`` (size -> ``graph.with_batch(size)``) do
    not answer what ``graph`` answers: size -> first diverging node.

    One seeded run of ``graph``; at every node, each candidate's node
    runs on that run's own inputs cut to the candidate's size and must
    reproduce the static output cut likewise, bit for bit.  Comparing
    per node, not per graph, means a later ReLU or softmax cannot
    absorb a 1-ulp divergence, and up to its first divergence a whole
    bucket run computes exactly these node calls.
    """
    env = random_inputs(graph, seed=0)
    frees_after = free_schedule(graph)
    clean = dict(candidates)
    diverged: dict[int, str] = {}
    for index, node in enumerate(graph.nodes):
        if not clean:
            break
        ins = [env[v.name] for v in node.inputs]
        out = env[node.output.name] = kernels.run_node(node, ins)
        for size, bucket_graph in list(clean.items()):
            got = kernels.run_node(bucket_graph.nodes[index],
                                   [a[:size] for a in ins])
            if not np.array_equal(got, out[:size]):
                diverged[size] = node.name
                del clean[size]
        for v in frees_after[index]:
            del env[v.name]
    return diverged


def derive_buckets(graph: Graph, memory_plan: MemoryPlan | None = None
                   ) -> Buckets:
    """The static batch plus every power of two below it that passes
    :func:`probe_buckets` and — under a ``memory_plan`` — plans within
    the same budget."""
    static = graph.inputs[0].shape[0]
    candidates: dict[int, Bucket] = {}
    refused: dict[int, BucketRefusal] = {}
    for size in (1 << k for k in range((static - 1).bit_length())):
        bucket_graph = graph.with_batch(size)
        plan = None
        if memory_plan is not None:
            try:
                plan = plan_memory(bucket_graph, memory_plan.budget_bytes,
                                   cost_model=memory_plan.cost_model)
            except InfeasibleBudget as exc:
                refused[size] = BucketRefusal(None, str(exc))
                continue
        candidates[size] = Bucket(size, bucket_graph, plan)
    diverged = probe_buckets(
        graph, {size: b.graph for size, b in candidates.items()})
    for size, node in diverged.items():
        refused[size] = BucketRefusal(
            node, f"node {node!r} at batch {size} is not bitwise equal to "
                  f"its batch-{static} run")
        del candidates[size]
    candidates[static] = Bucket(static, graph, memory_plan)
    return Buckets(candidates, dict(sorted(refused.items())))


@dataclass(frozen=True)
class Segment:
    """One contiguous run of a request's samples inside a shard."""

    request: Any  #: opaque handle, carried through to :func:`scatter`
    req_offset: int  #: first sample index within the request
    shard_offset: int  #: first sample index within the shard
    length: int


@dataclass
class Shard:
    """One bucket worth of samples, zero-padded up to its size."""

    inputs: dict[str, np.ndarray]
    segments: list[Segment] = field(default_factory=list)
    #: zero samples appended to reach the bucket size
    padding: int = 0

    @property
    def live_samples(self) -> int:
        return sum(seg.length for seg in self.segments)

    @property
    def size(self) -> int:
        """The bucket this shard runs on."""
        return self.live_samples + self.padding


def assemble(buckets: Buckets,
             requests: list[tuple[Any, dict[str, np.ndarray]]]) -> list[Shard]:
    """Pack ``(handle, inputs)`` requests into shards of the static batch.

    Requests are consumed in order; sample order inside the shard
    stream is exactly admission order, so results are reproducible
    from the request sequence alone.  The final shard is zero-padded
    up to the smallest of ``buckets`` that holds it — up to the static
    batch when that is the only size offered.
    """
    graph = buckets.static.graph
    batch = buckets.static.size

    # consume a queue of (handle, inputs, next sample offset, remaining
    # samples), splitting large requests greedily across shards
    pending = [(handle, inputs, 0, request_samples(graph, inputs))
               for handle, inputs in requests]
    shards: list[Shard] = []
    i = 0
    while i < len(pending):
        segments: list[Segment] = []
        sources: list[dict[str, np.ndarray]] = []
        filled = 0
        while filled < batch and i < len(pending):
            handle, inputs, offset, remaining = pending[i]
            take = min(remaining, batch - filled)
            segments.append(Segment(request=handle, req_offset=offset,
                                    shard_offset=filled, length=take))
            sources.append(inputs)
            filled += take
            if take == remaining:
                i += 1
            else:
                pending[i] = (handle, inputs, offset + take, remaining - take)
        size = buckets.holding(filled)
        shard_inputs: dict[str, np.ndarray] = {}
        for value in graph.inputs:
            buf = np.zeros((size,) + value.shape[1:], dtype=value.dtype.np)
            for seg, inputs in zip(segments, sources):
                buf[seg.shard_offset:seg.shard_offset + seg.length] = \
                    inputs[value.name][seg.req_offset:seg.req_offset + seg.length]
            shard_inputs[value.name] = buf
        shards.append(Shard(inputs=shard_inputs, segments=segments,
                            padding=size - filled))
    return shards


def scatter(shard: Shard, outputs: dict[str, np.ndarray],
            buffers: dict[Any, dict[str, np.ndarray]],
            filled: dict[Any, int], totals: dict[Any, int]) -> list[Any]:
    """Copy a shard's output slices into per-request result buffers.

    ``buffers`` maps request handle -> output-name -> array of the
    request's full sample count (allocated lazily here on first
    touch); ``filled`` tracks samples scattered so far per handle and
    ``totals`` the request's total.  Returns the handles whose results
    became complete with this shard, in segment order.
    """
    completed: list[Any] = []
    for seg in shard.segments:
        out = buffers.setdefault(seg.request, {})
        for name, arr in outputs.items():
            buf = out.get(name)
            if buf is None:
                buf = out[name] = np.empty(
                    (totals[seg.request],) + arr.shape[1:], dtype=arr.dtype)
            buf[seg.req_offset:seg.req_offset + seg.length] = \
                arr[seg.shard_offset:seg.shard_offset + seg.length]
        filled[seg.request] = filled.get(seg.request, 0) + seg.length
        if filled[seg.request] == totals[seg.request]:
            completed.append(seg.request)
    return completed
