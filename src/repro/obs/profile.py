"""Hot-path profiler: per-op and per-layer attribution from trace spans.

The executor records one span (a ``ph: "X"`` event) per scheduled
node, carrying the op type, the bytes it moved (inputs + output +
params), its analytic FLOP count and any fused-kernel scratch (see
:func:`repro.runtime.executor.execute`).  This module turns those raw
spans into the attribution TeMCO's analysis is about — *where* the
time and the data movement go:

- :func:`profile_tracer` aggregates node spans into
  :class:`OpStat` rows keyed by **op type** and by **layer** (node
  name): self time, share of executor time, total bytes, analytic
  FLOPs and the derived arithmetic intensity (FLOPs/byte — low means
  memory-bound, exactly the ops the decompositions target), plus peak
  fused scratch.
- :func:`collapsed_stacks` / :func:`write_collapsed_stacks` export the
  span forest in Brendan Gregg's collapsed-stack format
  (``root;child;leaf <self_us>``), the input of ``flamegraph.pl`` and
  of speedscope's "import" box.

Everything works on any tracer — an offline ``repro profile`` run, a
serve-session trace — because attribution keys off span args, not call
sites.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .tracer import Tracer

__all__ = ["OpStat", "ProfileReport", "profile_spans", "profile_tracer",
           "collapsed_stacks", "write_collapsed_stacks"]


@dataclass
class OpStat:
    """Aggregated cost of one op type (or one layer) across a trace."""

    key: str
    count: int = 0
    total_us: float = 0.0
    total_bytes: int = 0
    flops: int = 0
    scratch_bytes: int = 0  #: max fused-kernel tile bytes seen
    #: fraction of all attributed executor time
    share: float = 0.0

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0

    @property
    def intensity(self) -> float:
        """Arithmetic intensity, FLOPs per byte moved (0 if byte-free)."""
        return self.flops / self.total_bytes if self.total_bytes else 0.0

    @property
    def gflops_per_s(self) -> float:
        """Achieved arithmetic throughput over the op's own span time."""
        return (self.flops / (self.total_us * 1e-6) / 1e9
                if self.total_us else 0.0)

    def to_dict(self) -> dict:
        return {"key": self.key, "count": self.count,
                "total_us": self.total_us, "mean_us": self.mean_us,
                "share": self.share, "total_bytes": self.total_bytes,
                "flops": self.flops, "intensity": self.intensity,
                "gflops_per_s": self.gflops_per_s,
                "scratch_bytes": self.scratch_bytes}


@dataclass
class ProfileReport:
    """The hot-path attribution of one traced session."""

    model: str = ""
    runs: int = 0
    total_us: float = 0.0  #: summed self time of all node spans
    by_op: list[OpStat] = field(default_factory=list)
    by_node: list[OpStat] = field(default_factory=list)

    def top_ops(self, n: int = 10) -> list[OpStat]:
        return self.by_op[:n]

    def top_nodes(self, n: int = 10) -> list[OpStat]:
        return self.by_node[:n]

    def to_dict(self) -> dict:
        return {"model": self.model, "runs": self.runs,
                "total_us": self.total_us,
                "by_op": [s.to_dict() for s in self.by_op],
                "by_node": [s.to_dict() for s in self.by_node]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)


def profile_spans(events: Iterable[dict], *, model: str = "",
                  runs: int = 0) -> ProfileReport:
    """Aggregate executor node spans into per-op / per-layer stats.

    Only spans stamped with an ``op`` arg count: other events, and
    spans without one (pipeline stages, serve batches), are containers,
    not attributable work.  Rows come back ranked by total self time,
    descending.
    """
    by_op: dict[str, OpStat] = {}
    by_node: dict[str, OpStat] = {}
    total_us = 0.0
    for span in events:
        args = span["args"]
        if span["ph"] != "X" or "op" not in args:
            continue
        total_us += span["dur"]
        for table, key in ((by_op, str(args["op"])), (by_node, span["name"])):
            stat = table.get(key)
            if stat is None:
                stat = table[key] = OpStat(key=key)
            stat.count += 1
            stat.total_us += span["dur"]
            stat.total_bytes += int(args.get("bytes", 0))
            stat.flops += int(args.get("flops", 0))
            stat.scratch_bytes = max(stat.scratch_bytes,
                                     int(args.get("scratch", 0)))
    for table in (by_op, by_node):
        for stat in table.values():
            stat.share = stat.total_us / total_us if total_us else 0.0
    rank = lambda table: sorted(  # noqa: E731
        table.values(), key=lambda s: (-s.total_us, s.key))
    return ProfileReport(model=model, runs=runs, total_us=total_us,
                         by_op=rank(by_op), by_node=rank(by_node))


def profile_tracer(tracer: Tracer, *, model: str = "") -> ProfileReport:
    """Profile every executor node span the tracer recorded."""
    runs = int(tracer.metrics.get("executor.runs", 0))
    return profile_spans(tracer.events, model=model, runs=runs)


# ---------------------------------------------------------------------------
# flamegraph export
# ---------------------------------------------------------------------------

def collapsed_stacks(tracer: Tracer, *, root: str = "repro") -> list[str]:
    """The span forest as collapsed-stack lines, ``path self_us``.

    Nesting is reconstructed per timeline row (tid) by interval
    containment, which also holds for spans recorded with
    :meth:`~repro.obs.Tracer.complete` by concurrent workers.  Each
    span contributes its *self* time (duration minus contained
    children), so the flamegraph's widths add up to wall time per row.
    """
    weights: dict[str, float] = {}
    by_tid: dict[int, list[dict]] = {}
    for event in tracer.events:
        if event["ph"] == "X":
            by_tid.setdefault(event["tid"], []).append(event)

    for spans in by_tid.values():
        # parents first: earlier start, then longer duration
        spans.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack: list[tuple[dict, float]] = []  # (span, child time)

        def pop_into(weights: dict[str, float], path: list[str]) -> None:
            span, child_us = stack.pop()
            self_us = max(span["dur"] - child_us, 0.0)
            line = ";".join(path + [span["name"]])
            weights[line] = weights.get(line, 0.0) + self_us

        for span in spans:
            while stack and (stack[-1][0]["ts"] + stack[-1][0]["dur"]
                             <= span["ts"]):
                path = [root] + [s["name"] for s, _ in stack[:-1]]
                pop_into(weights, path)
            if stack:
                top, child_us = stack[-1]
                stack[-1] = (top, child_us + span["dur"])
            stack.append((span, 0.0))
        while stack:
            path = [root] + [s["name"] for s, _ in stack[:-1]]
            pop_into(weights, path)

    return [f"{path} {round(weight)}"
            for path, weight in sorted(weights.items())]


def write_collapsed_stacks(tracer: Tracer, path: str | Path, *,
                           root: str = "repro") -> Path:
    """Write the collapsed-stack flamegraph input at ``path``.

    Feed the file to ``flamegraph.pl`` or paste it into speedscope
    (https://www.speedscope.app) to browse the hot path interactively.
    """
    path = Path(path)
    path.write_text("\n".join(collapsed_stacks(tracer, root=root)) + "\n")
    return path
