"""Open- and closed-loop load generation against any Servable.

Two canonical load models (Schroeder et al., "Open Versus Closed: A
Cautionary Tale", NSDI'06):

- **closed loop** — ``concurrency`` synthetic clients, each submitting
  its next request the moment the previous one completes.  Measures
  peak sustainable throughput.
- **open loop** — requests arrive on a Poisson process at ``rate``
  requests/second regardless of completions.  Measures latency under
  a target load, and is the mode that exercises backpressure: when
  the server falls behind, arrivals pile into the admission queue and
  overflow into :class:`~repro.serve.Overloaded` rejections.

The report carries completed/rejected/shed counts, wall-clock
throughput, and the latency distribution as a
:class:`~repro.runtime.engine.TimingResult` so p50/p95/p99 come from
the same percentile code the bench harness uses.  When the driven
server carries an :class:`~repro.obs.SLOMonitor`, the report also
snapshots every objective's end-of-run status (burn rate, good
ratio), :meth:`LoadgenReport.slo_ok` gates on them, and the CLI
(``repro loadgen --slo ...``) exits non-zero on violation — the CI
contract.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..data.synthetic import random_inputs
from ..ir.graph import Graph
from ..runtime.engine import TimingResult
from .servable import (DeadlineExceeded, Overloaded, Servable, ServeError,
                       ServeFuture)

__all__ = ["LoadgenConfig", "LoadgenReport", "request_inputs", "run_loadgen"]

#: per-request result wait; generous, loadgen must never hang
RESULT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of one load-generation run."""

    mode: str = "closed"  #: ``closed`` or ``open``
    requests: int = 64
    #: closed loop: number of synthetic clients
    concurrency: int = 4
    #: open loop: mean arrival rate, requests/second
    rate: float = 200.0
    #: samples per request (1 = the single-sample serving path)
    samples: int = 1
    deadline_s: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"bad loadgen mode {self.mode!r}")
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


@dataclass
class LoadgenReport:
    """Outcome counts + latency distribution of one run."""

    mode: str
    offered: int
    completed: int
    rejected: int  #: typed Overloaded backpressure rejections
    shed: int  #: DeadlineExceeded expiries
    errors: int
    duration_s: float
    latencies_s: list[float] = field(default_factory=list)
    #: end-of-run SLO statuses (:meth:`SLOStatus.to_dict` dicts) when
    #: the driven server carried a monitor; empty otherwise
    slo: list[dict] = field(default_factory=list)

    @property
    def slo_ok(self) -> bool:
        """True when every evaluated objective is healthy (vacuously
        true without a monitor) — the CI gate."""
        return all(status["healthy"] for status in self.slo)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second."""
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def latency(self) -> TimingResult:
        return TimingResult(self.latencies_s or [0.0])

    def to_dict(self) -> dict:
        """JSON-ready summary (the CI smoke step parses this)."""
        lat = self.latency
        return {
            "mode": self.mode, "offered": self.offered,
            "completed": self.completed, "rejected": self.rejected,
            "shed": self.shed, "errors": self.errors,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {stat: getattr(lat, stat) * 1e3
                           for stat in ("best", "mean", "p50", "p95", "p99")},
            "slo": self.slo,
            "slo_ok": self.slo_ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        lat = self.latency
        lines = [
            f"{self.mode}-loop load: {self.offered} offered, "
            f"{self.completed} completed, {self.rejected} rejected, "
            f"{self.shed} shed, {self.errors} errors "
            f"in {self.duration_s:.2f} s",
            f"throughput: {self.throughput_rps:.1f} req/s",
            f"latency ms: p50 {lat.p50 * 1e3:.2f}  p95 {lat.p95 * 1e3:.2f}  "
            f"p99 {lat.p99 * 1e3:.2f}  (mean {lat.mean * 1e3:.2f}, "
            f"best {lat.best * 1e3:.2f})",
        ]
        for status in self.slo:
            verdict = "ok" if status["healthy"] else "VIOLATED"
            lines.append(
                f"slo [{verdict}] {status['name']}: "
                f"{status['good']}/{status['events']} good "
                f"({status['good_ratio']:.2%}), burn rate "
                f"{status['burn_rate']:.2f}x of budget")
        return "\n".join(lines)


def request_inputs(graph: Graph, samples: int = 1,
                   seed: int = 0) -> dict[str, np.ndarray]:
    """Synthetic request payload matching the graph's per-sample shapes."""
    return random_inputs(graph, seed, samples=samples)


class _Tally:
    """Thread-safe outcome accumulator shared by the client threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.completed = 0
        self.rejected = 0
        self.shed = 0
        self.errors = 0
        self.latencies: list[float] = []

    def record(self, outcome: str, latency_s: float | None = None) -> None:
        with self.lock:
            setattr(self, outcome, getattr(self, outcome) + 1)
            if latency_s is not None:
                self.latencies.append(latency_s)


def _settle(future: ServeFuture, tally: _Tally) -> None:
    """Wait out one submission and tally its outcome."""
    try:
        future.result(RESULT_TIMEOUT_S)
    except Overloaded:
        # refused at admission, or (a fleet router) reported through
        # the future once retries ran out; a typed rejection either way
        tally.record("rejected")
    except DeadlineExceeded:
        tally.record("shed")
    except Exception:
        tally.record("errors")
    else:
        tally.record("completed", future.latency_s)


def run_loadgen(server: Servable,
                config: LoadgenConfig | None = None) -> LoadgenReport:
    """Drive ``server`` with synthetic traffic; returns the report.

    Each request carries an independently seeded payload so batches
    coalesce distinct samples (as real traffic would) while staying
    reproducible from ``config.seed``.
    """
    config = config or LoadgenConfig()
    graph = server.graph
    payloads = [request_inputs(graph, config.samples, seed=config.seed + i)
                for i in range(min(config.requests, 64))]
    tally = _Tally()
    start = time.perf_counter()

    def submit(i: int) -> ServeFuture:
        """The request's future; an admission error comes back as an
        already-rejected one, so every outcome is read the same way."""
        try:
            return server.submit(payloads[i % len(payloads)],
                                 deadline_s=config.deadline_s)
        except ServeError as exc:
            refused = ServeFuture(request_id=-1, samples=config.samples)
            refused._reject(exc)
            return refused

    if config.mode == "closed":
        counter = iter(range(config.requests))
        counter_lock = threading.Lock()

        def client() -> None:
            while True:
                with counter_lock:
                    i = next(counter, None)
                if i is None:
                    return
                _settle(submit(i), tally)

        clients = [threading.Thread(target=client, name=f"loadgen-{i}")
                   for i in range(config.concurrency)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
    else:  # open loop: Poisson arrivals, completions gathered afterwards
        rng = np.random.default_rng(config.seed)
        gaps = rng.exponential(1.0 / config.rate, size=config.requests)
        submissions: list[ServeFuture] = []
        next_at = time.perf_counter()
        for i in range(config.requests):
            next_at += gaps[i]
            delay = next_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            submissions.append(submit(i))
        for item in submissions:
            _settle(item, tally)

    duration = time.perf_counter() - start
    slo_statuses = ([status.to_dict() for status in server.slo.evaluate()]
                    if server.slo is not None else [])
    return LoadgenReport(
        mode=config.mode, offered=config.requests,
        completed=tally.completed, rejected=tally.rejected,
        shed=tally.shed, errors=tally.errors, duration_s=duration,
        latencies_s=tally.latencies, slo=slo_statuses)
