"""Service-level objectives: rolling-window burn-rate monitoring.

An :class:`SLObjective` declares what "good" means for a serving
session — *availability* ("99% of requests complete") or *latency*
("95% of requests complete within 50 ms") — over a rolling time
window.  The :class:`SLOMonitor` consumes one event per request
outcome (the :class:`~repro.serve.InferenceServer` feeds it
completions, sheds, rejections and failures) and answers the question
"are we meeting the objective *right now*?" the way the SRE workbook
does, as an **error-budget burn rate**:

    burn_rate = observed_error_ratio / (1 - target)

A burn rate of 1.0 spends the error budget exactly as fast as the
objective allows; above 1.0 the budget is burning too fast (the
alerting threshold), 0.0 means no errors in the window.  Because the
denominator is the budget, the number is comparable across objectives
with different targets — the property multi-window burn-rate alerts
rely on.

:meth:`SLOMonitor.export_gauges` publishes ``slo.<name>.burn_rate`` /
``good_ratio`` / ``events`` gauges into a
:class:`~repro.obs.MetricsRegistry`, so the serving frontend's
``GET /metrics`` exposes them to Prometheus with zero extra wiring,
and the loadgen report can gate CI on them (``repro loadgen --slo
SPEC`` exits non-zero on violation).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .metrics import MetricsRegistry

__all__ = ["SLObjective", "SLOStatus", "SLOMonitor", "parse_slo",
           "parse_slos"]


@dataclass(frozen=True)
class SLObjective:
    """One declarative objective.

    ``latency_threshold_ms`` of ``None`` declares an availability
    objective (an event is good iff the request completed); a number
    declares a latency objective (good iff it completed *within* the
    threshold).  ``target`` is the required good fraction over
    ``window_s`` seconds.
    """

    name: str
    target: float
    latency_threshold_ms: float | None = None
    window_s: float = 60.0

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if self.latency_threshold_ms is not None and self.latency_threshold_ms <= 0:
            raise ValueError(f"latency threshold must be > 0, got "
                             f"{self.latency_threshold_ms}")
        if self.window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {self.window_s}")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target

    def is_good(self, ok: bool, latency_s: float | None) -> bool:
        if not ok:
            return False
        if self.latency_threshold_ms is None:
            return True
        return (latency_s is not None
                and latency_s * 1e3 <= self.latency_threshold_ms)

    def describe(self) -> str:
        what = ("completion" if self.latency_threshold_ms is None
                else f"latency <= {self.latency_threshold_ms:g} ms")
        return (f"{self.name}: {self.target:.2%} {what} "
                f"over {self.window_s:g} s")


@dataclass(frozen=True)
class SLOStatus:
    """One objective evaluated at one instant."""

    objective: SLObjective
    events: int
    good: int

    @property
    def bad(self) -> int:
        return self.events - self.good

    @property
    def good_ratio(self) -> float:
        """1.0 on an empty window — no events, no violations."""
        return self.good / self.events if self.events else 1.0

    @property
    def burn_rate(self) -> float:
        """Error-budget burn rate: 1.0 = spending exactly on budget."""
        return (1.0 - self.good_ratio) / self.objective.error_budget

    @property
    def budget_remaining(self) -> float:
        """Fraction of the window's error budget left (clamped at 0)."""
        return max(0.0, 1.0 - self.burn_rate)

    @property
    def healthy(self) -> bool:
        return self.burn_rate <= 1.0

    def to_dict(self) -> dict:
        return {"name": self.objective.name,
                "target": self.objective.target,
                "latency_threshold_ms": self.objective.latency_threshold_ms,
                "window_s": self.objective.window_s,
                "events": self.events, "good": self.good, "bad": self.bad,
                "good_ratio": self.good_ratio,
                "burn_rate": self.burn_rate,
                "budget_remaining": self.budget_remaining,
                "healthy": self.healthy}

    def summary(self) -> str:
        verdict = "ok" if self.healthy else "VIOLATED"
        return (f"[{verdict}] {self.objective.describe()} — "
                f"{self.good}/{self.events} good "
                f"({self.good_ratio:.2%}), burn rate "
                f"{self.burn_rate:.2f}x")


class SLOMonitor:
    """Rolling-window burn-rate evaluation over request outcomes.

    Thread-safe: the serving workers record outcomes concurrently and
    the metrics endpoint evaluates concurrently with them.  The event
    buffer is bounded by ``max_events`` *and* by the widest objective
    window, so a long-running server never grows without bound.
    """

    def __init__(self, objectives: Sequence[SLObjective] | SLObjective,
                 clock: Callable[[], float] = time.monotonic,
                 max_events: int = 65536) -> None:
        if isinstance(objectives, SLObjective):
            objectives = [objectives]
        self.objectives: list[SLObjective] = list(objectives)
        if not self.objectives:
            raise ValueError("SLOMonitor needs at least one objective")
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")
        self._clock = clock
        self._events: deque[tuple[float, bool, float | None]] = deque(
            maxlen=max_events)
        self._lock = threading.Lock()
        self._max_window = max(o.window_s for o in self.objectives)

    def record(self, latency_s: float | None = None, *,
               ok: bool = True) -> None:
        """One request outcome: completed (with its latency) or not."""
        now = self._clock()
        with self._lock:
            self._events.append((now, ok, latency_s))
            # opportunistic eviction of events no window can still see
            horizon = now - self._max_window
            while self._events and self._events[0][0] < horizon:
                self._events.popleft()

    def evaluate(self, now: float | None = None) -> list[SLOStatus]:
        """Every objective's status over its own rolling window."""
        if now is None:
            now = self._clock()
        with self._lock:
            events = list(self._events)
        statuses = []
        for objective in self.objectives:
            horizon = now - objective.window_s
            total = good = 0
            for ts, ok, latency_s in events:
                if ts < horizon:
                    continue
                total += 1
                if objective.is_good(ok, latency_s):
                    good += 1
            statuses.append(SLOStatus(objective=objective, events=total,
                                      good=good))
        return statuses

    def export_gauges(self, registry: MetricsRegistry, *,
                      prefix: str = "slo") -> list[SLOStatus]:
        """Publish every objective's instantaneous state as gauges.

        Gauge names are ``{prefix}.{name}.{stat}`` for ``burn_rate``,
        ``good_ratio``, ``budget_remaining``, ``events``, ``healthy``
        (1/0) and the static ``target`` — the set the Prometheus
        exposition renders and Grafana burn-rate panels plot.
        """
        statuses = self.evaluate()
        for status in statuses:
            base = f"{prefix}.{status.objective.name}"
            registry.gauge(f"{base}.burn_rate", status.burn_rate)
            registry.gauge(f"{base}.good_ratio", status.good_ratio)
            registry.gauge(f"{base}.budget_remaining",
                           status.budget_remaining)
            registry.gauge(f"{base}.events", float(status.events))
            registry.gauge(f"{base}.healthy", 1.0 if status.healthy else 0.0)
            registry.gauge(f"{base}.target", status.objective.target)
        return statuses


def parse_slo(spec: str) -> SLObjective:
    """Parse the CLI form of an objective.

    - ``availability:TARGET[:WINDOW_S]`` — e.g. ``availability:0.99``
    - ``latency:THRESHOLD_MS:TARGET[:WINDOW_S]`` — e.g.
      ``latency:50:0.95:30``

    The generated name encodes the parameters
    (``availability_99`` / ``latency_50ms_95``) so several objectives
    coexist in one registry.
    """
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "availability" and len(parts) in (2, 3):
            target = float(parts[1])
            window = float(parts[2]) if len(parts) == 3 else 60.0
            name = f"availability_{_pct(target)}"
            return SLObjective(name=name, target=target, window_s=window)
        if kind == "latency" and len(parts) in (3, 4):
            threshold = float(parts[1])
            target = float(parts[2])
            window = float(parts[3]) if len(parts) == 4 else 60.0
            name = f"latency_{threshold:g}ms_{_pct(target)}"
            return SLObjective(name=name, target=target,
                               latency_threshold_ms=threshold,
                               window_s=window)
    except ValueError as exc:
        if "must be" in str(exc):  # objective validation, not float()
            raise
        raise ValueError(f"bad SLO spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"bad SLO spec {spec!r}; expected availability:TARGET[:WINDOW] "
        f"or latency:THRESHOLD_MS:TARGET[:WINDOW]")


def _pct(target: float) -> str:
    """0.99 -> '99', 0.995 -> '99_5' (metric-name safe)."""
    text = f"{target * 100:g}".replace(".", "_")
    return text


def parse_slos(specs: Iterable[str]) -> list[SLObjective]:
    """Parse several CLI specs (deduplicating exact repeats)."""
    seen: dict[str, SLObjective] = {}
    for spec in specs:
        objective = parse_slo(spec)
        seen[objective.name] = objective
    return list(seen.values())
