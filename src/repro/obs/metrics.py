"""Counter/gauge/histogram registry summarizing one compile-or-run session.

The :class:`MetricsRegistry` is deliberately tiny: monotonically
increasing counters (``inc``), last-write-wins gauges (``gauge``), and
value-distribution histograms (``observe``), with a stable snapshot for
reports.  Every :class:`~repro.obs.Tracer` owns one; passes and the
runtime record headline numbers into it so a single Markdown table can
summarize a session without replaying the full event stream.

All mutators and ``snapshot`` take an internal lock, so one registry
can be shared by the serving layer's worker threads
(:mod:`repro.serve`) without torn read-modify-write updates.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

__all__ = ["Histogram", "MetricsRegistry", "interpolated_quantile"]

#: histogram quantiles flattened into :meth:`MetricsRegistry.snapshot`
_SNAPSHOT_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

#: the well-defined zero-state a never-observed histogram reports;
#: every snapshot has exactly this key set, so consumers (Markdown
#: tables, the Prometheus exposition, JSON reports) never special-case
#: empty or single-sample series
_EMPTY_SNAPSHOT = {"count": 0.0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                   "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


def interpolated_quantile(values, q: float) -> float:
    """Linearly interpolated quantile, ``q`` in [0, 1], of a non-empty
    collection of numbers in any order — the one definition behind
    every p50/p95/p99 the package reports."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Histogram:
    """Streaming value distribution with bounded memory.

    Keeps exact ``count``/``sum``/``min``/``max`` plus a uniform
    reservoir of up to ``max_samples`` observations (Vitter's
    algorithm R, seeded for reproducibility) that quantile queries are
    answered from.  Below ``max_samples`` observations the quantiles
    are exact.
    """

    __slots__ = ("count", "total", "min", "max", "_samples", "_max_samples",
                 "_rng")

    def __init__(self, max_samples: int = 4096, seed: int = 0) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._max_samples = max_samples
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if len(self._samples) < self._max_samples:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._max_samples:
                self._samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Linearly interpolated quantile over the reservoir, ``q`` in
        [0, 1].  Well-defined on every series: an empty histogram
        reports 0.0 and a single-sample one reports that sample."""
        return interpolated_quantile(self._samples or (0.0,), q)

    def snapshot(self) -> dict[str, float]:
        """count/sum/mean/min/max plus the standard latency quantiles.

        The key set is fixed: an empty histogram returns all-zeros
        (never raises, never emits ``inf`` from the min/max trackers),
        and a single-sample histogram reports that sample for
        mean/min/max and every quantile.
        """
        if not self.count:
            return dict(_EMPTY_SNAPSHOT)
        out = {"count": float(self.count), "sum": self.total,
               "mean": self.mean, "min": self.min, "max": self.max}
        for label, q in _SNAPSHOT_QUANTILES:
            out[label] = self.quantile(q)
        return out

    def copy(self) -> "Histogram":
        """An independent clone (same capacity, samples, exact stats)."""
        clone = Histogram(self._max_samples)
        clone.count = self.count
        clone.total = self.total
        clone.min = self.min
        clone.max = self.max
        clone._samples = list(self._samples)
        return clone

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s distribution into this one, in place.

        Exact statistics (count, sum, min, max) add exactly; the
        reservoirs concatenate, and when the union exceeds this
        histogram's capacity each side keeps a share proportional to
        the observation count it stands for (so a 10k-observation
        replica outweighs a 100-observation one in the merged
        quantiles).  Only reads ``other`` — merging one source into
        several targets is safe.  Returns ``self`` for chaining.
        """
        if other is self:
            raise ValueError("cannot merge a histogram into itself")
        if not other.count:
            return self
        new_count = self.count + other.count
        keep = len(self._samples) + len(other._samples)
        if keep <= self._max_samples:
            self._samples.extend(other._samples)
        else:
            take_self = min(len(self._samples),
                            round(self._max_samples * self.count / new_count))
            take_other = min(len(other._samples),
                             self._max_samples - take_self)
            take_self = min(len(self._samples),
                            self._max_samples - take_other)
            self._samples = (
                self._rng.sample(self._samples, take_self)
                + self._rng.sample(other._samples, take_other))
        self.count = new_count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self


@dataclass
class MetricsRegistry:
    """Named counters, gauges and histograms (thread-safe)."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def inc(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    def get(self, name: str, default: float = 0) -> float:
        with self._lock:
            if name in self.counters:
                return self.counters[name]
            return self.gauges.get(name, default)

    def quantiles(self, name: str) -> dict[str, float]:
        """Snapshot of one histogram.  A never-observed name returns
        the all-zero snapshot (same key set as a populated one)."""
        with self._lock:
            hist = self.histograms.get(name)
            return hist.snapshot() if hist is not None else dict(_EMPTY_SNAPSHOT)

    def snapshot(self) -> dict[str, float]:
        """Counters, gauges and flattened histogram stats, sorted.

        Histogram entries appear as ``{name}.{stat}`` (count, sum,
        mean, min, max, p50, p95, p99) so report emitters need no
        special casing.
        """
        with self._lock:
            merged = {**self.counters, **self.gauges}
            for name, hist in self.histograms.items():
                for stat, value in hist.snapshot().items():
                    merged[f"{name}.{stat}"] = value
            return dict(sorted(merged.items()))

    def export(self) -> tuple[dict[str, float], dict[str, float],
                              dict[str, dict[str, float]]]:
        """One consistent ``(counters, gauges, histogram snapshots)``
        copy taken under the lock — the raw form the Prometheus text
        exposition (:mod:`repro.obs.prometheus`) renders, which needs
        the three metric kinds kept apart rather than flattened."""
        with self._lock:
            return (dict(self.counters), dict(self.gauges),
                    {name: hist.snapshot()
                     for name, hist in self.histograms.items()})

    def merge(self, other: "MetricsRegistry", *,
              label: str | None = None) -> "MetricsRegistry":
        """Fold another registry's state into this one.

        Counters add, gauges last-write-win, histograms fold via
        :meth:`Histogram.merge`.  With ``label`` (a dotted
        ``key.value`` pair such as ``"replica.0"``), counters and
        histograms are *additionally* recorded under
        ``{name}.{label}`` and gauges move entirely to the labeled
        name — so a fleet roll-up keeps both the aggregate and the
        per-replica breakdown, and the Prometheus exposition renders
        the labeled copies as ``{key="value"}`` families.

        ``other`` is only read (one consistent copy is taken under its
        lock), so one replica registry can be merged into several
        targets.  Returns ``self`` for chaining.
        """
        if other is self:
            raise ValueError("cannot merge a registry into itself")
        with other._lock:
            counters = dict(other.counters)
            gauges = dict(other.gauges)
            histograms = {name: hist.copy()
                          for name, hist in other.histograms.items()}
        with self._lock:
            for name, value in counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
                if label:
                    key = f"{name}.{label}"
                    self.counters[key] = self.counters.get(key, 0) + value
            for name, value in gauges.items():
                self.gauges[f"{name}.{label}" if label else name] = value
            for name, hist in histograms.items():
                into = self.histograms.get(name)
                if into is None:
                    self.histograms[name] = hist
                else:
                    into.merge(hist)
                if label:
                    key = f"{name}.{label}"
                    labeled = self.histograms.get(key)
                    if labeled is None:
                        self.histograms[key] = hist.copy()
                    else:
                        labeled.merge(hist)
        return self

    def clear(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
