"""Rolling time-series store + background metrics scraper.

The registry/Prometheus layers (:mod:`repro.obs.metrics`,
:mod:`repro.obs.prometheus`) are point-in-time: every read reports the
state *now*.  Watching a fleet drift — p95 creeping up, measured peak
memory approaching the budget, one replica falling behind its peers —
needs history.  :class:`TimeSeriesStore` keeps that history in fixed
memory: per-metric ring buffers of ``(t, value)`` samples with
windowed rate/percentile/delta queries, fed by a
:class:`MetricsScraper` thread that snapshots any stats-producing
source (an :class:`~repro.serve.InferenceServer`, a fleet
:class:`~repro.fleet.Router`, each replica) at a fixed interval.

Both are stdlib-only and thread-safe; the anomaly detectors
(:mod:`repro.obs.anomaly`) and the ``repro top`` dashboard read the
same store the scraper writes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from .metrics import interpolated_quantile

__all__ = ["TimeSeriesStore", "MetricsScraper"]


class TimeSeriesStore:
    """Fixed-memory ``(t, value)`` history for many named series.

    Each series is a ring buffer of at most ``max_samples`` points
    (oldest evicted first), so total memory is bounded by
    ``series x max_samples`` regardless of uptime.  Timestamps default
    to the injected ``clock`` (monotonic seconds); queries are
    windowed against the same clock, so wall-clock jumps never corrupt
    rates.
    """

    def __init__(self, max_samples: int = 512, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self.max_samples = max_samples
        self.clock = clock
        self._series: dict[str, deque[tuple[float, float]]] = {}
        self._lock = threading.Lock()

    def record(self, name: str, value: float, t: float | None = None) -> None:
        """Append one sample to ``name`` (timestamp defaults to now)."""
        t = self.clock() if t is None else float(t)
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = deque(maxlen=self.max_samples)
            series.append((t, float(value)))

    def ingest(self, snapshot: dict[str, float],
               t: float | None = None) -> None:
        """Record every entry of a flat stats snapshot at one instant."""
        t = self.clock() if t is None else float(t)
        with self._lock:
            for name, value in snapshot.items():
                series = self._series.get(name)
                if series is None:
                    series = self._series[name] = deque(
                        maxlen=self.max_samples)
                series.append((t, float(value)))

    def names(self, prefix: str = "") -> list[str]:
        """Sorted series names, optionally filtered by prefix."""
        with self._lock:
            return sorted(n for n in self._series if n.startswith(prefix))

    def series(self, name: str) -> list[tuple[float, float]]:
        """The full retained ``(t, value)`` history of one series."""
        with self._lock:
            return list(self._series.get(name, ()))

    def latest(self, name: str, default: float = 0.0) -> float:
        """The most recent value of ``name`` (``default`` if empty)."""
        with self._lock:
            series = self._series.get(name)
            return series[-1][1] if series else default

    def window(self, name: str, seconds: float,
               now: float | None = None) -> list[tuple[float, float]]:
        """Samples of ``name`` from the trailing ``seconds`` window."""
        now = self.clock() if now is None else now
        cutoff = now - seconds
        with self._lock:
            series = self._series.get(name, ())
            return [(t, v) for t, v in series if t >= cutoff]

    def rate(self, name: str, seconds: float,
             now: float | None = None) -> float:
        """Per-second increase of a counter over the trailing window.

        Computed from the first and last samples inside the window
        (0.0 with fewer than two samples); a counter reset mid-window
        (value decreasing, e.g. a replica restart) clamps to 0.0
        rather than reporting a negative rate.
        """
        points = self.window(name, seconds, now=now)
        if len(points) < 2:
            return 0.0
        (t0, v0), (t1, v1) = points[0], points[-1]
        if t1 <= t0:
            return 0.0
        return max(0.0, (v1 - v0) / (t1 - t0))

    def delta(self, name: str, seconds: float,
              now: float | None = None) -> float:
        """Increase of a counter over the trailing window (clamped at
        0.0 across resets); 0.0 with fewer than two samples."""
        points = self.window(name, seconds, now=now)
        if len(points) < 2:
            return 0.0
        return max(0.0, points[-1][1] - points[0][1])

    def percentile(self, name: str, q: float,
                   seconds: float | None = None) -> float:
        """Interpolated quantile of the series *values* — over the
        trailing window when ``seconds`` is given, else the full
        retained history.  Empty series report 0.0."""
        points = (self.series(name) if seconds is None
                  else self.window(name, seconds))
        return interpolated_quantile([v for _, v in points] or (0.0,), q)

    def mean(self, name: str, seconds: float | None = None) -> float:
        """Mean of the series values (windowed when ``seconds`` is
        given); 0.0 when empty."""
        if seconds is None:
            values = [v for _, v in self.series(name)]
        else:
            values = [v for _, v in self.window(name, seconds)]
        return sum(values) / len(values) if values else 0.0

    def to_dict(self) -> dict:
        """JSON-ready dump: every retained sample of every series.

        This is the ``timeseries.json`` member of a ``repro diag``
        bundle; timestamps are the store's monotonic clock.
        """
        with self._lock:
            return {
                "max_samples": self.max_samples,
                "captured_at": self.clock(),
                "series": {name: [[t, v] for t, v in points]
                           for name, points in sorted(self._series.items())},
            }


class MetricsScraper:
    """Background thread feeding a :class:`TimeSeriesStore`.

    ``source`` is any zero-argument callable returning a flat
    ``{name: value}`` dict — ``InferenceServer.stats``,
    ``Router.stats``, or a lambda composing several.  Every
    ``interval_s`` the scraper ingests one snapshot, then calls the
    optional ``hook`` (the fleet view passes the anomaly monitor's
    ``check`` here so detection rides the scrape cadence for free).
    Scrape errors are counted, never raised — a dying replica must
    not kill the observability plane.
    """

    def __init__(self, source: Callable[[], dict[str, float]],
                 store: TimeSeriesStore, *, interval_s: float = 0.5,
                 hook: Callable[[], object] | None = None) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.source = source
        self.store = store
        self.interval_s = interval_s
        self.hook = hook
        self.scrapes = 0
        self.errors = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def scrape_once(self) -> bool:
        """One synchronous scrape (+ hook); True on success."""
        try:
            snapshot = self.source()
        except Exception:
            self.errors += 1
            return False
        self.store.ingest(snapshot)
        self.scrapes += 1
        if self.hook is not None:
            try:
                self.hook()
            except Exception:
                self.errors += 1
        return True

    def start(self) -> "MetricsScraper":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="metrics-scraper")
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.scrape_once()
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "MetricsScraper":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
