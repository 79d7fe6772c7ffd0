"""Pieces every workload shares: the metric spec, statistics, the
benchmark-side span log, output checking and the environment block.

Nothing here imports ``repro``; the workloads do, through its public
functions only.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
EXPECTED_PATH = HERE / "expected" / "seed0.json"

#: the tolerance `repro.core.equivalence` uses, re-implemented here so the
#: benchmark's verdict does not depend on the code under test
RTOL, ATOL = 1e-4, 1e-5

now = time.perf_counter


def load_spec() -> dict:
    """BENCHMARK.json: the one place metric names, units, directions
    and bounds are written down."""
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# -- statistics --------------------------------------------------------------

def pct(values, q: float) -> float:
    """Linearly interpolated percentile, ``q`` in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def p50(values) -> float:
    return pct(values, 50)


def p90(values) -> float:
    return pct(values, 90)


def geomean(values) -> float:
    """Geometric mean; the empty product is 1, which is what a ratio
    metric reports on a workload that has no row of its kind."""
    values = list(values)
    if not values:
        return 1.0
    return float(np.exp(np.mean(np.log(np.asarray(values, dtype=np.float64)))))


# -- the yardstick -------------------------------------------------------------

#: what one yardstick sample takes on the box this benchmark was written
#: on, busy with nothing else; every reported time is scaled to it
YARDSTICK_REF_S = 0.30e-3
#: the machine's speed at a sample is read off this many samples around it
YARDSTICK_WINDOW = 21
#: samples taken before and after a block timed with `Yardstick.timed`
YARDSTICK_BURST = 3


class Yardstick:
    """The machine's speed, sampled next to every timed operation.

    A shared box runs the same code 10-40 % slower or faster from one
    minute to the next (neighbours on the host; CPU time equals wall time
    throughout, so nothing in the guest sees it), which is more than any
    bound in BENCHMARK.json.  The yardstick is a fixed NumPy computation
    (two 192^3 float32 matrix products, ~0.3 ms) that slows down and
    speeds up with the program; a measured time is reported divided by
    the `slowness` of the machine around it, i.e. as the time it would
    have taken with the yardstick at YARDSTICK_REF_S.  Over ten-minute
    series this took the run-to-run spread of a median from 11-18 % to
    2-3 %.  Not thread-safe: one thread samples it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(192, 192)).astype(np.float32)
        self.b = rng.normal(size=(192, 192)).astype(np.float32)
        self.ab, self.ba = np.empty_like(self.a), np.empty_like(self.a)
        self.samples: list[float] = []

    def tick(self) -> int:
        """Take one sample; returns its index."""
        start = now()
        np.matmul(self.a, self.b, out=self.ab)
        np.matmul(self.b, self.a, out=self.ba)
        self.samples.append(now() - start)
        return len(self.samples) - 1

    def slowness(self) -> np.ndarray:
        """Per sample, the median of the YARDSTICK_WINDOW samples around
        it over YARDSTICK_REF_S: 1.25 where the machine ran 25 % slow."""
        half = YARDSTICK_WINDOW // 2
        padded = np.pad(np.asarray(self.samples), half, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, YARDSTICK_WINDOW)
        return np.median(windows, axis=1) / YARDSTICK_REF_S

    @contextlib.contextmanager
    def timed(self, times: dict[str, float], key: str):
        """Add to `times[key]` the seconds the block took, divided by the
        machine's slowness in a burst of samples before and after it."""
        first = len(self.samples)
        for _ in range(YARDSTICK_BURST):
            self.tick()
        start = now()
        yield
        seconds = now() - start
        for _ in range(YARDSTICK_BURST):
            self.tick()
        slow = p50(self.samples[first:]) / YARDSTICK_REF_S
        times[key] = times.get(key, 0.0) + seconds / slow


def yardstick_metrics(yard_s: np.ndarray) -> dict[str, float]:
    """What the machine did during a phase: the yardstick's median (all
    reported times are scaled to it reading YARDSTICK_REF_S) and how far
    its speed wandered."""
    return {"bench.yardstick_ms_p50": p50(yard_s) * 1e3,
            "bench.yardstick_p90_over_p10": p90(yard_s) / pct(yard_s, 10)}


#: a child that keeps its core busy at the lowest priority there is, so
#: that it runs only when nothing else would; it ends with its parent
HEATER = """
import os, sys
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except OSError:
    os.nice(19)
while os.getppid() == int(sys.argv[1]):
    for _ in range(1000000):
        pass
"""


@contextlib.contextmanager
def awake_core():
    """Run the block, and every thread started in it, on one core that a
    HEATER keeps out of its sleep states.

    For a load that leaves the machine idle between requests.  On this
    class of machine a core that slept 50 ms runs the next inference
    1.6x slower (10.7 -> 17.1 ms), by a different amount from one minute
    to the next, and a yardstick sampled on another sleepy core does not
    follow it; on a core kept awake the same inference takes 10.2-11.9 ms
    whatever the gap.  Anything runnable preempts the heater at once.
    """
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    heater = subprocess.Popen([sys.executable, "-c", HEATER,
                               str(os.getpid())])
    try:
        yield
    finally:
        heater.kill()
        heater.wait()
        os.sched_setaffinity(0, cores)


# -- spans ---------------------------------------------------------------------

class SpanLog:
    """Benchmark-side spans, kept in memory and written out at exit.

    A span is ``(id, name, start, end, parent id or None, rid)``; spans
    of one round or request share ``rid``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, rid: int | None = None) -> int:
        self.spans.append((len(self.spans), name, start, end, parent, rid))
        return len(self.spans) - 1

    def open(self, name: str, start: float, parent: int | None = None,
             rid: int | None = None) -> int:
        """A span whose end is not known yet; `close` sets it."""
        return self.add(name, start, start, parent, rid)

    def close(self, span: int, end: float) -> None:
        sid, name, start, _end, parent, rid = self.spans[span]
        self.spans[span] = (sid, name, start, end, parent, rid)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: a span's duration minus the
        part of it its child spans cover."""
        covered: dict[int, float] = {}
        for _id, _name, start, end, parent, _rid in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for sid, name, start, end, _parent, _rid in self.spans:
            totals[name] = (totals.get(name, 0.0)
                            + (end - start) - covered.get(sid, 0.0))
        return totals

    def durations(self, name: str) -> list[float]:
        return [end - start for _id, n, start, end, _p, _r in self.spans
                if n == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "name", "start_s", "end_s",
                                   "parent", "rid"],
                       "spans": self.spans}, fh)


# -- output checking -------------------------------------------------------------

def outputs_close(reference: np.ndarray, got: np.ndarray) -> bool:
    """``got`` equals ``reference`` within RTOL/ATOL scaled to the
    reference's magnitude (deep conv stacks amplify ulp noise)."""
    if reference.shape != got.shape:
        return False
    ref = reference.astype(np.float64)
    scale = float(np.abs(ref).max(initial=0.0))
    err = float(np.abs(ref - got.astype(np.float64)).max(initial=0.0))
    return bool(np.isfinite(err)) and err <= ATOL + RTOL * scale


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def check(self, passed: bool, reason: str) -> bool:
        if passed:
            self.ok()
        else:
            self.fail(reason)
        return passed

    @property
    def ok_share(self) -> float:
        return 1.0 - self.failed / max(self.attempted, 1)


def fingerprint_output(arr: np.ndarray) -> dict:
    """What the expected file keeps of a reference output."""
    flat = arr.astype(np.float64).ravel()
    return {"shape": list(arr.shape),
            "mean_abs": float(np.abs(flat).mean()),
            "head": [float(v) for v in flat[:8]]}


def matches_expected(expected: dict, arr: np.ndarray) -> bool:
    if list(arr.shape) != expected["shape"]:
        return False
    got = fingerprint_output(arr)
    scale = float(np.abs(arr).max(initial=0.0))
    tol = ATOL + RTOL * scale
    return (abs(got["mean_abs"] - expected["mean_abs"]) <= tol
            and all(abs(a - b) <= tol
                    for a, b in zip(got["head"], expected["head"])))


def check_expected(workload: str, seed: int, outputs: dict[str, np.ndarray],
                   counts: dict[str, int], tally: Tally) -> None:
    """Hold the decomposed reference itself to the committed file.

    Counts are structural (weights are always seed 0) and checked on
    every run; outputs depend on the inputs, so only at seed 0.
    """
    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh)[workload]
    for key, value in counts.items():
        tally.check(expected["counts"].get(key) == value,
                    f"expected count {key}: {expected['counts'].get(key)} "
                    f"!= {value}")
    if seed != 0:
        return
    for key, arr in outputs.items():
        tally.check(key in expected["outputs"]
                    and matches_expected(expected["outputs"][key], arr),
                    f"decomposed output {key} drifted from expected/seed0.json")


def expected_entry(outputs: dict[str, np.ndarray],
                   counts: dict[str, int]) -> dict:
    return {"counts": counts,
            "outputs": {k: fingerprint_output(v) for k, v in outputs.items()}}


# -- environment -------------------------------------------------------------------

def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def env_block() -> dict:
    blas = {name: os.environ.get(name, "default")
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(), "blas_threads": blas,
            "numpy": np.__version__, "python": platform.python_version(),
            "platform": platform.platform()}
