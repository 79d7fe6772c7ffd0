"""Host-side spill store and the double-buffered prefetch worker.

The planner's ``spill`` action moves a cold internal tensor out of the
device-memory pool (the simulated :class:`~repro.runtime.allocator.
TensorAllocator`) into a host-side store, then stages it back in ahead
of the next consumer.  :class:`SpillStore` is that store: an in-memory
table by default, or a directory of ``.npy`` files when constructed
with ``directory=`` (lossless round-trip either way, so planned runs
stay bitwise-identical to unplanned ones).

:class:`PrefetchWorker` is a single background thread that services
directory-store fetches asynchronously: the executor *issues* a fetch
one node early (the plan's prefetch lead) and *waits* on it right
before the consumer runs, so the transfer overlaps the preceding node's
compute — the double-buffering the plan's cost model assumes.  Fetches
from an in-memory store are resolved inline at *issue*.

Failure semantics (exercised by the failure-injection tests):

- a failed **spill write** is non-fatal — the executor keeps the tensor
  resident and skips the matching prefetch; the request stays correct,
  the budget is best-effort;
- a failed **async prefetch** is retried once synchronously (transient
  I/O); if the retry also fails the data is gone and a typed
  :class:`SpillStoreError` surfaces, because silently wrong outputs are
  worse than a failed request.
"""

from __future__ import annotations

import io
import queue
import re
import threading
from pathlib import Path

import numpy as np

__all__ = ["SpillStore", "SpillStoreError", "PrefetchWorker"]


class SpillStoreError(RuntimeError):
    """Typed I/O failure of the spill store (write, read, or lost data)."""


def _safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


class SpillStore:
    """Keyed tensor store on the host side of the spill boundary.

    Parameters
    ----------
    directory:
        When given, tensors are serialized to ``<directory>/<name>.npy``
        via ``np.save``/``np.load`` (created on demand).  The default
        ``None`` keeps arrays in an in-process table — the simulated
        analogue of pinned host RAM.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self._mem: dict[str, np.ndarray] = {}
        self._sizes: dict[str, int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._sizes)

    @property
    def held_bytes(self) -> int:
        """Bytes currently parked in the store."""
        with self._lock:
            return sum(self._sizes.values())

    def _path(self, name: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{_safe_filename(name)}.npy"

    def put(self, name: str, array: np.ndarray) -> int:
        """Write one tensor; returns the bytes written.

        Raises :class:`SpillStoreError` on any I/O failure — the caller
        falls back to keeping the tensor resident.
        """
        try:
            if self.directory is not None:
                self.directory.mkdir(parents=True, exist_ok=True)
                with open(self._path(name), "wb") as fh:
                    np.save(fh, array, allow_pickle=False)
            else:
                self._mem[name] = array
        except OSError as exc:
            raise SpillStoreError(f"spill write of {name!r} failed: {exc}") from exc
        with self._lock:
            self._sizes[name] = int(array.nbytes)
        return int(array.nbytes)

    def fetch(self, name: str) -> np.ndarray:
        """Read one tensor back (it stays in the store until discarded)."""
        with self._lock:
            known = name in self._sizes
        if not known:
            raise SpillStoreError(f"tensor {name!r} was never spilled")
        try:
            if self.directory is not None:
                with open(self._path(name), "rb") as fh:
                    return np.load(fh, allow_pickle=False)
            return self._mem[name]
        except (OSError, KeyError, ValueError) as exc:
            raise SpillStoreError(f"prefetch of {name!r} failed: {exc}") from exc

    def discard(self, name: str) -> None:
        """Drop one tensor (idempotent)."""
        with self._lock:
            self._sizes.pop(name, None)
        self._mem.pop(name, None)
        if self.directory is not None:
            try:
                self._path(name).unlink(missing_ok=True)
            except OSError:
                pass

    def clear(self) -> None:
        for name in list(self._sizes):
            self.discard(name)


class _Pending:
    __slots__ = ("event", "array", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.array: np.ndarray | None = None
        self.error: Exception | None = None


_STOP = object()


class PrefetchWorker:
    """One background thread fetching spilled tensors ahead of use.

    ``issue(name)`` enqueues an asynchronous fetch; ``wait(name)``
    blocks until that fetch lands and returns the array (or re-raises
    the fetch error for the caller's synchronous retry).  One issued
    fetch can be in flight while the executor computes the preceding
    node — the double buffer.  An in-memory store (``directory=None``)
    has nothing to overlap, so ``issue`` resolves its fetch on the
    calling thread and no thread is ever started; errors are captured
    and surface from ``wait`` all the same.
    """

    def __init__(self, store: SpillStore) -> None:
        self.store = store
        self._queue: queue.Queue = queue.Queue()
        self._pending: dict[str, _Pending] = {}
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None

    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._run, name="repro-prefetch", daemon=True)
            self._thread.start()

    def _run(self) -> None:
        while True:
            try:
                # self-terminate when idle so a run abandoned by an
                # exception cannot leak threads indefinitely; issue()
                # restarts the thread on demand
                item = self._queue.get(timeout=30.0)
            except queue.Empty:
                return
            if item is _STOP:
                return
            self._fetch(*item)

    def _fetch(self, name: str, pending: _Pending) -> None:
        try:
            pending.array = self.store.fetch(name)
        except Exception as exc:  # surfaced via wait()
            pending.error = exc
        finally:
            pending.event.set()

    def issue(self, name: str) -> None:
        pending = _Pending()
        with self._lock:
            self._pending[name] = pending
        if self.store.directory is None:
            # an in-memory fetch is a table lookup: there is no I/O to
            # overlap, and the thread hop costs more than the lookup
            self._fetch(name, pending)
            return
        self._ensure_thread()
        self._queue.put((name, pending))

    def cancel(self, name: str) -> None:
        """Forget an issued fetch (e.g. after a failed spill write)."""
        with self._lock:
            self._pending.pop(name, None)

    def wait(self, name: str) -> np.ndarray:
        with self._lock:
            pending = self._pending.pop(name, None)
        if pending is None:
            raise SpillStoreError(f"no prefetch issued for {name!r}")
        pending.event.wait()
        if pending.error is not None:
            raise SpillStoreError(
                f"async prefetch of {name!r} failed") from pending.error
        assert pending.array is not None
        return pending.array

    def close(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            self._queue.put(_STOP)
            self._thread.join(timeout=5.0)
        self._thread = None
        with self._lock:
            self._pending.clear()
