"""A fake clock and the slice of ``Servable`` a ``FleetView`` reads.

The fleet-view tests drive the view deterministically: set the stub's
stats, move the clock, call ``view.sample()``.
"""

from types import SimpleNamespace

from repro.obs import NOOP_TRACER, FleetView, MetricsRegistry


class FakeClock:
    """Deterministic injectable clock: tests set ``t`` explicitly."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


class StubBackend:
    """A lone-server-shaped backend whose ``stats()`` is ``self.values``
    (or the result of calling it, when it is callable).  As its own
    pseudo-replica its stats reach the view's snapshots unsuffixed, so
    a test writes series names exactly as the detectors read them."""

    family = "serve"
    slo = None

    def __init__(self, values=None, *, tracer=NOOP_TRACER) -> None:
        self.values = {} if values is None else values
        self.metrics = MetricsRegistry()
        self.tracer = tracer
        self.graph = SimpleNamespace(name="stub")

    def stats(self) -> dict:
        return dict(self.values() if callable(self.values) else self.values)

    def replicas(self):
        return [("0", {"id": 0, "state": "ready", "generation": 0,
                       "routed": 0, "outstanding": 0}, self)]

    def health_doc(self) -> dict:
        return {"status": "ok"}


class StubFleet:
    """A view over a fresh stub backend on a fake clock at t = 0."""

    def __init__(self, values=None, *, tracer=NOOP_TRACER) -> None:
        self.clock = FakeClock()
        self.backend = StubBackend(values, tracer=tracer)
        self.view = FleetView(self.backend, clock=self.clock)

    def feed(self, t: float, values: dict) -> None:
        """Move the clock to ``t``, merge ``values`` into the stub's
        stats and take one sample."""
        self.clock.t = t
        self.backend.values.update(values)
        assert self.view.sample()

    def kinds(self) -> list[str]:
        """The kinds of the findings so far."""
        return [f.kind for f in self.view.findings()]
