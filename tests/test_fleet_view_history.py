"""The fleet view's sample history: bound, windowed rates, the
``timeseries.json`` dump, and the background sampler."""

import threading
import time

import pytest

from repro.obs import FleetView, fleetview

from _stub_backend import StubBackend, StubFleet


def _qps(fleet: StubFleet) -> float:
    """The doc's ``serve.completed`` rate; taking the document adds one
    sample of the stub's current stats at the current fake time."""
    return fleet.view.fleet_doc()["fleet"]["qps"]


class TestStore:
    def test_ring_buffer_evicts_oldest(self):
        fleet = StubFleet()
        extra = 10
        for i in range(fleetview.HISTORY_SAMPLES + extra):
            fleet.feed(float(i), {"a": float(i)})
        points = fleet.view.timeseries()["series"]["a"]
        assert len(points) == fleetview.HISTORY_SAMPLES
        assert points[0] == [float(extra), float(extra)]
        assert points[-1][0] == float(fleetview.HISTORY_SAMPLES + extra - 1)

    def test_ingest_stamps_one_instant(self):
        fleet = StubFleet()
        fleet.feed(5.0, {"a": 1.0, "b": 2.0})
        series = fleet.view.timeseries()["series"]
        assert series == {"a": [[5.0, 1.0]], "b": [[5.0, 2.0]]}

    def test_window_filters_by_time(self):
        fleet = StubFleet()
        fleet.feed(0.0, {"serve.completed": 0.0})
        fleet.feed(1.0, {"serve.completed": 100.0})
        fleet.feed(7.0, {"serve.completed": 100.0})
        fleet.feed(8.0, {"serve.completed": 102.0})
        fleet.clock.t = 9.0
        fleet.backend.values["serve.completed"] = 104.0
        # only t = 7, 8, 9 are inside the 5 s window: the early burst
        # of 100 is not in the rate
        assert _qps(fleet) == pytest.approx(2.0)

    def test_rate_over_window(self):
        fleet = StubFleet()
        # a counter climbing 2/s for 5 seconds
        for i in range(5):
            fleet.feed(float(i), {"serve.completed": 2.0 * i})
        fleet.clock.t = 5.0
        fleet.backend.values["serve.completed"] = 10.0
        assert _qps(fleet) == pytest.approx(2.0)

    def test_rate_needs_two_samples_and_clamps_resets(self):
        fleet = StubFleet({"serve.completed": 100.0})
        assert _qps(fleet) == 0.0  # the document's own sample is the first
        # counter reset (replica restart): never a negative rate
        fleet.clock.t = 1.0
        fleet.backend.values["serve.completed"] = 3.0
        assert _qps(fleet) == 0.0

    def test_flat_series_rates_as_zero(self):
        fleet = StubFleet()
        for i in range(4):
            fleet.feed(float(i), {"serve.completed": 7.0})
        assert _qps(fleet) == 0.0

    def test_delta_over_window(self):
        # 4 failures in all, but only 2 of them in the last 5 s: under
        # the drop-spike threshold of 3
        fleet = StubFleet()
        fleet.feed(0.0, {"fleet.failed": 0.0})
        fleet.feed(8.0, {"fleet.failed": 2.0})
        fleet.feed(12.0, {"fleet.failed": 4.0})
        assert fleet.kinds() == []
        fleet.feed(13.0, {"fleet.failed": 5.0})
        (f,) = fleet.view.findings()
        assert (f.kind, f.value) == ("drop-spike", 3.0)

    def test_to_dict_is_json_shaped(self):
        fleet = StubFleet()
        fleet.feed(2.0, {"b": 1.5, "a": 4})
        fleet.clock.t = 3.0
        doc = fleet.view.timeseries()
        assert doc == {"max_samples": fleetview.HISTORY_SAMPLES,
                       "captured_at": 3.0,
                       "series": {"a": [[2.0, 4.0]], "b": [[2.0, 1.5]]}}
        assert list(doc["series"]) == ["a", "b"]  # name-sorted


class TestScraper:
    def test_scrape_once_ingests_and_counts(self):
        view = FleetView(StubBackend({"a": 1.0}))
        assert view.sample()
        assert view.scrapes == 1 and view.scrape_errors == 0
        assert [v for _, v in view.timeseries()["series"]["a"]] == [1.0]

    def test_source_errors_counted_not_raised(self):
        def dying():
            raise RuntimeError("replica went away")

        view = FleetView(StubBackend(dying))
        assert not view.sample()
        assert view.scrape_errors == 1 and view.scrapes == 0

    def test_hook_runs_after_ingest_and_errors_counted(self, monkeypatch):
        seen: list[float] = []

        def watching(history, now):
            seen.append(history[-1][1]["a"])
            return []

        monkeypatch.setattr(fleetview, "DETECTORS", (watching,))
        view = FleetView(StubBackend({"a": 42.0}))
        view.sample()
        assert seen == [42.0]  # the detectors observe the fresh sample

        def bad(history, now):
            raise RuntimeError("detector bug")

        monkeypatch.setattr(fleetview, "DETECTORS", (bad,))
        assert view.sample()  # the sample itself still succeeds
        assert view.scrapes == 2 and view.scrape_errors == 1

    def test_background_thread_scrapes_repeatedly(self, monkeypatch):
        monkeypatch.setattr(fleetview, "INTERVAL_S", 0.01)

        def flaky(history, now):  # a raising detector kills nothing
            raise RuntimeError("detector bug")

        monkeypatch.setattr(fleetview, "DETECTORS", (flaky,))
        with FleetView(StubBackend({"a": 1.0})) as view:
            deadline = time.monotonic() + 5.0
            while view.scrapes < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert view.scrapes >= 3
        assert view.scrape_errors == view.scrapes
        assert len(view.timeseries()["series"]["a"]) >= 3

    def test_stop_joins_the_sampler_without_waiting_out_the_interval(self):
        before = set(threading.enumerate())
        view = FleetView(StubBackend({"a": 1.0})).start()
        (sampler,) = set(threading.enumerate()) - before
        assert view.start() is view  # idempotent: still one thread
        assert len(set(threading.enumerate()) - before) == 1
        while view.scrapes < 1:  # now it sleeps on the interval
            time.sleep(0.001)
        started = time.monotonic()
        view.stop()
        assert time.monotonic() - started < fleetview.INTERVAL_S / 2
        assert not sampler.is_alive()
        with view:
            pass
        assert set(threading.enumerate()) <= before
