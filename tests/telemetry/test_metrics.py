"""Tests for the metrics registry: disabled-path no-ops, thread safety, gauges."""

import dataclasses
import threading

import pytest

from repro.telemetry import metrics


@pytest.fixture(autouse=True)
def _no_leaked_registry():
    """Every test starts and ends with telemetry disabled."""
    metrics.uninstall()
    yield
    metrics.uninstall()


class TestDisabledPath:
    """With no registry installed, every entry point must be a cheap no-op."""

    def test_active_is_none_by_default(self):
        assert metrics.active() is None

    def test_count_is_noop(self):
        assert metrics.count("tir.plan_compiles") is None

    def test_event_is_noop(self):
        assert metrics.event("service.requests", "get") is None

    def test_observe_is_noop(self):
        assert metrics.observe("service.request_s", 0.01) is None

    def test_gauge_is_noop(self):
        assert metrics.gauge("x", lambda: 1.0) is None

    def test_snapshot_counters_is_empty(self):
        assert metrics.snapshot_counters() == {}

    def test_register_stats_gauges_is_noop(self):
        @dataclasses.dataclass
        class Stats:
            hits: int = 0

        assert metrics.register_stats_gauges("s", Stats()) is None

    def test_disabled_count_leaves_no_state(self):
        metrics.count("ghost")
        with metrics.collecting() as registry:
            assert registry.counters() == {}


class TestCounters:
    def test_count_and_snapshot(self):
        with metrics.collecting() as registry:
            metrics.count("a")
            metrics.count("a")
            metrics.count("b", 5)
            assert registry.counters() == {"a": 2, "b": 5}
            assert metrics.snapshot_counters() == {"a": 2, "b": 5}

    def test_event_formats_name_only_when_active(self):
        with metrics.collecting() as registry:
            metrics.event("service.requests", "tune")
            assert registry.counters() == {"service.requests.tune": 1}

    def test_collecting_restores_previous(self):
        outer = metrics.install()
        with metrics.collecting() as inner:
            assert metrics.active() is inner
            metrics.count("inner.only")
        assert metrics.active() is outer
        assert "inner.only" not in outer.counters()

    def test_concurrent_increments_are_lossless(self):
        """The canonical lost-update race: N threads x M increments."""
        threads, per_thread = 8, 500
        with metrics.collecting() as registry:

            def bump():
                for _ in range(per_thread):
                    metrics.count("contended")

            workers = [threading.Thread(target=bump) for _ in range(threads)]
            for t in workers:
                t.start()
            for t in workers:
                t.join()
            assert registry.counters()["contended"] == threads * per_thread


class TestGauges:
    def test_gauges_are_lazy(self):
        with metrics.collecting() as registry:
            box = {"v": 1}
            metrics.gauge("box.v", lambda: box["v"])
            box["v"] = 42  # mutated after registration: gauge must see it
            assert registry.gauges() == {"box.v": 42.0}

    def test_broken_and_non_numeric_callbacks_are_skipped(self):
        with metrics.collecting() as registry:
            registry.gauge("boom", lambda: 1 / 0)
            registry.gauge("text", lambda: "nope")
            registry.gauge("flag", lambda: True)
            registry.gauge("ok", lambda: 7)
            assert registry.gauges() == {"ok": 7.0}

    def test_set_gauge(self):
        with metrics.collecting() as registry:
            registry.set_gauge("fixed", 3.5)
            assert registry.gauges() == {"fixed": 3.5}

    def test_register_stats_gauges_tracks_dataclass(self):
        @dataclasses.dataclass
        class Stats:
            hits: int = 0
            rate: float = 0.0
            enabled: bool = True  # bools are flags, not gauges
            name: str = "x"  # non-numeric skipped

        stats = Stats()
        with metrics.collecting() as registry:
            metrics.register_stats_gauges("test.stats", stats)
            stats.hits = 9
            stats.rate = 0.75
            assert registry.gauges() == {
                "test.stats.hits": 9.0,
                "test.stats.rate": 0.75,
            }

    def test_register_stats_gauges_rejects_non_dataclass(self):
        with metrics.collecting() as registry:
            metrics.register_stats_gauges("x", object())
            metrics.register_stats_gauges("x", {"hits": 1})
            assert registry.gauges() == {}


class TestHistograms:
    def test_bucketing_and_sum(self):
        with metrics.collecting() as registry:
            for value in (0.00005, 0.002, 0.002, 20.0):
                metrics.observe("lat_s", value)
            hist = registry.histograms()["lat_s"]
            assert hist["count"] == 4
            assert hist["sum"] == pytest.approx(20.00405)
            counts = hist["counts"]
            boundaries = hist["boundaries"]
            assert counts[0] == 1  # below the first boundary
            assert counts[-1] == 1  # overflow bucket
            assert sum(counts) == 4
            assert len(counts) == len(boundaries) + 1

    def test_snapshot_shape(self):
        with metrics.collecting() as registry:
            metrics.count("c")
            registry.set_gauge("g", 1.0)
            metrics.observe("h", 0.1)
            snap = registry.snapshot()
            assert set(snap) == {"counters", "gauges", "histograms"}
            assert snap["counters"] == {"c": 1}
            assert snap["gauges"] == {"g": 1.0}
            assert snap["histograms"]["h"]["count"] == 1
