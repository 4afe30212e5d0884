"""End-to-end instrumentation tests: the hooks left inside the compiler and
the service must produce real telemetry when a sink is installed — and leave
no trace when one is not."""

import time

import pytest

from repro.service import ServiceClient, TuningService
from repro.telemetry import metrics, trace
from repro.tir import PlanCache, compile_plan, lower
from tests.conftest import small_conv_hwc


@pytest.fixture(autouse=True)
def _clean_sinks():
    metrics.uninstall()
    trace.uninstall()
    yield
    metrics.uninstall()
    trace.uninstall()


class TestCompilerInstrumentation:
    def test_compile_plan_emits_span_and_counter(self):
        func = lower(small_conv_hwc())
        with metrics.collecting() as registry, trace.tracing() as tracer:
            compile_plan(func)
        assert registry.counters()["tir.plan_compiles"] == 1
        spans = [r for r in tracer.finished() if r.name == "tir.compile_plan"]
        assert len(spans) == 1
        assert spans[0].attrs["func"] == func.name
        assert "vector_nests" in spans[0].attrs

    def test_plan_cache_hit_miss_counters(self):
        func = lower(small_conv_hwc())
        cache = PlanCache()
        with metrics.collecting() as registry:
            cache.get_or_compile(func)
            cache.get_or_compile(func)
        counters = registry.counters()
        assert counters["tir.plan_cache.misses"] == 1
        assert counters["tir.plan_cache.hits"] == 1

    def test_disabled_compile_leaves_no_state(self):
        """The permanent hooks must be invisible without a sink."""
        compile_plan(lower(small_conv_hwc()))
        with metrics.collecting() as registry:
            assert registry.counters() == {}
        assert trace.active() is None


class TestServiceInstrumentation:
    def test_stats_and_health_serve_identical_shape(self, tmp_path):
        with TuningService(tmp_path / "store", speculative=False) as svc:
            with ServiceClient(svc.address) as client:
                stats = client.stats()
                health = client.health()
        assert set(stats) == set(health)
        for payload in (stats, health):
            assert payload["uptime_s"] >= 0
            assert payload["telemetry"] == {}  # no sink installed

    def test_uptime_is_monotonic_across_calls(self, tmp_path):
        with TuningService(tmp_path / "store", speculative=False) as svc:
            with ServiceClient(svc.address) as client:
                first = client.stats()["uptime_s"]
                time.sleep(0.05)
                second = client.stats()["uptime_s"]
        assert second > first

    def test_telemetry_counters_ride_the_wire(self, tmp_path):
        with metrics.collecting():
            with TuningService(tmp_path / "store", speculative=False) as svc:
                with ServiceClient(svc.address) as client:
                    client.ping()
                    stats = client.stats()
        telemetry = stats["telemetry"]
        assert telemetry["service.requests.ping"] >= 1
        assert telemetry["service.requests.stats"] >= 1

    def test_request_latency_histogram(self, tmp_path):
        with metrics.collecting() as registry:
            with TuningService(tmp_path / "store", speculative=False) as svc:
                with ServiceClient(svc.address) as client:
                    client.ping()
                    client.stats()
        hist = registry.histograms()["service.request_s"]
        assert hist["count"] >= 2
        assert hist["sum"] > 0

    def test_service_gauges_track_live_stats(self, tmp_path):
        with metrics.collecting() as registry:
            with TuningService(tmp_path / "store", speculative=False) as svc:
                with ServiceClient(svc.address) as client:
                    client.ping()
                    gauges = registry.gauges()
        # ServiceStats' numeric fields are exposed as live gauges; the
        # dict-valued request tally is (correctly) not.
        assert gauges["service.protocol_errors"] == 0.0
        assert "service.coalesced_waiters" in gauges
        assert "service.requests" not in gauges
