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
    def test_stats_snapshot_shape(self, tmp_path):
        with TuningService(tmp_path / "store") as svc:
            with ServiceClient(svc.address) as client:
                stats = client.stats()
        assert set(stats) == {
            "ok", "protocol", "schema", "uptime_s", "shutting_down", "service",
            "session", "store", "expr_cache", "inflight", "telemetry",
        }
        assert stats["uptime_s"] >= 0
        assert stats["telemetry"] == {}  # no sink installed

    def test_one_count_per_event_feeds_field_and_counter(self, tmp_path):
        """``stats.requests`` and ``service.requests.<op>``, and the
        client's ``server_tunes`` / ``server_hits`` and their
        ``service.client.*`` counters, move together."""
        from repro.core.pipeline import UnitCpuRunner
        from repro.service import RemoteSession
        from repro.workloads.table1 import TABLE1_LAYERS

        with metrics.collecting() as registry:
            with TuningService(tmp_path / "store") as svc:
                with ServiceClient(svc.address) as client:
                    client.ping()
                    client.ping()
                first = RemoteSession(svc.address)
                UnitCpuRunner(session=first).conv2d_latency(TABLE1_LAYERS[0])
                second = RemoteSession(svc.address)
                UnitCpuRunner(session=second).conv2d_latency(TABLE1_LAYERS[0])
                requests = dict(svc.stats.requests)
        counters = registry.counters()
        assert requests["ping"] == counters["service.requests.ping"] == 2
        assert requests["tune"] == counters["service.requests.tune"] == 1
        assert (first.server_tunes, second.server_hits) == (1, 1)
        assert counters["service.client.server_tunes"] == 1
        assert counters["service.client.server_hits"] == 1

    def test_uptime_is_monotonic_across_calls(self, tmp_path):
        with TuningService(tmp_path / "store") as svc:
            with ServiceClient(svc.address) as client:
                first = client.stats()["uptime_s"]
                time.sleep(0.05)
                second = client.stats()["uptime_s"]
        assert second > first

    def test_telemetry_counters_ride_the_wire(self, tmp_path):
        with metrics.collecting():
            with TuningService(tmp_path / "store") as svc:
                with ServiceClient(svc.address) as client:
                    client.ping()
                    stats = client.stats()
        telemetry = stats["telemetry"]
        assert telemetry["service.requests.ping"] >= 1
        assert telemetry["service.requests.stats"] >= 1

    def test_request_latency_histogram(self, tmp_path):
        with metrics.collecting() as registry:
            with TuningService(tmp_path / "store") as svc:
                with ServiceClient(svc.address) as client:
                    client.ping()
                    client.stats()
        hist = registry.histograms()["service.request_s"]
        assert hist["count"] >= 2
        assert hist["sum"] > 0

    def test_service_gauges_track_live_stats(self, tmp_path):
        with metrics.collecting() as registry:
            with TuningService(tmp_path / "store") as svc:
                with ServiceClient(svc.address) as client:
                    client.ping()
                    gauges = registry.gauges()
        # ServiceStats' numeric fields are exposed as live gauges; the
        # dict-valued request tally is (correctly) not.
        assert gauges["service.protocol_errors"] == 0.0
        assert "service.coalesced_waiters" in gauges
        assert "service.requests" not in gauges
