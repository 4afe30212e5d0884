"""End-to-end instrumentation tests: the spans left inside the compiler and
the service must be recorded when a tracer is installed — and leave no trace
when one is not — and each counter is kept by the object it counts."""

import time

import pytest

from repro.service import ServiceClient, TuningService
from repro.telemetry import trace
from repro.tir import PlanCache, compile_plan, lower
from tests.conftest import small_conv_hwc


@pytest.fixture(autouse=True)
def _clean_sinks():
    trace.uninstall()
    yield
    trace.uninstall()


class TestCompilerInstrumentation:
    def test_compile_plan_emits_span(self):
        func = lower(small_conv_hwc())
        with trace.tracing() as tracer:
            compile_plan(func)
        spans = [r for r in tracer.finished() if r.name == "tir.compile_plan"]
        assert len(spans) == 1
        assert spans[0].attrs["func"] == func.name
        assert "vector_nests" in spans[0].attrs

    def test_plan_cache_compiles_once_per_miss(self):
        """A miss is one ``tir.compile_plan`` span; a hit compiles nothing."""
        func = lower(small_conv_hwc())
        cache = PlanCache()
        with trace.tracing() as tracer:
            cache.get_or_compile(func)
            cache.get_or_compile(func)
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)
        compiles = [r for r in tracer.finished() if r.name == "tir.compile_plan"]
        assert len(compiles) == cache.stats.misses

    def test_disabled_compile_leaves_no_state(self):
        """The permanent hooks must be invisible without a tracer."""
        compile_plan(lower(small_conv_hwc()))
        assert trace.active() is None


class TestServiceInstrumentation:
    def test_stats_snapshot_shape(self, tmp_path):
        with TuningService(tmp_path / "store") as svc:
            with ServiceClient(svc.address) as client:
                stats = client.stats()
        assert set(stats) == {
            "ok", "protocol", "schema", "uptime_s", "shutting_down", "service",
            "session", "store", "expr_cache", "inflight",
        }
        assert stats["uptime_s"] >= 0

    def test_daemon_and_client_count_their_own_events(self, tmp_path):
        """``stats.requests`` counts each request by op on the daemon; the
        client's ``server_tunes`` / ``server_hits`` count its outcomes."""
        from repro.core.pipeline import UnitCpuRunner
        from repro.service import RemoteSession
        from repro.workloads.table1 import TABLE1_LAYERS

        with TuningService(tmp_path / "store") as svc:
            with ServiceClient(svc.address) as client:
                client.ping()
                client.ping()
            first = RemoteSession(svc.address)
            UnitCpuRunner(session=first).conv2d_latency(TABLE1_LAYERS[0])
            second = RemoteSession(svc.address)
            UnitCpuRunner(session=second).conv2d_latency(TABLE1_LAYERS[0])
            requests = dict(svc.stats.requests)
        assert requests["ping"] == 2
        assert requests["tune"] == 1
        assert (first.server_tunes, first.server_hits) == (1, 0)
        assert (second.server_tunes, second.server_hits) == (0, 1)

    def test_uptime_is_monotonic_across_calls(self, tmp_path):
        with TuningService(tmp_path / "store") as svc:
            with ServiceClient(svc.address) as client:
                first = client.stats()["uptime_s"]
                time.sleep(0.05)
                second = client.stats()["uptime_s"]
        assert second > first
