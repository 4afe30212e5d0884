"""Seeded chaos tests: every fault-injection point, exercised end to end.

Each test arms a :class:`~repro.testing.faults.FaultPlan` against a live
(in-process) daemon and asserts the invariants the paper's robustness
story depends on: no lost records, no corrupt records served, each key
searched at most once, and results bit-identical to single-process tuning.
"""

import time

import pytest

from repro.core.pipeline import UnitCpuRunner
from repro.rewriter import FileLock, ShardedTuningStore, TuningSession
from repro.service import (
    RemoteSession,
    ServiceClient,
    ServiceUnavailable,
    TuningService,
)
from repro.testing.faults import (
    FaultPlan,
    InjectedFault,
    contend_lock,
    crash_daemon,
    delay,
    partial_append,
    reset_connection,
    torn_frame,
)
from repro.workloads.table1 import TABLE1_LAYERS


def _tune_layers(session, layers):
    runner = UnitCpuRunner(session=session)
    for params in layers:
        runner.conv2d_latency(params)


def _reference(layers):
    session = TuningSession()
    _tune_layers(session, layers)
    return {record.key: record for record in session.cache.records()}


def _store_record(index, cost=1e-5):
    from repro.hwsim import CostBreakdown
    from repro.rewriter import CpuTuningConfig, TuningKey, TuningRecord

    key = TuningKey(
        kind="conv2d",
        params=(("index", index),),
        intrinsic="x86.avx512.vpdpbusd",
        machine="cascade-lake",
        space="full@test",
    )
    return TuningRecord(
        key=key,
        best_config=CpuTuningConfig(unroll_limit=4),
        best_cost=cost,
        num_trials=3,
        breakdown=CostBreakdown(seconds=cost, compute_seconds=cost),
    )


@pytest.fixture
def service(tmp_path):
    with TuningService(tmp_path / "store") as svc:
        yield svc


class TestProtocolFaults:
    def test_send_reset_is_retried_transparently(self, service):
        client = ServiceClient(service.address, retries=3, timeout=2.0)
        with FaultPlan() as plan:
            plan.on(
                "protocol.send",
                reset_connection,
                times=1,
                when=lambda context: context["message"].get("op") == "ping",
            )
            assert client.ping()["server"] == "tuning-service"
        assert plan.fired("protocol.send") == 1
        assert client.reconnects >= 2  # the reset cost one reconnect
        client.close()

    def test_torn_request_frame_recovers(self, service):
        # The client's frame is cut mid-body: the server must classify the
        # torn read as a protocol error (never hang, never serve garbage)
        # and the client's retry must get a clean answer.
        client = ServiceClient(service.address, retries=3, timeout=2.0)
        with FaultPlan() as plan:
            plan.on(
                "protocol.send",
                torn_frame(0.5),
                times=1,
                when=lambda context: context["message"].get("op") == "ping",
            )
            assert client.ping()["server"] == "tuning-service"
        assert plan.fired("protocol.send") == 1
        assert service.stats.protocol_errors >= 0  # torn read handled, not fatal
        client.close()

    def test_recv_reset_is_retried_transparently(self, service):
        client = ServiceClient(service.address, retries=3, timeout=2.0)
        with FaultPlan() as plan:
            plan.on("protocol.recv", reset_connection, times=1)
            assert client.ping()["server"] == "tuning-service"
        assert plan.fired("protocol.recv") == 1
        client.close()

    def test_exhausted_retries_surface_service_unavailable(self, service):
        client = ServiceClient(service.address, retries=1, timeout=2.0)
        with FaultPlan() as plan:
            plan.on(
                "protocol.send",
                reset_connection,
                times=None,
                when=lambda context: context["message"].get("op") == "ping",
            )
            with pytest.raises(ServiceUnavailable, match="unreachable"):
                client.ping()
        assert plan.fired("protocol.send") == 2  # one per attempt
        client.close()


class TestServerFaults:
    def test_delayed_response_times_out_then_recovers(self, service):
        client = ServiceClient(service.address, retries=2, timeout=0.5)
        with FaultPlan() as plan:
            plan.on("server.respond", delay(1.5), times=1)
            start = time.monotonic()
            assert client.ping()["server"] == "tuning-service"
            elapsed = time.monotonic() - start
        assert plan.fired("server.respond") == 1
        assert elapsed < 5.0  # timed out at 0.5s and retried; never waited 1.5s out
        client.close()

    def test_daemon_crash_mid_tune_falls_back_locally(self, tmp_path):
        svc = TuningService(tmp_path / "crash_store").start()
        session = RemoteSession(
            svc.address,
            retries=0,
            timeout=2.0,
            tune_timeout=5.0,
            fallback_store=tmp_path / "local",
            offline_cooldown_s=60.0,
        )
        with FaultPlan() as plan:
            plan.on("server.tune", crash_daemon, times=1)
            _tune_layers(session, TABLE1_LAYERS[:2])
        assert plan.fired("server.tune") == 1
        # The client finished the sweep locally, bit-identically.
        assert session.searches_run == 2
        assert not session.online
        for key, expected in _reference(TABLE1_LAYERS[:2]).items():
            assert session.cache.lookup(key).to_json() == expected.to_json()
        # The killed daemon's store audits clean (fsync-bounded, no torn state).
        report = ShardedTuningStore(tmp_path / "crash_store").fsck()
        assert report["clean"] == 1


class TestStoreFaults:
    def test_partial_append_quarantined_by_fsck(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=2)
        store.put(_store_record(0))
        with FaultPlan() as plan:
            plan.on("store.append", partial_append(0.5), times=1)
            with pytest.raises(InjectedFault):
                store.put(_store_record(1))
        assert plan.fired("store.append") == 1
        # The torn tail is invisible to readers and flagged by the dry run...
        fresh = ShardedTuningStore(tmp_path / "s")
        assert len(fresh.load()) == 1
        check = fresh.fsck(quarantine=False)
        assert check["corrupt"] == 1 and check["clean"] == 0
        # ...quarantined by the repair, after which the store audits clean.
        repair = fresh.fsck()
        assert repair["quarantined"] == 1
        assert fresh.fsck(quarantine=False)["clean"] == 1
        # The surviving record still serves; the healed store accepts appends.
        fresh.put(_store_record(1))
        assert len(ShardedTuningStore(tmp_path / "s").load()) == 2

    def test_contended_lock_is_waited_out_on_backoff(self, tmp_path):
        pytest.importorskip("fcntl")
        lock = FileLock(tmp_path / "shard.lock", timeout=5.0)
        with FaultPlan() as plan:
            plan.on("store.lock", contend_lock(hold_s=0.15), times=1)
            start = time.monotonic()
            with lock:
                waited = time.monotonic() - start
        assert plan.fired("store.lock") == 1
        assert waited >= 0.1  # the holder was waited out, not raced
        assert lock.contentions >= 1


class TestSeededChaosSweep:
    def test_sweep_under_random_resets_is_bit_identical(self, tmp_path):
        """The headline invariant: a sweep under seeded random connection
        resets loses nothing, corrupts nothing, re-searches nothing, and
        lands bit-identical to single-process tuning."""
        service = TuningService(tmp_path / "store").start()
        try:
            session = RemoteSession(
                service.address,
                retries=4,
                timeout=2.0,
                fallback_store=tmp_path / "local",
            )
            with FaultPlan(seed=1234) as plan:
                plan.on(
                    "protocol.send",
                    reset_connection,
                    times=None,
                    when=lambda context: (
                        context["message"].get("op") in ("get", "put", "tune")
                        and plan.rng.random() < 0.2
                    ),
                )
                _tune_layers(session, TABLE1_LAYERS[:4])
            assert plan.fired("protocol.send") >= 1  # the chaos actually bit
            # Invariant 1: bit-identity to single-process tuning.
            for key, expected in _reference(TABLE1_LAYERS[:4]).items():
                assert session.cache.lookup(key).to_json() == expected.to_json()
            # Invariant 2: each key searched at most once (coalescing and
            # read-through hold under retried requests), and the client
            # never had to search anything itself.
            assert service.session.searches_run <= 4
            assert session.searches_run == 0
            assert session.client.reconnects >= 2  # every reset cost a reconnect
        finally:
            service.stop()
        # Invariant 3: nothing corrupt or stale was persisted anywhere.
        for root in (tmp_path / "store", tmp_path / "local"):
            if root.exists():
                report = ShardedTuningStore(root).fsck(quarantine=False)
                assert report["corrupt"] == 0
                assert report["stale"] == 0
                assert report["clean"] == 1

    def test_same_seed_same_schedule(self, service):
        """A chaos run is replayed exactly by its seed: the injection
        schedule is a pure function of (seed, fire sequence)."""

        def run(seed):
            client = ServiceClient(service.address, retries=8, timeout=2.0)
            with FaultPlan(seed=seed) as plan:
                plan.on(
                    "protocol.send",
                    reset_connection,
                    times=None,
                    when=plan.chance(0.3),
                )
                for _ in range(10):
                    client.ping()
                fired = plan.fired()
            client.close()
            return fired

        assert run(99) == run(99)
