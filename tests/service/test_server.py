"""Tests for the tuning daemon: coalescing, warm, versioning."""

import dataclasses
import json
import socket
import struct
import sys
import threading
import time

import pytest

from repro.core.pipeline import UnitCpuRunner
from repro.rewriter import ShardedTuningStore, TuningKey, TuningSession
from repro.service import (
    ServiceClient,
    ServiceError,
    TuningService,
    protocol,
)
from repro.service.server import _LockedStore, expand_sweep
from repro.workloads.table1 import TABLE1_LAYERS
from tests.conftest import store_with_gc_sidecars


@pytest.fixture
def service(tmp_path):
    with TuningService(tmp_path / "store") as svc:
        yield svc


@pytest.fixture
def client(service):
    with ServiceClient(service.address) as c:
        yield c


def _reference_records(layers):
    """Ground truth: a private single-process tuning run."""
    session = TuningSession()
    runner = UnitCpuRunner(session=session)
    for params in layers:
        runner.conv2d_latency(params)
    return {record.key: record for record in session.cache.records()}


def _keys_for(layers):
    return list(_reference_records(layers).keys())


class TestBasicOps:
    def test_ping(self, client):
        response = client.ping()
        assert response["server"] == "tuning-service"
        assert response["uptime_s"] >= 0

    def test_get_miss_then_put_then_hit(self, client):
        (key,) = _keys_for(TABLE1_LAYERS[:1])
        assert client.get(key) is None
        record = _reference_records(TABLE1_LAYERS[:1])[key]
        client.put(record)
        got = client.get(key)
        assert got is not None
        assert got.to_json() == record.to_json()

    def test_put_survives_daemon_restart(self, tmp_path):
        (key,) = _keys_for(TABLE1_LAYERS[:1])
        record = _reference_records(TABLE1_LAYERS[:1])[key]
        with TuningService(tmp_path / "store") as svc:
            with ServiceClient(svc.address) as client:
                client.put(record)
        with TuningService(tmp_path / "store") as svc:
            with ServiceClient(svc.address) as client:
                got = client.get(key)
                assert got is not None and got.to_json() == record.to_json()
        # ...and nothing on disk is corrupt or stale after two daemon runs
        store = ShardedTuningStore(tmp_path / "store")
        store.load()
        assert store.stats.corrupt_lines == 0
        assert store.stats.stale_records == 0

    def test_server_side_tune_matches_local_reference(self, client, service):
        keys = _keys_for(TABLE1_LAYERS[:3])
        reference = _reference_records(TABLE1_LAYERS[:3])
        for key in keys:
            record = client.tune(key)
            assert record.to_json() == reference[key].to_json()
        assert service.session.searches_run == 3
        # a second round is served from memory: no new searches
        for key in keys:
            client.tune(key)
        assert service.session.searches_run == 3

    def test_tune_declines_unrebuildable_keys(self, client):
        bogus = TuningKey(
            kind="conv2d",
            params=(("not_a_field", 1),),
            intrinsic="x86.avx512.vpdpbusd",
            machine="cascade-lake",
            space="full@00000000",
        )
        with pytest.raises(ServiceError) as excinfo:
            client.tune(bogus)
        assert excinfo.value.code == "untunable"

    def test_tune_declines_library_spaces(self, client):
        key = TuningKey(
            kind="conv2d",
            params=(("in_channels", 8),),
            intrinsic="",
            machine="cascade-lake",
            space="library:onednn",
        )
        with pytest.raises(ServiceError) as excinfo:
            client.tune(key)
        assert excinfo.value.code == "untunable"

    def test_put_rejects_unservable_records_with_a_code(self, client, service):
        """``put`` runs the one servable-record gate on the parsed payload:
        stale, malformed and JSON-valid non-object records are refused with
        their code and nothing reaches the store."""
        (key,) = _keys_for(TABLE1_LAYERS[:1])
        good = _reference_records(TABLE1_LAYERS[:1])[key].to_json()
        rejected = [
            ({**good, "cost_model": "0" * 12}, "stale"),
            ({**good, "schema": 0}, "stale"),
            ({k: v for k, v in good.items() if k != "key"}, "corrupt"),
            ([1, 2], "corrupt"),
            ("a string", "corrupt"),
            (None, "corrupt"),
            (42, "corrupt"),
        ]
        for payload, code in rejected:
            with pytest.raises(ServiceError) as excinfo:
                client.request("put", record=payload)
            assert excinfo.value.code == code, payload
        assert client.get(key) is None
        assert service.store.stats.appends == 0
        client.request("put", record=good)  # the daemon is still serving
        assert client.get(key).to_json() == good

    def test_put_rejects_ill_typed_records(self, client, service):
        """A current-schema record with an ill-typed field is corrupt: the
        daemon must not persist a cost of ``"fast"``."""
        (key,) = _keys_for(TABLE1_LAYERS[:1])
        good = _reference_records(TABLE1_LAYERS[:1])[key].to_json()
        for payload in ({**good, "cost": "fast"}, {**good, "trials": [3]}):
            with pytest.raises(ServiceError) as excinfo:
                client.request("put", record=payload)
            assert excinfo.value.code == "corrupt"
        assert client.get(key) is None
        assert service.store.stats.appends == 0

    def test_stats_endpoint_shape(self, client, service):
        client.ping()
        (key,) = _keys_for(TABLE1_LAYERS[:1])
        client.tune(key)
        stats = client.stats()
        assert stats["service"]["requests"]["tune"] == 1
        assert stats["service"]["searches_led"] == 1
        assert stats["session"]["searches_run"] == 1
        assert "strategy" not in stats["session"]  # there is one search driver
        assert stats["store"]["appends"] == 1
        assert "simplify_hits" in stats["expr_cache"]
        assert stats["inflight"] == 0

    def test_rejects_unknown_op_cleanly(self, service):
        sock = socket.create_connection(service.address, timeout=5)
        try:
            message = protocol.ok_response()  # versioned envelope, no real op
            message["op"] = "explode"
            protocol.send_message(sock, message)
            response = protocol.recv_message(sock)
            assert response["ok"] is False and response["code"] == "unknown_op"
        finally:
            sock.close()

    @pytest.mark.parametrize("op", ["sync", "health", "gc"])
    def test_retired_ops_are_unknown(self, service, op):
        assert op not in protocol.OPS
        with pytest.raises(ValueError, match="unknown op"):
            protocol.request(op)
        sock = socket.create_connection(service.address, timeout=5)
        try:
            message = protocol.ok_response()
            message["op"] = op
            protocol.send_message(sock, message)
            response = protocol.recv_message(sock)
            assert response["ok"] is False and response["code"] == "unknown_op"
        finally:
            sock.close()

    def test_protocol_error_does_not_kill_the_daemon(self, service):
        sock = socket.create_connection(service.address, timeout=5)
        try:
            sock.sendall(struct.pack(">I", protocol.MAX_MESSAGE_BYTES + 5))
            response = protocol.recv_message(sock)
            assert response["code"] == "protocol_error"
        finally:
            sock.close()
        with ServiceClient(service.address) as client:
            assert client.ping()["ok"]
        assert service.stats.protocol_errors == 1


class TestVersioning:
    def test_protocol_version_mismatch_rejected_cleanly(self, service):
        sock = socket.create_connection(service.address, timeout=5)
        try:
            bad = {"op": "ping", "protocol": 999, "schema": 1}
            body = json.dumps(bad).encode()
            sock.sendall(struct.pack(">I", len(body)) + body)
            response = protocol.recv_message(sock)
            assert response["ok"] is False
            assert response["code"] == "version_mismatch"
        finally:
            sock.close()
        assert service.stats.version_rejections == 1
        # the daemon keeps serving current-version clients
        with ServiceClient(service.address) as client:
            assert client.ping()["ok"]

    def test_client_raises_service_error_on_version_mismatch(self, service, monkeypatch):
        # Only the client builds requests through protocol.request, so
        # patching it simulates a stale client against a current server.
        def stale_request(op, **fields):
            return {"op": op, "protocol": 999, "schema": 1, **fields}

        monkeypatch.setattr(protocol, "request", stale_request)
        with ServiceClient(service.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.ping()
            assert excinfo.value.code == "version_mismatch"

    def test_previous_release_stats_request_gets_version_mismatch(
        self, service, monkeypatch
    ):
        """Protocol 3 dropped the ``stats`` reply's ``telemetry`` key, which a
        protocol-2 ``query service`` reads unconditionally: such a peer gets
        the coded refusal instead of a reply it would fail on."""
        assert protocol.PROTOCOL_VERSION == 3
        with ServiceClient(service.address) as client:
            assert "telemetry" not in client.stats()
        current = protocol.request

        def previous_release_request(op, **fields):
            return {**current(op, **fields), "protocol": 2}

        monkeypatch.setattr(protocol, "request", previous_release_request)
        with ServiceClient(service.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.stats()
        assert excinfo.value.code == "version_mismatch"
        assert service.stats.version_rejections == 1


class TestCoalescing:
    def test_concurrent_tunes_of_one_key_search_once_bit_identical(self, tmp_path):
        """The acceptance criterion: N clients, one search, identical bytes."""
        with TuningService(tmp_path / "store") as svc:
            # Slow the search down so every client really is concurrent.
            import repro.service.server as server_module

            original = server_module.run_task
            started = threading.Event()

            def slow_run_task(task, session):
                started.set()
                time.sleep(0.4)
                return original(task, session)

            server_module.run_task = slow_run_task
            try:
                (key,) = _keys_for(TABLE1_LAYERS[:1])
                results = {}

                def tune(index):
                    with ServiceClient(svc.address, tune_timeout=30.0) as c:
                        results[index] = c.tune(key).to_json()

                leader = threading.Thread(target=tune, args=(0,))
                leader.start()
                assert started.wait(10.0)  # the search is now in flight
                rest = [threading.Thread(target=tune, args=(i,)) for i in range(1, 5)]
                for thread in rest:
                    thread.start()
                for thread in [leader] + rest:
                    thread.join(timeout=30)
            finally:
                server_module.run_task = original

            assert len(results) == 5
            blobs = {json.dumps(blob, sort_keys=True) for blob in results.values()}
            assert len(blobs) == 1  # bit-identical records for every waiter
            assert svc.session.searches_run == 1  # the key was searched once
            assert svc.stats.searches_led == 1
            assert svc.stats.coalesced_waiters == 4
            # ...and identical to a single-process local reference
            reference = _reference_records(TABLE1_LAYERS[:1])[key]
            assert blobs == {json.dumps(reference.to_json(), sort_keys=True)}

    def test_distinct_keys_search_concurrently_exactly_once_each(self, tmp_path):
        with TuningService(tmp_path / "store") as svc:
            layers = TABLE1_LAYERS[:4]
            keys = _keys_for(layers)
            reference = _reference_records(layers)
            results = {}

            def tune_all(index):
                with ServiceClient(svc.address, tune_timeout=30.0) as c:
                    results[index] = [c.tune(key).to_json() for key in keys]

            threads = [threading.Thread(target=tune_all, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert svc.session.searches_run == len(keys)
            expected = [reference[key].to_json() for key in keys]
            for records in results.values():
                assert records == expected

    def test_coalesced_waiter_timeout_is_not_untunable(self, tmp_path):
        """Regression: a waiter that gives up on a hung leader used to be
        answered ``untunable`` and counted in ``untunable_keys`` although
        the key is perfectly tunable.  It gets its own code now, and the
        client still declines to a local search."""
        import repro.service.server as server_module
        from repro.service import RemoteSession

        svc = TuningService(tmp_path / "store", tune_timeout=0.2)
        svc.start()
        original = server_module.run_task
        reached = threading.Event()
        release = threading.Event()

        def hang(task, session):
            reached.set()
            release.wait(30.0)
            return original(task, session)

        server_module.run_task = hang
        try:
            (key,) = _keys_for(TABLE1_LAYERS[:1])
            leader = threading.Thread(
                target=lambda: ServiceClient(svc.address, tune_timeout=60.0).tune(key)
            )
            leader.start()
            assert reached.wait(10.0)
            with ServiceClient(svc.address, tune_timeout=30.0) as waiter:
                with pytest.raises(ServiceError) as excinfo:
                    waiter.tune(key)
            assert excinfo.value.code == "tune_timeout"
            assert "timed out" in str(excinfo.value)
            assert svc.stats.untunable_keys == 0
            assert svc.stats.coalesced_waiters == 1
            # RemoteSession treats it as a decline: a local search follows.
            session = RemoteSession(svc.address, tune_timeout=30.0)
            UnitCpuRunner(session=session).conv2d_latency(TABLE1_LAYERS[0])
            assert session.server_declines == 1 and session.searches_run == 1
            assert session.online
            assert svc.stats.untunable_keys == 0
        finally:
            release.set()
            server_module.run_task = original
            leader.join(timeout=30.0)
            svc.stop()


class TestWarmAndSpeculation:
    def test_warm_tunes_a_table1_slice(self, client, service):
        response = client.warm("table1:5")
        assert response["tasks"] == 5
        assert response["tuned"] == 5 and response["hits"] == 0
        assert service.session.searches_run == 5
        again = client.warm("table1:5")
        assert again["tuned"] == 0 and again["hits"] == 5

    def test_warm_model_sweep(self, client, service):
        response = client.warm("resnet-18")
        assert response["tasks"] > 0
        assert response["tuned"] == response["tasks"]

    @pytest.mark.parametrize("sweep", ["table1[:3]", "table1:x", "table1:0", "no-such-model"])
    def test_bad_sweep_names_are_reported_on_both_ops(self, client, sweep):
        """``expand_sweep`` and the wire ``warm`` both name the bad sweep."""
        with pytest.raises(ValueError, match="bad sweep") as excinfo:
            expand_sweep(sweep)
        assert repr(sweep) in str(excinfo.value)
        with pytest.raises(ServiceError) as warm_error:
            client.warm(sweep)
        assert warm_error.value.code == "bad_sweep"
        assert repr(sweep) in str(warm_error.value)

    def test_expand_sweep_table1_slice_matches_layers(self):
        tasks = expand_sweep("table1:3")
        assert [t.params.name for t in tasks] == [p.name for p in TABLE1_LAYERS[:3]]
        assert len(expand_sweep("table1")) == len(TABLE1_LAYERS)
        assert len(expand_sweep("table1:99")) == len(TABLE1_LAYERS)

    def test_expand_sweep_is_the_x86_compile(self):
        """A sweep warms exactly the records an x86 ``compile_model`` of the
        same layers looks up."""
        from repro.models.zoo import get_model
        from repro.rewriter import tasks_from_graph

        expected = tasks_from_graph(get_model("mobilenet-v2", fresh=True), target="x86")
        assert [t.key() for t in expand_sweep("mobilenet-v2")] == [t.key() for t in expected]
        assert [t.key() for t in expand_sweep("table1:2")] == _keys_for(TABLE1_LAYERS[:2])


class TestNoWorkOfItsOwn:
    """The daemon does work only when a request asks for it."""

    def test_the_only_thread_a_started_service_owns_is_its_accept_loop(self, tmp_path):
        before = set(threading.enumerate())
        with TuningService(tmp_path / "store"):
            started = [t.name for t in threading.enumerate() if t not in before]
            assert started == ["tuning-service-accept"]

    @pytest.mark.parametrize("sweep", ["table1:3", "no-such-model"])
    def test_a_tune_request_carrying_a_sweep_is_served_normally(self, tmp_path, sweep):
        with TuningService(tmp_path / "store") as svc:
            with ServiceClient(svc.address, tune_timeout=30.0) as client:
                (key,) = _keys_for(TABLE1_LAYERS[:1])
                response = client.request("tune", key=key.to_json(), sweep=sweep)
                assert set(response) == {"ok", "protocol", "schema", "record", "how"}
                assert response["record"]["key"] == key.to_json()
                assert response["how"] == "searched"
        assert svc.session.searches_run == 1  # nothing else was tuned, even after stop

    def test_warm_always_answers_tasks_tuned_and_hits(self, tmp_path):
        """Even when a request asks for the old queued warm (the field a
        previous release's client sent), the sweep is tuned before the
        answer."""
        with TuningService(tmp_path / "store") as svc:
            with ServiceClient(svc.address, tune_timeout=30.0) as client:
                first = client.request("warm", sweep="table1:2", background=True)
                assert svc.session.searches_run == 2
                again = client.warm("table1:2")
        for response, tuned in ((first, 2), (again, 0)):
            body = {k: v for k, v in response.items() if k not in ("ok", "protocol", "schema")}
            assert body == {"tasks": 2, "tuned": tuned, "hits": 2 - tuned}


class TestLifecycle:
    def test_shutdown_rpc_stops_the_daemon(self, tmp_path):
        svc = TuningService(tmp_path / "store").start()
        with ServiceClient(svc.address) as client:
            assert client.shutdown()["stopping"] is True
        deadline = time.time() + 10
        while time.time() < deadline and svc._server is not None:
            time.sleep(0.02)
        assert svc._server is None

    def test_shutdown_reply_is_sent_before_the_daemon_stops(self, tmp_path):
        """Regression: the stop began while the reply was still unsent, so
        a ``serve`` process could exit first and the client saw a reset."""
        from repro.testing.faults import FaultPlan

        svc = TuningService(tmp_path / "store").start()
        stopped_before_reply = []

        def late_reply(injection):
            if injection.context["response"].get("stopping"):
                time.sleep(0.3)  # ample time for a concurrent stop to begin
                stopped_before_reply.append(svc._stop.is_set())

        try:
            with FaultPlan() as plan, ServiceClient(svc.address) as client:
                plan.on("server.respond", late_reply, times=None)
                assert client.shutdown()["stopping"] is True
            assert stopped_before_reply == [False]
            deadline = time.time() + 10
            while time.time() < deadline and svc._server is not None:
                time.sleep(0.02)
            assert svc._server is None
        finally:
            svc.stop()

    def test_shutdown_wakes_coalesced_tune_waiters(self, tmp_path):
        """The satellite scenario: clients parked on an in-flight search
        must get a clean ``shutting_down`` answer the moment the daemon
        stops — not hang until their tune timeout."""
        import repro.service.server as server_module
        from repro.service import ServiceUnavailable

        svc = TuningService(tmp_path / "store").start()
        original = server_module.run_task
        reached = threading.Event()
        release = threading.Event()

        def hang(task, session):
            reached.set()
            release.wait(30.0)
            return original(task, session)

        server_module.run_task = hang
        try:
            (key,) = _keys_for(TABLE1_LAYERS[:1])
            outcomes = {}

            def tune(name):
                client = ServiceClient(
                    svc.address, retries=0, timeout=5.0, tune_timeout=60.0
                )
                try:
                    client.tune(key)
                    outcomes[name] = "ok"
                except (ServiceError, ServiceUnavailable, OSError) as exc:
                    outcomes[name] = exc
                finally:
                    client.close()

            leader = threading.Thread(target=tune, args=("leader",))
            leader.start()
            assert reached.wait(10.0)  # the leader's search is in flight
            waiter = threading.Thread(target=tune, args=("waiter",))
            waiter.start()
            deadline = time.time() + 10
            while time.time() < deadline and svc.stats.coalesced_waiters < 1:
                time.sleep(0.02)
            assert svc.stats.coalesced_waiters == 1  # parked on the entry

            start = time.monotonic()
            stopper = threading.Thread(target=svc.stop)
            stopper.start()
            waiter.join(timeout=10.0)
            woken_after = time.monotonic() - start
            assert not waiter.is_alive()
            assert woken_after < 5.0  # woken by stop(), not by its timeout
            # A shutting_down answer is an outage, not a declined key.
            assert isinstance(outcomes["waiter"], ServiceUnavailable)
            release.set()
            leader.join(timeout=10.0)
            stopper.join(timeout=20.0)
            assert not stopper.is_alive()
        finally:
            release.set()
            server_module.run_task = original
            svc.stop()


class TestReviewHardening:
    """Regressions for the staleness gate and the daemon lifecycle."""

    def test_stale_record_from_server_is_rejected_client_side(self, service, monkeypatch):
        (key,) = _keys_for(TABLE1_LAYERS[:1])
        with ServiceClient(service.address, tune_timeout=30.0) as client:
            client.tune(key)
            import repro.rewriter.records as records_module

            monkeypatch.setattr(
                records_module, "record_staleness", lambda data: "cost model differs"
            )
            with pytest.raises(ServiceError) as excinfo:
                client.get(key)
            assert excinfo.value.code == "stale_record"

    def test_remote_session_goes_permanently_offline_on_version_mismatch(
        self, service, monkeypatch
    ):
        from repro.service.client import RemoteSession

        def stale_request(op, **fields):
            return {"op": op, "protocol": 999, "schema": 1, **fields}

        monkeypatch.setattr(protocol, "request", stale_request)
        session = RemoteSession(service.address, fallback_store=None)
        with pytest.warns(RuntimeWarning, match="version-incompatible"):
            runner = UnitCpuRunner(session=session)
            runner.conv2d_latency(TABLE1_LAYERS[0])
        assert session.incompatible is not None
        assert not session.online  # permanently: the fallback tier is active
        assert session.searches_run == 1  # tuned locally, loudly

    def test_stop_is_idempotent_and_the_record_is_on_disk(self, tmp_path):
        svc = TuningService(tmp_path / "store").start()
        with ServiceClient(svc.address, tune_timeout=30.0) as client:
            (key,) = _keys_for(TABLE1_LAYERS[:1])
            record = client.tune(key)
        svc.stop()
        svc.stop()  # second call must be a harmless no-op
        fresh = ShardedTuningStore(tmp_path / "store")
        assert fresh.get(key).to_json() == record.to_json()


class _CountingLock:
    """A lock that counts how often it is entered."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.entered = 0

    def __enter__(self):
        self._lock.acquire()
        self.entered += 1
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()


class TestLockedStore:
    def test_attributes_are_read_under_the_lock(self):
        """``stats`` is a property that sums the counters: computing it while
        a handler thread changes them could show ``reads != hits +
        misses``, so the wrapper must evaluate it under its lock."""
        wrapper = None

        class FakeStore:
            @property
            def stats(self):
                assert wrapper._lock.locked(), "stats evaluated outside the lock"
                return "snapshot"

            def get(self, key):
                assert wrapper._lock.locked(), "get called outside the lock"
                return key

        wrapper = _LockedStore(FakeStore())
        assert wrapper.stats == "snapshot"
        assert wrapper.get("k") == "k"
        assert not wrapper._lock.locked()

    def test_stats_reply_is_consistent_under_concurrent_gets(self, client, service):
        keys = _keys_for(TABLE1_LAYERS[:2])
        for key in keys:
            client.tune(key)
        missing = dataclasses.replace(keys[1], space="nope")
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                service.store.get(keys[0])
                service.store.get(missing)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                stats = service.store.stats
                assert stats.reads == stats.hits + stats.misses
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert service.store.stats.hits > 0 and service.store.stats.misses > 0

    def test_memory_hits_do_not_take_the_store_lock(self, client, service):
        (key,) = _keys_for(TABLE1_LAYERS[:1])
        client.tune(key)  # now in the daemon's memory tier
        counting = service.store._lock = _CountingLock()
        assert client.get(key) is not None
        assert client.tune(key) is not None
        assert counting.entered == 0
        assert client.get(_keys_for(TABLE1_LAYERS[1:2])[0]) is None  # a miss reads the store
        assert counting.entered >= 1


class TestStoreWithGcSidecars:
    def test_daemon_serves_it_and_answers_gc_with_unknown_op(self, tmp_path):
        latest, sidecars, _ = store_with_gc_sidecars(tmp_path / "store")
        before = {path: open(path, "rb").read() for path in sidecars}
        with TuningService(tmp_path / "store") as svc:
            with ServiceClient(svc.address) as client:
                for key, record in latest.items():
                    assert client.get(key).to_json() == record.to_json()
                    assert client.get(key).to_json() == record.to_json()  # memory hit
            sock = socket.create_connection(svc.address, timeout=5)
            try:
                message = protocol.ok_response()  # an old client's gc request
                message.update(op="gc", max_records=1)
                protocol.send_message(sock, message)
                response = protocol.recv_message(sock)
            finally:
                sock.close()
            assert response["ok"] is False and response["code"] == "unknown_op"
        assert {path: open(path, "rb").read() for path in sidecars} == before
        assert len(ShardedTuningStore(tmp_path / "store")) == len(latest)


class TestShardCount:
    def test_a_new_store_gets_eight_shards(self, tmp_path):
        svc = TuningService(tmp_path / "store")
        assert svc.store.num_shards == 8

    def test_the_daemon_adopts_the_stored_shard_count(self, tmp_path):
        ShardedTuningStore(tmp_path / "store", shards=2)
        with TuningService(tmp_path / "store") as svc:
            with ServiceClient(svc.address, tune_timeout=30.0) as client:
                client.warm("table1:3")
            assert svc.store.num_shards == 2
        with open(tmp_path / "store" / "store.json", encoding="utf-8") as handle:
            assert json.load(handle)["shards"] == 2

    def test_shards_is_not_an_option(self, tmp_path):
        with pytest.raises(TypeError):
            TuningService(tmp_path / "store", shards=4)
        assert not (tmp_path / "store").exists()
