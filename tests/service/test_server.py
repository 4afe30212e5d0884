"""Tests for the tuning daemon: coalescing, speculation, GC, versioning."""

import json
import socket
import struct
import threading
import time

import pytest

from repro.core.pipeline import UnitCpuRunner
from repro.rewriter import ShardedTuningStore, TuningKey, TuningSession, TuningTask
from repro.service import (
    ServiceClient,
    ServiceError,
    TuningService,
    protocol,
)
from repro.service.server import expand_sweep
from repro.workloads.table1 import TABLE1_LAYERS


@pytest.fixture
def service(tmp_path):
    with TuningService(tmp_path / "store", speculative=False) as svc:
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
        with TuningService(tmp_path / "store", speculative=False) as svc:
            with ServiceClient(svc.address) as client:
                client.put(record)
        with TuningService(tmp_path / "store", speculative=False) as svc:
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


class TestCoalescing:
    def test_concurrent_tunes_of_one_key_search_once_bit_identical(self, tmp_path):
        """The acceptance criterion: N clients, one search, identical bytes."""
        with TuningService(tmp_path / "store", speculative=False) as svc:
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
        with TuningService(tmp_path / "store", speculative=False) as svc:
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


class TestGc:
    def test_gc_evicts_store_and_memory(self, client, service):
        keys = _keys_for(TABLE1_LAYERS[:4])
        for key in keys:
            client.tune(key)
        report = client.gc(max_records=2)
        assert report["evicted"] == 2 and report["kept"] == 2
        # the daemon's memory tier forgot the evicted keys too: re-tuning
        # an evicted key is a fresh search, not a stale memory hit
        searches = service.session.searches_run
        still_cached = sum(
            1 for key in keys if service.session.cache.lookup(key) is not None
        )
        assert still_cached == 2
        evicted_key = next(
            key for key in keys if service.session.cache.lookup(key) is None
        )
        client.tune(evicted_key)
        assert service.session.searches_run == searches + 1

    def test_gc_by_idle_via_rpc(self, client):
        (key,) = _keys_for(TABLE1_LAYERS[:1])
        client.tune(key)
        report = client.gc(max_idle=0.0)  # everything is instantly too idle
        assert report["evicted"] == 1


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
    def test_bad_sweep_names_are_reported_on_both_ops(self, tmp_path, sweep):
        with pytest.raises(ValueError, match="bad sweep") as excinfo:
            expand_sweep(sweep, like=None)
        assert repr(sweep) in str(excinfo.value)
        with TuningService(tmp_path / "store", speculative=True) as svc:
            with ServiceClient(svc.address) as client:
                for background in (False, True):
                    with pytest.raises(ServiceError) as warm_error:
                        client.warm(sweep, background=background)
                    assert warm_error.value.code == "bad_sweep"
                    assert repr(sweep) in str(warm_error.value)
                # On a tune request the sweep is only a hint: the record is
                # served, the bad hint is reported, nothing is queued.
                (key,) = _keys_for(TABLE1_LAYERS[:1])
                response = client.request("tune", key=key.to_json(), sweep=sweep)
                assert response["record"]["key"] == key.to_json()
                assert repr(sweep) in response["sweep_error"]
                assert svc.stats.speculative_queued == 0

    def test_expand_sweep_table1_slice_matches_layers(self):
        tasks = expand_sweep("table1:3", like=None)
        assert [t.params.name for t in tasks] == [p.name for p in TABLE1_LAYERS[:3]]
        assert len(expand_sweep("table1", like=None)) == len(TABLE1_LAYERS)
        assert len(expand_sweep("table1:99", like=None)) == len(TABLE1_LAYERS)

    @pytest.mark.parametrize("sweep", ["table1:2", "resnet-18"])
    def test_expand_sweep_honours_the_requesters_intrinsic_and_mode(self, sweep):
        """Regression: a model-zoo sweep used to recover only the target from
        ``like`` and expand to vpdpbusd / full tasks nobody would ask for."""
        from repro.rewriter import task_from_key

        like = TuningTask(
            "conv2d", TABLE1_LAYERS[0], intrinsic="x86.avx512.vpdpwssd", tuning="first_pair"
        )
        # `like` arrives as the server rebuilds it from the requested key.
        like = task_from_key(like.key())
        assert (like.intrinsic, like.tuning) == ("x86.avx512.vpdpwssd", "first_pair")
        tasks = expand_sweep(sweep, like)
        assert tasks
        for task in tasks:
            assert (task.runner, task.machine, task.intrinsic, task.tuning) == (
                like.runner,
                like.machine,
                like.intrinsic,
                like.tuning,
            )
        plain = expand_sweep(sweep, like=None)
        assert [(t.kind, t.params) for t in tasks] == [(t.kind, t.params) for t in plain]

    def test_expand_sweep_model_uses_the_requesters_target_passes(self):
        """The requester's machine picks the target, hence the graph passes:
        a V100 client's zoo sweep is ``tasks_from_graph(target="cuda")``."""
        from repro.models.zoo import get_model
        from repro.rewriter import task_from_key, tasks_from_graph

        for target in ("x86", "arm", "cuda"):
            expected = tasks_from_graph(get_model("mobilenet-v2", fresh=True), target=target)
            like = task_from_key(expected[0].key())
            swept = expand_sweep("mobilenet-v2", like)
            assert [t.key() for t in swept] == [t.key() for t in expected]

    def test_speculative_queue_pre_tunes_sweep_during_idle(self, tmp_path):
        with TuningService(tmp_path / "store", speculative=True) as svc:
            with ServiceClient(svc.address, tune_timeout=30.0) as client:
                (key,) = _keys_for(TABLE1_LAYERS[:1])
                client.tune(key, sweep="table1:6")
                deadline = time.time() + 30
                while time.time() < deadline and svc.session.searches_run < 6:
                    time.sleep(0.02)
                assert svc.session.searches_run == 6
                assert svc.stats.speculative_queued == 6
                # layer 1 was already tuned by the foreground request
                assert svc.stats.speculative_skipped >= 1
                assert svc.stats.speculative_tuned == 5
                # a client now sweeping those layers gets pure hits
                searches = svc.session.searches_run
                for other in _keys_for(TABLE1_LAYERS[:6]):
                    client.tune(other)
                assert svc.session.searches_run == searches


class TestLifecycle:
    def test_shutdown_rpc_stops_the_daemon(self, tmp_path):
        svc = TuningService(tmp_path / "store", speculative=False).start()
        with ServiceClient(svc.address) as client:
            assert client.shutdown()["stopping"] is True
        deadline = time.time() + 10
        while time.time() < deadline and svc._server is not None:
            time.sleep(0.02)
        assert svc._server is None

    def test_shutdown_wakes_coalesced_tune_waiters(self, tmp_path):
        """The satellite scenario: clients parked on an in-flight search
        must get a clean ``shutting_down`` answer the moment the daemon
        stops — not hang until their tune timeout."""
        import repro.service.server as server_module
        from repro.service import ServiceUnavailable

        svc = TuningService(tmp_path / "store", speculative=False).start()
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
            # A single-endpoint client maps shutting_down to "endpoint
            # down" and exhausts its (zero) retries.
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
    """Regressions for the GC clock, staleness gate and dedup lifecycle."""

    def test_memory_tier_hits_advance_the_gc_clock(self, client, service):
        (key,) = _keys_for(TABLE1_LAYERS[:1])
        client.tune(key)
        first = service.store.last_served(key)
        assert first is not None
        touches = service.store.stats.touches
        client.get(key)  # served from the daemon's memory cache
        client.tune(key)  # a "hit", also from memory
        assert service.store.stats.touches >= touches + 2
        assert service.store.last_served(key) >= first

    def test_hot_memory_resident_record_survives_idle_gc(self, client, service):
        keys = _keys_for(TABLE1_LAYERS[:2])
        for key in keys:
            client.tune(key)
        time.sleep(0.3)  # both records now look 0.3 s idle...
        client.get(keys[0])  # ...but the first is re-served from daemon memory
        report = service.store.evict(max_idle=0.15, now=time.time())
        assert report["evicted"] == 1  # the cold key, not the hot one
        (evicted_key,) = report["evicted_keys"]
        assert evicted_key == keys[1]

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

    def test_speculative_dedup_releases_after_processing(self, tmp_path):
        with TuningService(tmp_path / "store", speculative=True) as svc:
            with ServiceClient(svc.address, tune_timeout=30.0) as client:
                client.warm("table1:2", background=True)
                deadline = time.time() + 30
                while time.time() < deadline and svc.session.searches_run < 2:
                    time.sleep(0.02)
                assert svc.session.searches_run == 2
                client.gc(max_idle=0.0)  # evict everything, memory included
                # a re-warm must re-enqueue (the dedup set released its slots)
                again = client.warm("table1:2", background=True)
                assert again["queued"] == 2
                deadline = time.time() + 30
                while time.time() < deadline and svc.session.searches_run < 4:
                    time.sleep(0.02)
                assert svc.session.searches_run == 4

    def test_stop_is_idempotent_and_flushes(self, tmp_path):
        svc = TuningService(tmp_path / "store", speculative=False).start()
        with ServiceClient(svc.address, tune_timeout=30.0) as client:
            (key,) = _keys_for(TABLE1_LAYERS[:1])
            client.tune(key)
        svc.stop()
        svc.stop()  # second call must be a harmless no-op
        fresh = ShardedTuningStore(tmp_path / "store")
        assert fresh.last_served(key) is not None  # touches reached disk
