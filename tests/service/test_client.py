"""Tests for RemoteSession: read-through, drop-in compatibility, failure paths."""

import time

import pytest

from repro.core.experiments import figure10_cpu_ablation
from repro.core.pipeline import UnitCpuRunner, compile_model
from repro.models.zoo import get_model
from repro.rewriter import ShardedTuningStore, TuningSession
from repro.service import (
    RemoteSession,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    TuningService,
)
from repro.workloads.table1 import TABLE1_LAYERS


@pytest.fixture
def service(tmp_path):
    with TuningService(tmp_path / "store") as svc:
        yield svc


def _tune_layers(session, layers):
    runner = UnitCpuRunner(session=session)
    for params in layers:
        runner.conv2d_latency(params)


def _reference(layers):
    session = TuningSession()
    _tune_layers(session, layers)
    return {record.key: record for record in session.cache.records()}


class TestReadThrough:
    def test_server_runs_the_searches(self, service):
        session = RemoteSession(service.address)
        _tune_layers(session, TABLE1_LAYERS[:3])
        assert session.server_tunes == 3
        assert session.searches_run == 0  # the client profiled nothing
        assert service.session.searches_run == 3

    def test_second_client_sees_first_clients_records(self, service):
        _tune_layers(RemoteSession(service.address), TABLE1_LAYERS[:3])
        second = RemoteSession(service.address)
        _tune_layers(second, TABLE1_LAYERS[:3])
        assert second.server_hits + second.server_tunes == 3
        assert service.session.searches_run == 3  # nothing re-searched

    def test_memory_tier_short_circuits_the_network(self, service):
        session = RemoteSession(service.address)
        _tune_layers(session, TABLE1_LAYERS[:2])
        sent = session.client.requests_sent
        _tune_layers(session, TABLE1_LAYERS[:2])  # all memory hits
        assert session.client.requests_sent == sent

    def test_records_bit_identical_to_local_tuning(self, service):
        session = RemoteSession(service.address)
        _tune_layers(session, TABLE1_LAYERS[:4])
        reference = _reference(TABLE1_LAYERS[:4])
        assert len(reference) == 4
        for key, expected in reference.items():
            got = session.cache.lookup(key)
            assert got is not None
            assert got.to_json() == expected.to_json()

    def test_memoize_flows_through_the_server(self, service):
        from repro.hwsim import CostBreakdown
        from repro.rewriter import TuningKey

        key = TuningKey(
            kind="conv2d",
            params=(("index", 1),),
            intrinsic="",
            machine="cascade-lake",
            space="library:onednn",
        )
        first = RemoteSession(service.address)
        cost = first.memoize(key, lambda: CostBreakdown(seconds=3.25))
        assert cost.seconds == 3.25
        second = RemoteSession(service.address)
        served = second.memoize(key, lambda: CostBreakdown(seconds=999.0))
        assert served.seconds == 3.25  # computed once fleet-wide
        assert second.server_hits == 1

    def test_declined_key_is_searched_locally_and_published(self, service):
        """A custom candidate list changes the space digest, so the server
        cannot rebuild the search: it declines, the client searches locally
        and still publishes the record for its siblings."""
        from repro.rewriter import cpu_tuning_candidates

        custom = cpu_tuning_candidates(max_pairs=4)
        session = RemoteSession(service.address)
        UnitCpuRunner(candidates=custom, session=session).conv2d_latency(TABLE1_LAYERS[0])
        assert session.server_declines == 1 and session.server_tunes == 0
        assert session.searches_run == 1
        sibling = RemoteSession(service.address)
        UnitCpuRunner(candidates=custom, session=sibling).conv2d_latency(TABLE1_LAYERS[0])
        assert sibling.server_hits == 1 and sibling.searches_run == 0


class TestDropIn:
    def test_compile_model_with_remote_session(self, service):
        local = compile_model(get_model("resnet-18", fresh=True))
        remote = compile_model(
            get_model("resnet-18", fresh=True), session=RemoteSession(service.address)
        )
        assert remote.latency_ms == local.latency_ms
        assert service.session.searches_run > 0

    def test_figure_driver_against_the_daemon(self, service):
        local_rows = figure10_cpu_ablation(layers=TABLE1_LAYERS[:2])
        remote_rows = figure10_cpu_ablation(
            layers=TABLE1_LAYERS[:2], session=RemoteSession(service.address)
        )
        assert remote_rows == local_rows


class TestFailurePaths:
    def test_unreachable_server_falls_back_to_local_store(self, tmp_path):
        fallback = tmp_path / "local"
        session = RemoteSession(
            ("127.0.0.1", 1),  # nothing listens on port 1
            retries=0,
            timeout=0.2,
            fallback_store=fallback,
            offline_cooldown_s=60.0,
        )
        _tune_layers(session, TABLE1_LAYERS[:2])
        assert session.offline_errors >= 1
        assert session.searches_run == 2  # tuned locally
        assert not session.online
        # the winners landed in the local fallback store, uncorrupted
        store = ShardedTuningStore(fallback)
        assert len(store.load()) == 2
        assert store.stats.corrupt_lines == 0
        # a fresh offline session reads them back without tuning
        warm = RemoteSession(
            ("127.0.0.1", 1),
            retries=0,
            timeout=0.2,
            fallback_store=fallback,
            offline_cooldown_s=60.0,
        )
        warm.force_offline()
        _tune_layers(warm, TABLE1_LAYERS[:2])
        assert warm.searches_run == 0 and warm.local_fallbacks == 2

    def test_server_killed_mid_tune_falls_back_and_restarts_clean(self, tmp_path):
        """The satellite scenario: daemon dies mid-search; the client keeps
        working from its local store and the daemon restarts uncorrupted."""
        import repro.service.server as server_module

        store_root = tmp_path / "store"
        svc = TuningService(store_root).start()
        original = server_module.run_task
        reached = __import__("threading").Event()

        def hang_then_die(task, session):
            reached.set()
            time.sleep(30)  # the daemon will be torn down under us
            return original(task, session)

        server_module.run_task = hang_then_die
        try:
            session = RemoteSession(
                svc.address,
                retries=0,
                timeout=1.0,
                tune_timeout=1.0,  # give up on the hung server quickly
                fallback_store=tmp_path / "local",
                offline_cooldown_s=120.0,
            )
            runner = UnitCpuRunner(session=session)
            runner.conv2d_latency(TABLE1_LAYERS[0])  # server hangs; client recovers
            assert reached.wait(5.0)
            assert session.searches_run == 1  # searched locally after timeout
            assert session.offline_errors >= 1
            record = session.cache.lookup(next(iter(_reference(TABLE1_LAYERS[:1]))))
            assert record is not None
        finally:
            server_module.run_task = original
            svc.stop()  # kill the daemon (its search thread is still hung)

        # The client's record went to the local fallback store.
        fallback = ShardedTuningStore(tmp_path / "local")
        assert len(fallback.load()) == 1

        # A restarted daemon over the same store directory comes up clean.
        with TuningService(store_root) as fresh:
            with ServiceClient(fresh.address) as client:
                stats = client.stats()
                assert stats["store"]["corrupt_lines"] == 0
                assert stats["store"]["stale_records"] == 0
                reference = _reference(TABLE1_LAYERS[:1])
                for key, expected in reference.items():
                    assert client.tune(key).to_json() == expected.to_json()

    def test_session_reconnects_after_cooldown(self, tmp_path):
        with TuningService(tmp_path / "store") as svc:
            session = RemoteSession(
                svc.address, retries=0, timeout=2.0, offline_cooldown_s=0.05
            )
            session._mark_down()  # simulate a transient outage
            assert not session.online
            time.sleep(0.06)
            assert session.online
            _tune_layers(session, TABLE1_LAYERS[:1])
            assert session.server_tunes == 1

    def test_force_offline_pins_the_session_to_local_tiers(self, service, tmp_path):
        session = RemoteSession(
            service.address, fallback_store=tmp_path / "local"
        )
        session.force_offline()
        assert not session.online
        _tune_layers(session, TABLE1_LAYERS[:1])
        assert session.searches_run == 1
        assert session.client.requests_sent == 0  # never touched the wire
        assert service.session.searches_run == 0

    @pytest.mark.parametrize(
        "error", [ServiceError("record rejected: stale", "stale"), ServiceUnavailable("down")]
    )
    def test_failed_put_writes_the_fallback_store(self, service, tmp_path, monkeypatch, error):
        session = RemoteSession(service.address, fallback_store=tmp_path / "local")

        def decline(key):
            raise ServiceError("declined for the test", "untunable")

        def fail(record):
            raise error

        monkeypatch.setattr(session.client, "tune", decline)
        monkeypatch.setattr(session.client, "put", fail)
        _tune_layers(session, TABLE1_LAYERS[:1])
        assert session.searches_run == 1
        assert len(ShardedTuningStore(tmp_path / "local").load()) == 1
        assert session.online is isinstance(error, ServiceError)  # an outage goes offline

    def test_publish_falls_back_when_server_refuses(self, service, monkeypatch):
        session = RemoteSession(service.address)

        def decline(key):
            raise ServiceError("declined for the test", "untunable")

        # Have the server-side tune decline so the client searches locally...
        monkeypatch.setattr(session.client, "tune", decline)
        _tune_layers(session, TABLE1_LAYERS[:1])
        assert session.server_declines == 1
        assert session.searches_run == 1
        # ...and the locally-found record was still published to the server.
        other = RemoteSession(service.address)
        _tune_layers(other, TABLE1_LAYERS[:1])
        assert other.server_hits == 1 and other.searches_run == 0


class TestAddressesAndPolicy:
    def test_string_address_accepted(self, service):
        host, port = service.address
        session = RemoteSession(f"{host}:{port}")
        _tune_layers(session, TABLE1_LAYERS[:1])
        assert session.server_tunes == 1

    @pytest.mark.parametrize(
        "address, expected",
        [
            (("10.0.0.1", 9461), ("10.0.0.1", 9461)),
            (["10.0.0.1", "9461"], ("10.0.0.1", 9461)),
            ("10.0.0.1:9461", ("10.0.0.1", 9461)),
            (":9461", ("127.0.0.1", 9461)),
        ],
    )
    def test_normalize_addresses_forms(self, address, expected):
        from repro.service import normalize_addresses

        assert normalize_addresses(address) == expected

    @pytest.mark.parametrize(
        "address",
        [
            "no-port-here",
            [],
            ("10.0.0.1",),
            ["10.0.0.1:9461", "10.0.0.2:9461"],
            [("10.0.0.1", 9461), ("10.0.0.2", 9462)],
            9461,
        ],
    )
    def test_anything_but_one_endpoint_is_rejected(self, address):
        from repro.service import normalize_addresses

        with pytest.raises(ValueError):
            normalize_addresses(address)
        with pytest.raises(ValueError):
            ServiceClient(address)

    def test_retries_set_the_attempt_count(self):
        attempts = []

        class CountingClient(ServiceClient):
            def _connect(self):
                attempts.append(1)
                return super()._connect()

        client = CountingClient(("127.0.0.1", 1), retries=3, timeout=0.2)
        assert client.retries == 3
        with pytest.raises(ServiceUnavailable, match="after 4 attempts"):
            client.ping()
        assert len(attempts) == 4
        assert ServiceClient(("127.0.0.1", 1)).retries == 2  # the default

    def test_remote_session_summary_names_endpoint_and_state(self, service):
        session = RemoteSession(service.address)
        _tune_layers(session, TABLE1_LAYERS[:1])
        summary = session.summary()
        assert f"{service.address[0]}:{service.address[1]} online" in summary
        assert "1 server tunes" in summary
        session.force_offline()
        assert " OFFLINE]" in session.summary()


class TestOfflineWindow:
    """``RemoteSession`` stays local until one timestamp passes."""

    def test_outage_sets_the_cooldown_and_success_clears_it(self, service):
        session = RemoteSession(service.address, offline_cooldown_s=30.0)
        before = time.monotonic()
        session._mark_down()
        assert before + 30.0 <= session._offline_until <= time.monotonic() + 30.0
        assert not session.online and session.offline_errors == 1
        session._mark_up()
        assert session._offline_until == 0.0 and session.online

    def test_a_real_outage_takes_the_session_offline(self, tmp_path):
        session = RemoteSession(
            ("127.0.0.1", 1), retries=0, timeout=0.2, offline_cooldown_s=30.0
        )
        assert session.online
        _tune_layers(session, TABLE1_LAYERS[:1])
        assert not session.online
        assert session.offline_errors == 1  # the second tier never asked
        assert session.searches_run == 1

    def test_force_offline_never_expires(self, service):
        session = RemoteSession(service.address, offline_cooldown_s=0.0)
        session.force_offline()
        assert session._offline_until == float("inf")
        assert not session.online

    def test_session_comes_back_after_a_restart(self, tmp_path):
        """Kill the daemon, restart it over the same store and port: after
        the cooldown the same session is served the warm records."""
        svc = TuningService(tmp_path / "store").start()
        host, port = svc.address
        _tune_layers(RemoteSession((host, port)), TABLE1_LAYERS[:2])
        svc.kill()
        session = RemoteSession(
            (host, port),
            retries=0,
            timeout=1.0,
            offline_cooldown_s=0.05,
            fallback_store=tmp_path / "local",
        )
        _tune_layers(session, TABLE1_LAYERS[2:3])  # the daemon is down
        assert session.offline_errors >= 1 and session.searches_run == 1
        with TuningService(
            tmp_path / "store", host=host, port=port
        ) as fresh:
            time.sleep(0.06)
            assert session.online
            _tune_layers(session, TABLE1_LAYERS[:2])
            assert session.server_hits == 2
            assert fresh.session.searches_run == 0  # served, not re-searched
            for key, expected in _reference(TABLE1_LAYERS[:2]).items():
                assert session.cache.lookup(key).to_json() == expected.to_json()
