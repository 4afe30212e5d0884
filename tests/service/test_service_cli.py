"""Tests for ``python -m repro.service``: every admin command's body, its
exit code and the JSON it prints."""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.rewriter import ShardedTuningStore
from repro.service import ServiceClient, TuningService, protocol
from repro.service.__main__ import build_parser, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")


@pytest.fixture
def service(tmp_path):
    with TuningService(tmp_path / "store") as svc:
        yield svc


def _run(capsys, *argv):
    """``main(argv)`` -> (exit code, parsed JSON stdout or None, stderr)."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, (json.loads(out) if out.strip() else None), err


def _endpoint(service):
    host, port = service.address
    return ["--host", host, "--port", str(port)]


class TestAgainstADaemon:
    def test_ping(self, service, capsys):
        code, response, _ = _run(capsys, "ping", *_endpoint(service))
        assert code == 0
        assert response["server"] == "tuning-service"
        assert "ok" not in response and "protocol" not in response  # envelope stripped

    def test_status(self, service, capsys):
        code, response, _ = _run(capsys, "status", *_endpoint(service))
        assert code == 0
        assert response["service"]["requests"] == {"stats": 1}
        assert response["inflight"] == 0 and "store" in response

    def test_warm_twice(self, service, capsys):
        code, response, _ = _run(capsys, "warm", "--sweep", "table1:2", *_endpoint(service))
        assert code == 0
        assert response == {"tasks": 2, "tuned": 2, "hits": 0}
        code, response, _ = _run(capsys, "warm", "--sweep", "table1:2", *_endpoint(service))
        assert code == 0
        assert response == {"tasks": 2, "tuned": 0, "hits": 2}
        assert len(service.store.load()) == 2

    def test_server_error_exits_1_with_its_code(self, service, capsys):
        code, response, err = _run(capsys, "warm", "--sweep", "nope", *_endpoint(service))
        assert code == 1 and response is None
        assert "[bad_sweep]" in err

    def test_shutdown(self, service, capsys):
        code, response, _ = _run(capsys, "shutdown", *_endpoint(service))
        assert code == 0
        assert response == {"stopping": True}
        deadline = time.time() + 10
        while time.time() < deadline and service._server is not None:
            time.sleep(0.02)
        assert service._server is None


@pytest.mark.parametrize(
    "argv",
    [["status"], ["ping"], ["shutdown"], ["warm", "--sweep", "table1:1"]],
)
def test_unreachable_daemon_exits_1(capsys, argv):
    code, response, err = _run(capsys, *argv, "--port", "1")
    assert code == 1 and response is None
    assert "unreachable" in err


class TestFsck:
    def _store(self, root):
        store = ShardedTuningStore(root, shards=2)
        with TuningService(root) as svc:
            with ServiceClient(svc.address) as client:
                client.warm("table1:2")
        return store

    def test_clean_store(self, tmp_path, capsys):
        self._store(tmp_path / "s")
        for extra in ([], ["--check"]):
            code, report, _ = _run(capsys, "fsck", "--root", str(tmp_path / "s"), *extra)
            assert code == 0
            assert report["clean"] == 1 and report["records"] == 2

    @pytest.mark.parametrize("extra", [["--check"], []])
    def test_a_root_without_a_store_is_refused_and_nothing_is_created(
        self, tmp_path, capsys, extra
    ):
        """Regression: ``fsck --root <typo> --check`` used to report a clean
        store, exit 0 and create ``<typo>/store.json``."""
        root = tmp_path / "typo"
        code, report, err = _run(capsys, "fsck", "--root", str(root), *extra)
        assert code == 2 and report is None
        assert repr(str(root)) in err and "store.json" in err
        assert not root.exists()
        (tmp_path / "empty").mkdir()
        code, _, _ = _run(capsys, "fsck", "--root", str(tmp_path / "empty"), *extra)
        assert code == 2
        assert os.listdir(tmp_path / "empty") == []

    def test_torn_line_fails_check_then_repairs(self, tmp_path, capsys):
        store = self._store(tmp_path / "s")
        with open(store.shard_path(0), "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        root = str(tmp_path / "s")
        code, report, _ = _run(capsys, "fsck", "--root", root, "--check")
        assert code == 1
        assert report["corrupt"] == 1 and report["clean"] == 0
        assert report["quarantined"] == 0  # --check modifies nothing
        code, report, _ = _run(capsys, "fsck", "--root", root)
        assert code == 0 and report["quarantined"] == 1
        code, report, _ = _run(capsys, "fsck", "--root", root, "--check")
        assert code == 0 and report["clean"] == 1


class TestParser:
    def test_the_ledger_launch_line_parses(self):
        args = build_parser().parse_args(
            ["serve", "--root", "R", "--port", "0", "--no-speculate", "--strategy", "exhaustive"]
        )
        assert (args.root, args.port, args.no_speculate, args.strategy) == (
            "R", 0, True, "exhaustive"
        )

    def test_default_port_is_the_protocol_constant(self):
        for command in ("serve", "status", "warm", "ping", "shutdown"):
            argv = [command] + (["--sweep", "table1"] if command == "warm" else [])
            assert build_parser().parse_args(argv).port == protocol.DEFAULT_PORT

    @pytest.mark.parametrize(
        "argv",
        [
            ["health"],
            ["serve", "--replicate-from", "127.0.0.1:9461"],
            ["serve", "--sync-interval", "0.1"],
            ["warm", "--sweep", "table1", "--background"],
            ["gc", "--max-records", "1"],
            ["serve", "--shards", "4"],
        ],
    )
    def test_retired_commands_and_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


def test_serve_subprocess_starts_and_stops_on_shutdown(tmp_path, capsys):
    """The ledger's launch line starts a daemon; ``shutdown`` ends it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "serve", "--root", str(tmp_path / "R"),
            "--port", "0", "--no-speculate", "--strategy", "exhaustive",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on " in line, line
        endpoint = line.split("listening on ", 1)[1].split(" over ", 1)[0]
        host, _, port = endpoint.rpartition(":")
        code, response, err = _run(capsys, "shutdown", "--host", host, "--port", port)
        assert code == 0 and response == {"stopping": True}, err
        assert proc.wait(timeout=30) == 0
        assert "TuningService:" in proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()
