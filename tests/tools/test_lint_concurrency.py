"""The concurrency lint gate: the repo passes, violations are caught.

``tools/lint_concurrency.py`` is imported directly (its ``main`` takes an
argv list) and also run as a subprocess once, exactly the way CI invokes
it.  The violation fixtures are written under the policy basenames
(``server.py``, ``store.py``) because the rule tables key on file name.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
LINT = REPO / "tools" / "lint_concurrency.py"

sys.path.insert(0, str(LINT.parent))
import lint_concurrency  # noqa: E402


BAD_SERVER = '''\
import threading

class TuningService:
    def __init__(self):
        self._gate = threading.Lock()
        self._stop_lock = threading.Lock()
        self._inflight = {}

    def peek(self):
        return len(self._inflight)  # R1: _inflight without _gate

    def nested(self):
        with self._gate:
            with self._stop_lock:  # R2: nested different locks
                pass

    def manual(self):
        self._gate.acquire()  # R3: bare acquire
        self._gate.release()  # R3: bare release

    def outer(self):
        with self._gate:
            self.inner()  # R4: inner re-acquires _gate

    def inner(self):
        with self._gate:
            pass
'''

BAD_STORE = '''\
import threading

class ShardedTuningStore:
    def __init__(self):
        self._lock = threading.Lock()

    def _locked(self, shard):
        return self._lock

    def put(self, key, record):
        self.data[key] = record  # R5: no `with self._locked(...)`

    def _scan_shard(self):
        with self._locked(0):
            pass

    def fsck(self):
        with self._locked(0):
            pass
'''


class TestRepoIsClean:
    def test_default_files_pass(self, capsys):
        assert lint_concurrency.main([]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_subprocess_entry_point(self):
        proc = subprocess.run(
            [sys.executable, str(LINT)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 violation(s)" in proc.stdout


class TestRulesFire:
    def test_bad_server_all_rules(self, tmp_path, capsys):
        bad = tmp_path / "server.py"  # policy tables key on the basename
        bad.write_text(BAD_SERVER)
        assert lint_concurrency.main([str(bad)]) == 1
        out = capsys.readouterr().out
        for rule, fragment in [
            ("R1", "touches '_inflight' without holding '_gate'"),
            ("R2", "lock-ordering hazard"),
            ("R3", "use `with`"),
            ("R4", "non-reentrant deadlock"),
        ]:
            assert f"[{rule}]" in out, f"{rule} did not fire:\n{out}"
            assert fragment in out

    def test_bad_store_missing_critical_section(self, tmp_path, capsys):
        bad = tmp_path / "store.py"
        bad.write_text(BAD_STORE)
        assert lint_concurrency.main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "[R5]" in out
        assert "ShardedTuningStore.put" in out
        # The methods that do take the shard lock are not reported.
        assert out.count("[R5]") == 1

    def test_unknown_basename_not_policed(self, tmp_path, capsys):
        """The same code under a different name only triggers the generic
        lock rules (R2/R3/R4), not the per-file policy tables."""
        bad = tmp_path / "whatever.py"
        bad.write_text(BAD_SERVER)
        assert lint_concurrency.main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "[R1]" not in out  # guarded-state policy is server.py-only
        assert "[R2]" in out and "[R3]" in out

    def test_missing_file_is_distinct_error(self, tmp_path, capsys):
        assert lint_concurrency.main([str(tmp_path / "nope.py")]) == 2

    def test_quiet_suppresses_details(self, tmp_path, capsys):
        bad = tmp_path / "server.py"
        bad.write_text(BAD_SERVER)
        assert lint_concurrency.main([str(bad), "-q"]) == 1
        out = capsys.readouterr().out
        assert "[R1]" not in out
        assert "violation(s)" in out
