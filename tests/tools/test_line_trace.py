"""The line tracer: a traced command, its threads and its child processes are recorded,
only the requested paths are traced, and the report names never-run blocks."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
TOOL = REPO / "tools" / "line_trace.py"

sys.path.insert(0, str(TOOL.parent))
import line_trace  # noqa: E402

MODULE = '''\
def used(flag):
    if flag:
        return 1
    return 2


def unused():
    total = 0
    for i in range(3):
        total += i
    return total
'''

MAIN = '''\
import subprocess
import sys

import traced_mod

traced_mod.used(True)
# The child takes the other branch: only the child's trace can cover it.
subprocess.check_call([sys.executable, "-c", "import traced_mod; traced_mod.used(False)"])
'''


def _trace(tmp_path, main):
    """Run ``main`` under the tracer with ``pkg/traced_mod.py`` importable;
    returns ``(package, data)``."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "traced_mod.py").write_text(MODULE)
    (tmp_path / "main.py").write_text(main)
    data = tmp_path / "trace"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "run", "--data", str(data), "--path", str(package),
         "--", sys.executable, str(tmp_path / "main.py")],
        env={"PYTHONPATH": str(package), "PATH": ""},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return package, data


def test_run_and_report(tmp_path):
    package, data = _trace(tmp_path, MAIN)
    seen = line_trace.executed_lines(str(data))
    assert set(seen) == {str(package / "traced_mod.py")}  # main.py is not traced
    assert {2, 3, 4} <= seen[str(package / "traced_mod.py")]  # line 4 ran in the child

    table = line_trace.report(str(data), [str(package)])
    assert "| 8–11 | 4 | `unused` |" in table
    assert "`used`" not in table
    assert "`<module>`" not in table  # line 0 (module entry) is no source line
    assert "| **total** |" in table


THREADED = '''\
import threading

import traced_mod

worker = threading.Thread(target=traced_mod.unused)
worker.start()
worker.join()
'''


def test_threads_are_traced(tmp_path):
    package, data = _trace(tmp_path, THREADED)
    assert {8, 9, 10, 11} <= line_trace.executed_lines(str(data))[str(package / "traced_mod.py")]


def test_directory_prefix_does_not_match_a_sibling_file(tmp_path):
    package = tmp_path / "service"
    package.mkdir()
    module = tmp_path / "single.py"
    module.write_text("")
    prefixes = tuple(line_trace._prefixes([str(package), str(module)]))
    assert str(package / "server.py").startswith(prefixes)
    assert not str(tmp_path / "service_extra.py").startswith(prefixes)
    assert str(module).startswith(prefixes)


def test_executed_lines_unions_processes_and_skips_a_torn_tail(tmp_path):
    (tmp_path / "lines-1.txt").write_text("/a.py\t3\n/a.py\t4\n")
    # A SIGKILLed process can leave half a record behind.
    (tmp_path / "lines-2.txt").write_text("/a.py\t4\n/b.py\t1\n/a.py\t")
    assert line_trace.executed_lines(str(tmp_path)) == {"/a.py": {3, 4}, "/b.py": {1}}


def test_executable_lines_include_nested_code_not_blanks_or_comments():
    source = "x = 1\n\n# note\ndef f():\n    def g():\n        return 2\n    return g\n"
    assert line_trace.executable_lines(source, "m.py") == {1, 4, 5, 6, 7}


def test_scopes_qualify_methods_and_start_at_decorators():
    source = "class C:\n    @staticmethod\n    def m():\n        return 1\n"
    scopes = line_trace._scopes(line_trace.ast.parse(source))
    assert scopes == [(1, 4, "C"), (2, 4, "C.m")]
    assert line_trace._enclosing(scopes, 4) == "C.m"
    assert line_trace._enclosing(scopes, 9) == "<module>"


def test_never_run_blocks_split_at_run_lines_and_functions():
    scopes = [(1, 4, "f"), (5, 8, "g")]
    blocks = line_trace.never_run_blocks({1, 2, 3, 4, 5, 6, 8}, {3}, scopes)
    assert blocks == [(1, 2, 2, "f"), (4, 4, 1, "f"), (5, 8, 3, "g")]


def test_run_without_a_command_is_an_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as stop:
        line_trace.main(["run", "--data", str(tmp_path), "--path", str(tmp_path), "--"])
    assert stop.value.code == 2
    assert "needs a command" in capsys.readouterr().err
