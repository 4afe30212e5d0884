"""Entry point of the performance ledger.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Puts the repository root and ``src/`` on ``sys.path`` (the driver runs this
file from a bare checkout with no PYTHONPATH) and hands over to ``cli``.
"""

import os
import sys
import time

_STARTED = time.perf_counter()
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def main(argv=None) -> int:
    from benchmarks.ledger.cli import main as cli_main

    return cli_main(argv, root=_ROOT, entry=os.path.abspath(__file__), started=_STARTED)


if __name__ == "__main__":
    sys.exit(main())
