"""Top-level CLI dispatcher: ``python -m repro <command>``.

Currently one command: ``query`` — the telemetry results-DB / live-service
query CLI (see :mod:`repro.telemetry.query`).  The service daemon keeps its
own entry point (``python -m repro.service``), as do the analysis tools
(``python -m repro.analysis``).
"""

from __future__ import annotations

import sys
from typing import List, Optional

_USAGE = """\
usage: python -m repro query <subcommand> [options]

commands:
  query    query the telemetry results database and live services
           (subcommands: runs, trend, spans, service)

other entry points:
  python -m repro.service   tuning service daemon and admin commands
  python -m repro.analysis  static loop-nest analysis reports
"""


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0
    command, rest = argv[0], argv[1:]
    if command == "query":
        from .telemetry.query import main as query_main

        return query_main(rest)
    print(f"python -m repro: unknown command {command!r}\n", file=sys.stderr)
    print(_USAGE, end="", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
