"""``python -m benchmarks.ledger`` — same as ``python3 benchmarks/ledger/run.py``."""

import sys

from benchmarks.ledger.run import main

sys.exit(main())
