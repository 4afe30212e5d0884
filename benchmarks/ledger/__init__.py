"""The performance ledger: ``python -m benchmarks.ledger`` (see README.md)."""
