"""The two output checks every ledger operation goes through.

Kept apart from the sections so ``test_reference.py`` can show that flipping
one byte of a kernel output, or one field of a served record, fails them.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["same_bits", "same_record"]


def same_bits(got: np.ndarray, expected: np.ndarray) -> bool:
    """Bit identity: same dtype, same shape, same bytes (NaN-safe, -0.0-strict)."""
    got = np.asarray(got)
    expected = np.asarray(expected)
    if got.dtype != expected.dtype or got.shape != expected.shape:
        return False
    return np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()


def same_record(got: dict, expected: dict) -> bool:
    """A served tuning record equals, as canonical JSON, the locally tuned one."""
    return json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
