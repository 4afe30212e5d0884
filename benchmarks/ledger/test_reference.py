"""The ledger's own references and checks, verified against naive loops.

Run with ``python -m pytest benchmarks/ledger`` (not part of the tier-1
suite: ``pytest.ini`` collects ``tests/`` only).
"""

from __future__ import annotations

import numpy as np
import pytest

from .checks import same_bits, same_record
from .reference import conv2d_blocked_reference, conv2d_implicit_gemm_reference


def _naive_conv(data, weight, stride):
    c_outer, height, width, c_inner = data.shape
    k_outer, _, kernel, _, lanes, _ = weight.shape
    oh = (height - kernel) // stride + 1
    ow = (width - kernel) // stride + 1
    out = np.zeros((k_outer, oh, ow, lanes), dtype=np.int64)
    for ko in range(k_outer):
        for y in range(oh):
            for x in range(ow):
                for ki in range(lanes):
                    acc = 0
                    for co in range(c_outer):
                        for r in range(kernel):
                            for s in range(kernel):
                                for ci in range(c_inner):
                                    acc += int(data[co, y * stride + r, x * stride + s, ci]) * int(
                                        weight[ko, co, r, s, ki, ci]
                                    )
                    out[ko, y, x, ki] = acc
    return out.astype(np.int32)


def _operands(seed, c_outer, size, k_outer, kernel, lanes=4, c_inner=4):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (c_outer, size, size, c_inner), dtype=np.uint8)
    weight = rng.integers(-128, 128, (k_outer, c_outer, kernel, kernel, lanes, c_inner), dtype=np.int8)
    return data, weight


@pytest.mark.parametrize(
    "c_outer,size,k_outer,kernel,stride",
    [(2, 5, 2, 3, 1), (3, 6, 1, 1, 2), (1, 7, 2, 3, 2), (2, 4, 3, 1, 1)],
)
def test_references_match_naive_loop(c_outer, size, k_outer, kernel, stride):
    data, weight = _operands(c_outer * 31 + size, c_outer, size, k_outer, kernel)
    expected = _naive_conv(data, weight, stride)
    assert same_bits(conv2d_blocked_reference(data, weight, stride), expected)
    assert same_bits(conv2d_implicit_gemm_reference(data, weight, stride), expected)


def test_references_agree_on_a_mid_size_layer():
    data, weight = _operands(7, 8, 12, 2, 3, lanes=16)
    assert same_bits(
        conv2d_blocked_reference(data, weight, 1), conv2d_implicit_gemm_reference(data, weight, 1)
    )


def test_one_flipped_byte_fails_the_kernel_check():
    data, weight = _operands(3, 2, 5, 2, 3)
    expected = conv2d_blocked_reference(data, weight, 1)
    assert same_bits(expected.copy(), expected)
    corrupted = expected.copy()
    corrupted.view(np.uint8).reshape(-1)[5] ^= 0x01
    assert not same_bits(corrupted, expected)
    assert not same_bits(expected.astype(np.int64), expected)


def test_one_changed_field_fails_the_record_check():
    record = {"key": {"kind": "conv2d", "params": "abc"}, "best_cost": 1.25e-5, "num_trials": 16}
    assert same_record(dict(record), record)
    assert same_record({"num_trials": 16, "best_cost": 1.25e-5, "key": record["key"]}, record)
    assert not same_record({**record, "best_cost": 1.2500000000000002e-5}, record)
    assert not same_record({**record, "key": {"kind": "conv2d", "params": "abd"}}, record)
