"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsl import cast, compute, placeholder, reduce_axis, sum_reduce
from repro.workloads import Conv2DParams


# ---------------------------------------------------------------------------
# numpy reference implementations (the correctness oracles)
# ---------------------------------------------------------------------------

def conv2d_hwc_reference(data: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Direct conv2d in HWC / RSKC layout, int32 accumulation, stride 1."""
    h, w, c = data.shape
    r, s, k, _ = weight.shape
    oh, ow = h - r + 1, w - s + 1
    out = np.zeros((oh, ow, k), dtype=np.int64)
    d32 = data.astype(np.int64)
    w32 = weight.astype(np.int64)
    for x in range(oh):
        for y in range(ow):
            patch = d32[x : x + r, y : y + s, :]  # (r, s, c)
            out[x, y, :] = np.einsum("rsc,rskc->k", patch, w32)
    return out.astype(np.int32)


def conv2d_nchwc_reference(data: np.ndarray, weight: np.ndarray, stride: int = 1) -> np.ndarray:
    """Blocked-layout conv2d reference.

    data: (c_outer, H, W, c_inner); weight: (k_outer, c_outer, R, S, k_inner, c_inner)
    output: (k_outer, OH, OW, k_inner), int32.
    """
    c_outer, h, w, c_inner = data.shape
    k_outer, _, r, s, k_inner, _ = weight.shape
    oh = (h - r) // stride + 1
    ow = (w - s) // stride + 1
    out = np.zeros((k_outer, oh, ow, k_inner), dtype=np.int64)
    d = data.astype(np.int64)
    wt = weight.astype(np.int64)
    for ko in range(k_outer):
        for y in range(oh):
            for x in range(ow):
                patch = d[:, y * stride : y * stride + r, x * stride : x * stride + s, :]
                out[ko, y, x, :] = np.einsum("crsi,crski->k", patch.transpose(0, 1, 2, 3), wt[ko].transpose(0, 1, 2, 3, 4))
    return out.astype(np.int32)


def matmul_reference(a: np.ndarray, b: np.ndarray, transpose_b: bool = False) -> np.ndarray:
    """Integer/float matmul reference with wide accumulation."""
    if a.dtype.kind in "iu":
        a64 = a.astype(np.int64)
        b64 = b.astype(np.int64)
        result = a64 @ (b64.T if transpose_b else b64)
        return result.astype(np.int32)
    a32 = a.astype(np.float32)
    b32 = b.astype(np.float32)
    return a32 @ (b32.T if transpose_b else b32)


# ---------------------------------------------------------------------------
# DSL workload builders (small shapes, used across many test modules)
# ---------------------------------------------------------------------------

def scaled_table1(params: Conv2DParams, spatial: int = 6) -> Conv2DParams:
    """A Table I layer with shrunk channel/spatial extents.

    The layer keeps its structural features (kernel size, stride, the blocked
    layout's padding behaviour) so the engine sees the same loop shapes, but
    becomes small enough that the *scalar* reference finishes in milliseconds
    — the full-size layers are exercised engine-only in the benchmarks.
    """
    ih = min(params.in_height, spatial + params.kernel - 1)
    return Conv2DParams(
        in_channels=min(params.in_channels, 8),
        in_height=ih,
        in_width=ih,
        out_channels=min(params.out_channels, 16),
        kernel=params.kernel,
        stride=params.stride,
        padding=params.padding,
        name=params.name,
    )


def build_kernel(source, flags, tmp_path, tag):
    """Compile a ``NativeSource`` with ``flags`` under ``tmp_path`` and load it."""
    import subprocess

    from repro.tir import backend, native_toolchain

    stem = tmp_path / f"{source.func_name}_{tag}"
    stem.with_suffix(".c").write_text(source.source)
    library = str(stem.with_suffix(".so"))
    subprocess.run(
        [str(native_toolchain()[1]), *flags, "-o", library, str(stem.with_suffix(".c"))],
        check=True, capture_output=True, text=True,
    )
    return backend.load_kernel(source, library)


def float_copy(values):
    """``copy[i] = a[i]`` over float32 with ``a`` holding ``values``: a kernel
    whose correct output is its input byte for byte, so a test chooses every
    output bit (``-0.0``, NaN).  Returns ``(func, buffers)``."""
    from repro.tir import lower

    n = len(values)
    a = placeholder((n,), "float32", "a")
    func = lower(compute((n,), lambda i: a[i], name="copy"))
    buffers = {
        func.inputs[0]: np.array(values, dtype=np.float32),
        func.output: np.zeros(n, dtype=np.float32),
    }
    return func, buffers


def small_conv_hwc(h=8, w=8, c=8, k=16, r=3):
    """The Figure 5 convolution with small shapes (VNNI-compatible)."""
    a = placeholder((h, w, c), "uint8", "data")
    b = placeholder((r, r, k, c), "int8", "weight")
    rc = reduce_axis(0, c, "rc")
    rr = reduce_axis(0, r, "r")
    rs = reduce_axis(0, r, "s")
    out = compute(
        (h - r + 1, w - r + 1, k),
        lambda x, y, kk: sum_reduce(
            cast("int32", a[x + rr, y + rs, rc]) * cast("int32", b[rr, rs, kk, rc]),
            [rr, rs, rc],
        ),
        name="conv",
        axis_names=["x", "y", "k"],
    )
    return out


def small_matmul_int8(m=4, n=16, k=8):
    """Quantized matmul C[m, n] = A[m, k] · B[n, k]^T (VNNI/DOT compatible)."""
    a = placeholder((m, k), "uint8", "A")
    b = placeholder((n, k), "int8", "B")
    rk = reduce_axis(0, k, "rk")
    return compute(
        (m, n),
        lambda i, j: sum_reduce(cast("int32", a[i, rk]) * cast("int32", b[j, rk]), rk),
        name="matmul_i8",
        axis_names=["i", "j"],
    )


def small_matmul_fp16(m=32, n=32, k=32):
    """Mixed-precision matmul (Tensor Core compatible)."""
    a = placeholder((m, k), "float16", "A")
    b = placeholder((k, n), "float16", "B")
    rk = reduce_axis(0, k, "rk")
    return compute(
        (m, n),
        lambda i, j: sum_reduce(
            cast("float32", a[i, rk]) * cast("float32", b[rk, j]), rk
        ),
        name="matmul_fp16",
        axis_names=["i", "j"],
    )


def store_with_gc_sidecars(root):
    """A tuning-store directory laid out the way releases with LRU store GC
    left one: every key appended three times (the last append wins), a
    ``served-XX.jsonl`` last-served sidecar per shard, and the
    ``shard-00.jsonl.tmp.<pid>`` temp of an interrupted shard rewrite.
    Lines use those releases' format (``json.dumps(..., sort_keys=True)``).

    Returns ``(latest, sidecars, temp)``: the record each key must serve,
    the sidecar paths and the temp file's path.
    """
    import json
    import os

    from repro.hwsim import CostBreakdown
    from repro.rewriter import CpuTuningConfig, ShardedTuningStore, TuningKey, TuningRecord

    store = ShardedTuningStore(root, shards=2)
    keys = [
        TuningKey(
            kind="conv2d",
            params=(("index", index),),
            intrinsic="x86.avx512.vpdpbusd",
            machine="cascade-lake",
            space="full@gc-era",
        )
        for index in range(6)
    ]
    latest = {}
    for attempt in range(3):  # interleaved duplicates, as concurrent puts leave them
        for index, key in enumerate(keys):
            cost = (index + 1) * 1e-5 * (3 - attempt)
            record = TuningRecord(
                key=key,
                best_config=CpuTuningConfig(unroll_limit=2 + attempt),
                best_cost=cost,
                num_trials=3,
                breakdown=CostBreakdown(seconds=cost),
            )
            with open(store.shard_path(store.shard_of(key)), "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
            latest[key] = record
    sidecars = []
    for index in range(store.num_shards):
        path = os.path.join(store.root, f"served-{index:02d}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for stamp, key in enumerate(keys):
                if store.shard_of(key) == index:
                    entry = {"served": key.to_json(), "t": 1000.0 + stamp}
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")
        sidecars.append(path)
    temp = store.shard_path(0) + ".tmp.4242"
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(latest[keys[0]].to_json(), sort_keys=True)[:40])
    return latest, sidecars, temp


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_conv_params():
    return Conv2DParams(
        in_channels=8, in_height=8, in_width=8, out_channels=16, kernel=3, name="tiny"
    )
