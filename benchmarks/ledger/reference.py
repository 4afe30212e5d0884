"""Benchmark-local numpy references for the kernels the ledger executes.

The ledger checks every kernel output against these, never against the
repository's own interpreter: a reference that shares code with the system
under test cannot catch a bug they share.  Two independent formulations of
the same blocked ``NCHW[x]c`` convolution are kept so they can also check
each other on full-size layers, where a naive loop is too slow:

* :func:`conv2d_blocked_reference` — an int64 ``einsum`` per filter tap,
  straight over the blocked layout;
* :func:`conv2d_implicit_gemm_reference` — im2col + one matrix product, the
  implicit-GEMM view the GPU path uses.

Layouts (see ``repro.workloads.conv2d.conv2d_nchwc``): ``data`` is
``[C_outer, H, W, c]``, ``weight`` is ``[K_outer, C_outer, R, S, k, c]`` and
the output is ``[K_outer, OH, OW, k]`` with int32 wraparound accumulation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["conv2d_blocked_reference", "conv2d_implicit_gemm_reference"]


def _output_extent(size: int, kernel: int, stride: int) -> int:
    return (size - kernel) // stride + 1


def conv2d_blocked_reference(data: np.ndarray, weight: np.ndarray, stride: int) -> np.ndarray:
    """Blocked convolution by int64 einsum, one filter tap at a time."""
    _, height, width, _ = data.shape
    k_outer, _, kernel_h, kernel_w, lanes, _ = weight.shape
    oh = _output_extent(height, kernel_h, stride)
    ow = _output_extent(width, kernel_w, stride)
    wide = data.astype(np.int64)
    taps = weight.astype(np.int64)
    out = np.zeros((k_outer, oh, ow, lanes), dtype=np.int64)
    for r in range(kernel_h):
        for s in range(kernel_w):
            window = wide[:, r : r + (oh - 1) * stride + 1 : stride, s : s + (ow - 1) * stride + 1 : stride, :]
            out += np.einsum("cyxi,kcli->kyxl", window, taps[:, :, r, s], optimize=True)
    return out.astype(np.int32)  # two's-complement wraparound, like the hardware


def conv2d_implicit_gemm_reference(data: np.ndarray, weight: np.ndarray, stride: int) -> np.ndarray:
    """Blocked convolution as im2col + one GEMM.

    The product runs in float64 so BLAS can do it; that is exact as long as
    every partial sum stays below 2**53, which is asserted from the operand
    dtypes and the reduction length.
    """
    c_outer, height, width, c_inner = data.shape
    k_outer, _, kernel_h, kernel_w, lanes, _ = weight.shape
    oh = _output_extent(height, kernel_h, stride)
    ow = _output_extent(width, kernel_w, stride)
    reduction = c_outer * kernel_h * kernel_w * c_inner
    bound = float(np.abs(data).max(initial=0)) * float(np.abs(weight.astype(np.int64)).max(initial=0))
    if bound * reduction >= 2.0**53:
        raise ValueError("reduction too long for an exact float64 GEMM")
    columns = np.empty((oh * ow, c_outer, kernel_h, kernel_w, c_inner), dtype=np.float64)
    for r in range(kernel_h):
        for s in range(kernel_w):
            window = data[:, r : r + (oh - 1) * stride + 1 : stride, s : s + (ow - 1) * stride + 1 : stride, :]
            columns[:, :, r, s, :] = window.transpose(1, 2, 0, 3).reshape(oh * ow, c_outer, c_inner)
    # weight[ko, co, r, s, ki, ci] -> matrix[(co, r, s, ci), (ko, ki)]
    matrix = weight.astype(np.float64).transpose(1, 2, 3, 5, 0, 4).reshape(reduction, k_outer * lanes)
    product = columns.reshape(oh * ow, reduction) @ matrix
    out = product.reshape(oh, ow, k_outer, lanes).transpose(2, 0, 1, 3)
    return np.ascontiguousarray(out).astype(np.int64).astype(np.int32)
