"""Tests for the CPU/GPU scheduling strategies and the tuning driver."""

import numpy as np
import pytest

from repro.inspector import inspect_applicability
from repro.isa import get_intrinsic
from repro.rewriter import (
    CpuTuningConfig,
    GpuTuningConfig,
    TuningResult,
    apply_cpu_schedule,
    apply_gpu_schedule,
    cpu_tuning_candidates,
    exhaustive_search,
    gpu_tuning_candidates,
    reorganize_loops,
)
from repro.schedule import Annotation
from tests.conftest import small_conv_hwc, small_matmul_fp16


def _conv_spec():
    vnni = get_intrinsic("x86.avx512.vpdpbusd")
    return reorganize_loops(inspect_applicability(small_conv_hwc(10, 10, 8, 32), vnni))


def _gemm_spec(m=64, n=64, k=64):
    wmma = get_intrinsic("nvvm.wmma.m16n16k16.mma.row.row.f32.f32")
    return reorganize_loops(inspect_applicability(small_matmul_fp16(m, n, k), wmma))


class TestCpuSchedule:
    def test_default_config_structure(self):
        spec = _conv_spec()
        report = apply_cpu_schedule(spec, CpuTuningConfig())
        assert report.parallel_loop is not None
        assert report.parallel_loop.annotation == Annotation.PARALLEL
        assert report.unroll_factor > 1
        assert all(l.annotation == Annotation.UNROLL for l in report.unrolled_loops)
        # Loop order: parallel band, serial band, reduce loops, unrolled band,
        # tensorized loops.
        leaves = spec.stage.leaf_vars
        assert leaves.index(report.parallel_loop) == 0
        for loop in report.unrolled_loops:
            for reduce_loop in report.reduce_loops:
                assert leaves.index(loop) > leaves.index(reduce_loop)

    def test_parallel_only_config(self):
        spec = _conv_spec()
        report = apply_cpu_schedule(spec, CpuTuningConfig(enable_unroll=False))
        assert report.unroll_factor == 1
        assert report.unrolled_loops == []

    def test_correctness_after_cpu_schedule(self, rng):
        from repro.rewriter import replace_tensorize
        from repro.tir import Executor, alloc_buffers, lower

        from tests.conftest import conv2d_hwc_reference

        spec = _conv_spec()
        apply_cpu_schedule(spec, CpuTuningConfig(parallel_extent=100, unroll_limit=4))
        func = replace_tensorize(lower(spec.schedule), spec)
        buffers = alloc_buffers(func, rng)
        result = Executor(tier="vectorized").run(func, buffers)
        data, weight = (buffers[t] for t in func.inputs)
        assert np.array_equal(result, conv2d_hwc_reference(data, weight))

    def test_candidates_start_with_recommended_pair(self):
        candidates = cpu_tuning_candidates()
        assert candidates[0] == CpuTuningConfig(parallel_extent=3000, unroll_limit=8)
        assert len(candidates) == len({(c.parallel_extent, c.unroll_limit) for c in candidates})


class TestGpuSchedule:
    def test_generic_blocks_and_unroll(self):
        spec = _gemm_spec()
        report = apply_gpu_schedule(spec, GpuTuningConfig(outer_product_p=2))
        assert report.outer_product_p == 2
        assert report.accumulators_per_block == 4
        assert report.blocks >= 1
        bound = [l for l in spec.stage.leaf_vars if l.annotation.is_gpu_binding]
        assert bound, "block loops must be bound to blockIdx"

    def test_split_k_pragma(self):
        spec = _gemm_spec(64, 64, 256)
        report = apply_gpu_schedule(spec, GpuTuningConfig(split_k=4))
        assert report.split_k == 4
        pragmas = [l.pragmas for l in spec.stage.leaf_vars if "split_reduction" in l.pragmas]
        assert pragmas

    def test_correctness_after_gpu_schedule(self, rng):
        from repro.rewriter import replace_tensorize
        from repro.tir import alloc_buffers, lower, run

        spec = _gemm_spec(32, 32, 32)
        apply_gpu_schedule(spec, GpuTuningConfig(outer_product_p=1))
        func = replace_tensorize(lower(spec.schedule), spec)
        buffers = alloc_buffers(func, rng)
        result = run(func, buffers)
        a, b = (buffers[t] for t in func.inputs)
        expected = a.astype(np.float32) @ b.astype(np.float32)
        np.testing.assert_allclose(result, expected, rtol=1e-2, atol=1e-2)

    def test_candidate_space(self):
        candidates = gpu_tuning_candidates()
        assert candidates[0].outer_product_p == 2
        assert any(c.split_k > 1 for c in candidates)
        assert any(c.fuse_spatial for c in candidates)


class TestTuningDriver:
    def test_exhaustive_search_picks_minimum(self):
        costs = {"a": 3.0, "b": 1.0, "c": 2.0}
        result = exhaustive_search(list(costs), lambda c: costs[c])
        assert result.best_config == "b"
        assert result.best_cost == 1.0
        assert result.num_trials == 3
        assert result.best_rank() == 2

    def test_ties_prefer_first_candidate(self):
        result = exhaustive_search(["x", "y"], lambda c: 1.0)
        assert result.best_config == "x"
        assert result.best_rank() == 1

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_search([], lambda c: 1.0)

    def test_best_rank_rejects_empty_trials(self):
        """Regression: an empty result used to silently claim rank 1."""
        result = TuningResult(best_config=None, best_cost=0.0, trials=[])
        with pytest.raises(ValueError):
            result.best_rank()
