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
    early_exit_search,
    exhaustive_search,
    first_k_search,
    gpu_tuning_candidates,
    parallel_search,
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

    def test_first_k_search_limits_trials(self):
        costs = [5.0, 4.0, 3.0, 2.0, 1.0]
        result = first_k_search(list(range(5)), lambda i: costs[i], k=2)
        assert result.num_trials == 2
        assert result.best_config == 1

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_search([], lambda c: 1.0)
        with pytest.raises(ValueError):
            parallel_search([], lambda c: 1.0)
        with pytest.raises(ValueError):
            early_exit_search([], lambda c: 1.0)

    def test_best_rank_rejects_empty_trials(self):
        """Regression: an empty result used to silently claim rank 1."""
        result = TuningResult(best_config=None, best_cost=0.0, trials=[])
        with pytest.raises(ValueError):
            result.best_rank()

    def test_parallel_search_matches_exhaustive(self):
        costs = [5.0, 2.0, 7.0, 1.0, 3.0]
        serial = exhaustive_search(list(range(5)), lambda i: costs[i])
        threaded = parallel_search(list(range(5)), lambda i: costs[i], max_workers=3)
        assert threaded.best_config == serial.best_config
        assert threaded.best_cost == serial.best_cost
        assert threaded.num_trials == serial.num_trials
        assert [t.cost for t in threaded.trials] == [t.cost for t in serial.trials]
        assert [t.index for t in threaded.trials] == list(range(5))

    def test_parallel_search_ties_prefer_first_candidate(self):
        result = parallel_search(["x", "y", "z"], lambda c: 1.0, max_workers=3)
        assert result.best_config == "x"
        assert result.best_rank() == 1

    def test_early_exit_stops_after_k_non_improving(self):
        costs = [5.0, 1.0, 2.0, 3.0, 4.0, 0.5]
        result = early_exit_search(list(range(6)), lambda i: costs[i], k=3)
        # Improvement at index 1, then three non-improving trials → stop at 4,
        # never reaching the 0.5 at index 5.
        assert result.num_trials == 5
        assert result.best_config == 1
        assert result.best_cost == 1.0

    def test_early_exit_runs_to_completion_when_improving(self):
        costs = [5.0, 4.0, 3.0, 2.0, 1.0]
        result = early_exit_search(list(range(5)), lambda i: costs[i], k=2)
        assert result.num_trials == 5
        assert result.best_config == 4


class TestSearchDeterminismUnderContention:
    """The distributed-tuning guarantee rests on the in-process drivers being
    result-deterministic no matter how evaluation is scheduled: the same best
    config and cost for any ``max_workers``, any completion order, any number
    of repetitions — including under deliberate thread contention and ties.
    """

    @staticmethod
    def _jittery_evaluate(costs, scale=1e-4):
        """An evaluator whose completion order is scrambled on purpose:
        cheap candidates sleep longest, so threads finish roughly in reverse
        candidate order."""
        import time

        def evaluate(index):
            time.sleep((len(costs) - index % len(costs)) * scale)
            return costs[index]

        return evaluate

    def test_parallel_search_same_result_for_any_worker_count(self):
        rng = np.random.default_rng(7)
        costs = list(rng.uniform(1.0, 2.0, size=24))
        costs[5] = costs[17] = 0.5  # a tie, far apart in the candidate list
        evaluate = self._jittery_evaluate(costs)
        reference = exhaustive_search(list(range(24)), lambda i: costs[i])
        for max_workers in (1, 2, 4, 8):
            result = parallel_search(
                list(range(24)), evaluate, max_workers=max_workers
            )
            assert result.best_config == reference.best_config == 5
            assert result.best_cost == reference.best_cost
            assert [t.index for t in result.trials] == list(range(24))
            assert [t.cost for t in result.trials] == costs

    def test_parallel_search_repeatable_across_runs(self):
        rng = np.random.default_rng(11)
        costs = list(rng.uniform(1.0, 2.0, size=16))
        evaluate = self._jittery_evaluate(costs)
        results = [
            parallel_search(list(range(16)), evaluate, max_workers=4)
            for _ in range(3)
        ]
        assert len({r.best_config for r in results}) == 1
        assert len({r.best_cost for r in results}) == 1

    def test_early_exit_is_order_dependent_but_repeatable(self):
        """early_exit trades exhaustiveness for trials, never determinism:
        repeated runs over the same candidate order are identical."""
        rng = np.random.default_rng(13)
        costs = list(rng.uniform(1.0, 2.0, size=20))
        runs = [
            early_exit_search(list(range(20)), lambda i: costs[i], k=4)
            for _ in range(3)
        ]
        assert len({r.best_config for r in runs}) == 1
        assert len({r.num_trials for r in runs}) == 1

    def test_cpu_schedule_space_deterministic_under_threads(self):
        """End to end on a real machine-model evaluation: the full CPU
        candidate space tuned with 1 vs 8 threads lands on the same config."""
        from repro.hwsim import CASCADE_LAKE
        from repro.hwsim.cpu import CpuKernelModel
        from repro.workloads import table1_layer

        intrin = get_intrinsic("x86.avx512.vpdpbusd")
        model = CpuKernelModel(CASCADE_LAKE, intrin, per_call_overhead_us=0.8)
        layer = table1_layer(3)
        candidates = cpu_tuning_candidates(max_pairs=16)

        def evaluate(cfg):
            return model.conv2d_latency(layer, cfg).seconds

        serial = parallel_search(candidates, evaluate, max_workers=1)
        threaded = parallel_search(candidates, evaluate, max_workers=8)
        assert serial.best_config == threaded.best_config
        assert serial.best_cost == threaded.best_cost
