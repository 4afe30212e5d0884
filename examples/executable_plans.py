"""Compile-once executable plans: the analysis/run split in action.

Demonstrates the three layers added by the plan subsystem:

1. ``compile_plan`` — one analysis pass turns a lowered function into an
   :class:`ExecutablePlan` that runs with zero re-analysis;
2. the process-wide ``plan_cache()`` — structurally identical layers
   (different objects, same program) share one plan;
3. ``run_model`` — whole-model execution through cached plans with
   liveness-planned activation memory (one arena, recycled slots).

Run with::

    PYTHONPATH=src python examples/executable_plans.py
"""

import time

import numpy as np

from repro.core import tensorize
from repro.graph import Conv2DNode, Graph, InputNode, TensorShape, run_model
from repro.rewriter import CpuTuningConfig
from repro.tir import EngineStats, Executor, alloc_buffers, compile_plan, plan_cache
from repro.workloads import Conv2DParams, conv2d_nchwc


def main() -> None:
    params = Conv2DParams(
        in_channels=16, in_height=8, in_width=8, out_channels=32, kernel=3,
        name="layer",
    )

    # -- 1. compile once, run many times ---------------------------------
    result = tensorize(conv2d_nchwc(params), "x86.avx512.vpdpbusd",
                       config=CpuTuningConfig())
    t0 = time.perf_counter()
    plan = compile_plan(result.func)
    compile_ms = (time.perf_counter() - t0) * 1e3
    stats = EngineStats()
    buffers = alloc_buffers(result.func, np.random.default_rng(0))
    t0 = time.perf_counter()
    plan.run(buffers, stats=stats)
    run_ms = (time.perf_counter() - t0) * 1e3
    print(f"plan: compiled in {compile_ms:.2f} ms, ran in {run_ms:.2f} ms")
    print(
        f"      {stats.intrinsic_rounds} intrinsic rounds dispatched in "
        f"{stats.intrinsic_round_batches} batched call(s), "
        f"{plan.fallback_nests} fallbacks"
    )

    # -- 2. structurally identical layers share one plan ------------------
    cache = plan_cache()
    cache.clear()
    hits0, misses0 = cache.stats.hits, cache.stats.misses
    executor = Executor(tier="vectorized")
    for _ in range(4):  # four *distinct* lowerings of the same program
        twin = tensorize(conv2d_nchwc(params), "x86.avx512.vpdpbusd",
                         config=CpuTuningConfig()).func
        executor.run(twin, alloc_buffers(twin, np.random.default_rng(1)))
    hits, misses = cache.stats.hits - hits0, cache.stats.misses - misses0
    print(f"cache: {hits} hits / {misses} miss — one compile served all four")
    assert (hits, misses) == (3, 1)

    # -- 3. whole-model execution with planned memory ---------------------
    graph = Graph("repeated")
    graph.add(InputNode(name="in", shape=TensorShape(8, 14, 14)))
    prev = "in"
    for i in range(8):
        prev = graph.add(
            Conv2DNode(name=f"conv{i}", inputs=[prev], out_channels=8,
                       kernel=3, padding=1, fused_activations=["relu"])
        )
    x = np.random.default_rng(2).standard_normal((8, 14, 14)).astype(np.float32)
    run = run_model(graph, {"in": x})
    mem = run.memory
    print(
        f"model: {run.plan_hits} plan hits / {run.plan_misses} compile(s) "
        f"across 8 layers; arena {mem.arena_bytes / 1e3:.1f} KB vs "
        f"{mem.naive_bytes / 1e3:.1f} KB naive ({mem.reuse_ratio:.1f}x reuse)"
    )
    warm = run_model(graph, {"in": x})
    assert np.array_equal(run.output, warm.output)
    print(f"       warm run hit rate {warm.plan_hit_rate:.0%}, deterministic ✓")


if __name__ == "__main__":
    main()
