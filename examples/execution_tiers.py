#!/usr/bin/env python3
"""Execution-tier walkthrough: one Executor, tiered promotion to native code.

Everything that runs tensor IR goes through ``repro.tir.Executor``.  This
example shows the tier lifecycle end to end:

1. the three tiers (interpreter / vectorized / native) produce bit-identical
   results on the same buffers;
2. under the native tier a plan starts vectorized and *promotes* to a
   compiled C kernel (loaded through ctypes) after ``promote_after``
   warm runs, spot-checked for bit identity at the moment of promotion.
   The kernel is the hardware instruction (``vpdpbusd``), so where the host
   compiler does not define ``__AVX512VNNI__`` the plan never promotes and
   keeps running vectorized, with the reason recorded;
3. promotion is license-gated: a nest the static verifier could not prove
   never promotes — it demotes with a recorded reason and keeps running
   vectorized;
4. validation policies: ``spot`` checks each distinct plan once against the
   scalar interpreter, ``full`` checks every run.

Run:  PYTHONPATH=src python examples/execution_tiers.py
"""

import numpy as np

from repro.core import tensorize
from repro.dsl import compute, placeholder
from repro.rewriter import CpuTuningConfig
from repro.tir import (
    Executor,
    alloc_buffers,
    compile_plan,
    lower,
    native_eligibility_reason,
    native_toolchain,
    plan_cache,
    tier_state,
)
from repro.tir.backend import instruction_support_reason
from repro.workloads import Conv2DParams, conv2d_nchwc


def main() -> None:
    kind, payload = native_toolchain()
    print(f"native toolchain: {kind or 'none'} ({payload})\n")

    params = Conv2DParams(
        in_channels=32, in_height=14, in_width=14, out_channels=64, kernel=3,
        name="demo",
    )
    result = tensorize(
        conv2d_nchwc(params), "x86.avx512.vpdpbusd", config=CpuTuningConfig()
    )
    func = result.func
    buffers = alloc_buffers(func, np.random.default_rng(0))

    # 1. Every tier agrees bit for bit on the same inputs.
    outputs = {}
    for tier in ("interpreter", "vectorized"):
        outputs[tier] = Executor(tier=tier).run(
            func, {t: a.copy() for t, a in buffers.items()}
        )
    assert np.array_equal(outputs["interpreter"], outputs["vectorized"])
    print("interpreter and vectorized tiers are bit-identical")

    # 2. The promotion lifecycle.  One Executor, three runs: the plan (shared
    #    through the process-wide PlanCache) warms up vectorized, then the
    #    threshold-crossing run compiles a kernel and spot-checks it.
    plan_cache().clear()
    executor = Executor(tier="native", promote_after=3)
    for i in range(1, 5):
        out = executor.run(func, {t: a.copy() for t, a in buffers.items()})
        state = tier_state(plan_cache().get_or_compile(func))
        print(
            f"run {i}: tier={state.tier:<10} warm_runs={state.warm_runs} "
            f"native_runs={executor.stats.native_runs}"
        )
        assert np.array_equal(out, outputs["interpreter"])
    if kind is None:
        print("no toolchain: the plan quietly kept running vectorized\n")
    elif instruction_support_reason(func) is not None:
        assert executor.stats.native_promotions == 0 and state.tier == "vectorized"
        print(f"no instruction: the plan kept running vectorized ({state.demotion_reason})\n")
    else:
        assert executor.stats.native_promotions == 1
        print("promoted after 3 warm runs; native runs stay bit-identical\n")

    # 3. Unproved nests never promote.  A data-dependent gather cannot be
    #    bounds-proved by the static verifier, so the native tier refuses it
    #    up front and records why.
    idx = placeholder((8,), "int32", "idx")
    a = placeholder((8,), "int32", "a")
    gather = compute((8,), lambda i: a[idx[i] % 8], name="gather")
    gather_plan = compile_plan(lower(gather))
    print(f"gather eligibility: {native_eligibility_reason(gather_plan)}")

    # 4. Validation policies: "full" re-checks every run against the scalar
    #    interpreter — the belt-and-suspenders mode for new schedules.
    checked = Executor(tier="vectorized", validation="full")
    checked.run(func, {t: a.copy() for t, a in buffers.items()})
    print("validation='full' run verified against the interpreter")


if __name__ == "__main__":
    main()
