#!/usr/bin/env python3
"""Compute-plane fault tolerance: sandboxed kernel qualification.

A freshly compiled native kernel is untrusted: a miscompile can segfault,
OOM, or spin, and run in-process that kills the host interpreter.  So the
first compile + bit-identity check runs in a disposable rlimited subprocess.
This example injects a SIGSEGV into that child (``backend.qualify`` fault
point) and shows the host surviving while the plan demotes with a classified
``sandbox rejected`` reason — then a clean plan promotes through the same
sandbox.  Without a C toolchain the demo is skipped.

Run:  PYTHONPATH=src python examples/compute_fault_tolerance.py
"""

import os

import numpy as np

from repro.dsl import cast, compute, placeholder, reduce_axis, sum_reduce
from repro.testing import faults
from repro.tir import EngineStats, alloc_buffers, compile_plan, lower, run, tier_state
from repro.tir.backend import native_toolchain, run_tiered


def small_conv(name: str):
    """An 8x8x8 -> 6x6x16 VNNI-style conv the static verifier can prove."""
    a = placeholder((8, 8, 8), "uint8", f"{name}_data")
    b = placeholder((3, 3, 16, 8), "int8", f"{name}_weight")
    rc = reduce_axis(0, 8, "rc")
    rr = reduce_axis(0, 3, "r")
    rs = reduce_axis(0, 3, "s")
    return compute(
        (6, 6, 16),
        lambda x, y, k: sum_reduce(
            cast("int32", a[x + rr, y + rs, rc]) * cast("int32", b[rr, rs, k, rc]),
            [rr, rs, rc],
        ),
        name=name,
        axis_names=["x", "y", "k"],
    )


def demo_sandbox() -> None:
    print("== Sandboxed kernel qualification ==")
    kind, detail = native_toolchain()
    if kind is None:
        print(f"  skipped: no native toolchain ({detail})")
        return

    stats = EngineStats()

    # A kernel that SIGSEGVs the moment it runs — but only inside the
    # sandbox child, which is the whole point: the blast radius is one
    # disposable subprocess, not this interpreter.
    plan = compile_plan(lower(small_conv("poisoned")))
    buffers = alloc_buffers(plan.func, np.random.default_rng(0))
    reference = run(plan.func, {t: a.copy() for t, a in buffers.items()})
    with faults.FaultPlan(seed=0) as fault_plan:
        fault_plan.on(
            "backend.qualify",
            faults.segfault,
            when=lambda c: c.get("where") == "sandbox",
        )
        got = run_tiered(plan, buffers, stats=stats, promote_after=1)
    state = tier_state(plan)
    print(f"  host pid {os.getpid()} survived a kernel SIGSEGV")
    print(f"  demotion reason         : {state.demotion_reason}")
    print(f"  sandbox outcome         : {state.sandbox_outcome}")
    print(f"  vectorized result intact: {bool(np.array_equal(got, reference))}")
    assert state.demoted and state.sandbox_outcome == "segfault"
    assert np.array_equal(got, reference)

    # A clean kernel walks through the same gate and promotes.
    plan2 = compile_plan(lower(small_conv("clean")))
    run_tiered(
        plan2,
        alloc_buffers(plan2.func, np.random.default_rng(1)),
        stats=stats,
        promote_after=1,
    )
    state2 = tier_state(plan2)
    print(f"  clean plan tier         : {state2.tier} ({state2.sandbox_outcome})")
    print(
        f"  qualifications/rejections: "
        f"{stats.sandbox_qualifications}/{stats.sandbox_rejections}"
    )
    assert state2.tier == "native" and state2.sandbox_outcome == "qualified"


if __name__ == "__main__":
    demo_sandbox()
