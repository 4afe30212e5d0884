"""Compilation + validation cost benchmark for the reproduction's own pipeline.

Not a paper figure, but the repository's perf trajectory: it measures

* **compile**: how long UNIT's Inspector + Rewriter + lowering + instruction
  injection takes for a realistic convolution, cold (first call, no memo
  caches) and warm (expression interning and simplify/extract_linear memos
  populated);
* **validation**: how long numerically validating the tensorized kernel
  takes through the scalar reference interpreter vs the vectorized execution
  engine (the hot path of schedule verification and tuning-trial
  validation), asserting the engine is bit-identical and recording the
  speedup;
* **table1**: engine-only execution of full-size Table I layers (the scalar
  interpreter would need minutes each), split into plan-compile cost and
  warm-plan run cost (cross-round batched intrinsic dispatch);
* **plan_cache**: the compile-once story — cold plan compile+run vs
  warm-plan execution of a structurally identical layer, recompile cost with
  warm expression memos, and the plan-cache hit rate over a repeated-layer
  model executed end to end (``run_model``);
* **expr_cache**: hit rates of the expression-level memo caches
  (``simplify`` / ``extract_linear``);
* **static_analysis**: the verification tier's own cost and coverage —
  wall-clock of the full pass stack (``repro.analysis.analyze``) over
  tensorized Table I layers, the fraction of nests proved, and the runtime
  checks the proofs let ``compile_plan`` elide (``PlanStats.proved_nests`` /
  ``elided_checks``).  Coverage metrics are gated *higher-is-better* by
  ``check_regression.py``: a change that silently loses proofs (and with
  them the elisions) fails CI even if nothing got slower.

Run standalone to write ``BENCH_compile_time.json`` (the CI smoke job
uploads it as an artifact)::

    PYTHONPATH=src python benchmarks/bench_compile_time.py [--quick] [-o OUT]

* **native_tier**: the tiered native backend on the full-size layer 1 —
  vectorized vs promoted-native run time, the speedup floor, the
  bit-identity spot check, and the promotion counters
  (``native_runs``/``native_promotions``) that ``check_regression.py``
  gates never-lower.

``--plan-smoke`` runs the CI plan-cache gate instead: warm-plan execution
must be ≥5x faster than cold on the repeated-layer workload and every
Table I layer must compile to a fully vectorized plan (zero fallbacks).
``--native-smoke`` runs the CI native-tier gate: layers 1 and 2 must promote,
stay bit-identical and run ≥8x faster than the vectorized tier, and layer 2
must be one register tile (``tiled_nests == 1``).
The native kernel is ``vpdpbusd`` itself, so the gate skips cleanly where no
C compiler is installed or its flags do not define ``__AVX512VNNI__``.

Or run under pytest-benchmark along with the figure benchmarks::

    pytest benchmarks/bench_compile_time.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.core import tensorize
from repro.dsl.expr import expr_cache_stats, reset_expr_cache_stats
from repro.telemetry import trace as telemetry_trace
from repro.telemetry.resultsdb import default_db_path, record_bench
from repro.telemetry.trace import span
from repro.graph import Conv2DNode, Graph, InputNode, TensorShape, run_model
from repro.rewriter import CpuTuningConfig
from repro.tir import (
    EngineStats,
    Executor,
    Interpreter,
    alloc_buffers,
    compile_plan,
    native_toolchain,
    plan_cache,
)
from repro.tir.backend import instruction_support_reason, same_bits
from repro.workloads import Conv2DParams, conv2d_nchwc
from repro.workloads.table1 import TABLE1_LAYERS

# The compile-phase workload (realistic mid-network layer).
COMPILE_PARAMS = Conv2DParams(
    in_channels=64, in_height=14, in_width=14, out_channels=128, kernel=3, name="bench"
)
# The validation-phase workload is smaller: it is executed through the
# *scalar* interpreter too, whose cost grows with every MAC.
VALIDATE_PARAMS = Conv2DParams(
    in_channels=16, in_height=10, in_width=10, out_channels=32, kernel=3, name="val"
)


def _compile_once(params: Conv2DParams = COMPILE_PARAMS):
    conv = conv2d_nchwc(params)
    return tensorize(conv, "x86.avx512.vpdpbusd", config=CpuTuningConfig())


def bench_compile() -> dict:
    reset_expr_cache_stats()
    t0 = time.perf_counter()
    _compile_once()
    cold = time.perf_counter() - t0
    warm_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _compile_once()
        warm_times.append(time.perf_counter() - t0)
    warm = min(warm_times)
    return {
        "workload": COMPILE_PARAMS.describe(),
        "cold_s": cold,
        "warm_s": warm,
        "warm_speedup": cold / warm if warm else float("inf"),
    }


def bench_validation() -> dict:
    result = _compile_once(VALIDATE_PARAMS)
    buffers = alloc_buffers(result.func, np.random.default_rng(0))

    t0 = time.perf_counter()
    ref = Interpreter(result.func).run({t: a.copy() for t, a in buffers.items()})
    scalar_s = time.perf_counter() - t0

    # Warm-up pass (numpy internal caches), then a timed pass on a fresh
    # executor so the reported stats cover exactly one execution.
    Executor(tier="vectorized").run(result.func, {t: a.copy() for t, a in buffers.items()})
    engine = Executor(tier="vectorized")
    t0 = time.perf_counter()
    got = engine.run(result.func, {t: a.copy() for t, a in buffers.items()})
    vector_s = time.perf_counter() - t0
    plan_stats = plan_cache().get_or_compile(result.func).stats

    return {
        "workload": VALIDATE_PARAMS.describe(),
        "scalar_s": scalar_s,
        "vector_s": vector_s,
        "speedup": scalar_s / vector_s if vector_s else float("inf"),
        "bit_identical": same_bits(ref, got),
        "engine": {
            "vector_nests": engine.stats.vector_nests,
            "fallback_nests": engine.stats.fallback_nests,
            "intrinsic_rounds": engine.stats.intrinsic_rounds,
            "intrinsic_points": engine.stats.intrinsic_points,
            "proved_nests": plan_stats.proved_nests,
            "elided_checks": plan_stats.elided_checks,
        },
    }


def bench_table1_engine(limit: int) -> list:
    """Full-size Table I layers: plan compile cost + warm-plan execution."""
    rows = []
    for index, params in enumerate(TABLE1_LAYERS[:limit], start=1):
        result = _compile_once(params)
        t0 = time.perf_counter()
        plan = compile_plan(result.func)
        plan_compile_s = time.perf_counter() - t0
        buffers = alloc_buffers(result.func, np.random.default_rng(index))
        stats = EngineStats()
        t0 = time.perf_counter()
        plan.run(buffers, stats=stats)
        rows.append(
            {
                "layer": index,
                "params": params.describe(),
                "macs": params.macs,
                "plan_compile_s": plan_compile_s,
                "vector_s": time.perf_counter() - t0,
                "fallback_nests": plan.fallback_nests,
                "intrinsic_round_batches": stats.intrinsic_round_batches,
                "proved_nests": plan.stats.proved_nests,
                "elided_checks": plan.stats.elided_checks,
            }
        )
    return rows


def bench_native_tier(limit: int) -> dict:
    """The tiered native backend on full-size Table I layers.

    For each layer: time the warm vectorized run, then force promotion
    (``promote_after=1`` — one warm run compiles the kernel and spot-checks
    it for bit identity) and time the promoted native runs.  Reports the
    native/vectorized speedup plus the promotion counters that
    ``check_regression.py`` gates never-lower.  When no C compiler is
    available, or its flags do not define the feature macro of ``vpdpbusd``
    (the instruction the layers are tensorized for), the section reports
    ``available: false`` with the reason and nothing else — the
    graceful-fallback story, not a failure.
    """
    from repro.tir import tier_state
    from repro.tir.backend import run_tiered

    kind, payload = native_toolchain()
    report = {
        "available": kind is not None,
        "toolchain": kind if kind is not None else str(payload),
        "layers": [],
    }
    if kind is None:
        return report
    funcs = [_compile_once(params).func for params in TABLE1_LAYERS[:limit]]
    # Every layer is tensorized for the same instruction.
    reason = instruction_support_reason(funcs[0])
    if reason is not None:
        report.update(available=False, toolchain=reason)
        return report
    for index, (params, func) in enumerate(zip(TABLE1_LAYERS[:limit], funcs), start=1):
        plan = compile_plan(func)
        buffers = alloc_buffers(func, np.random.default_rng(index))
        stats = EngineStats()

        t0 = time.perf_counter()
        expected = plan.run({t: a.copy() for t, a in buffers.items()}, stats=stats)
        vector_s = time.perf_counter() - t0
        expected = np.array(expected, copy=True)

        # The threshold-crossing warm run: vectorized execution + kernel
        # compile + bit-identity spot-check, all in one call.
        t0 = time.perf_counter()
        run_tiered(
            plan, {t: a.copy() for t, a in buffers.items()}, stats=stats, promote_after=1
        )
        promote_s = time.perf_counter() - t0
        state = tier_state(plan)

        native_s, got = float("inf"), None
        if state.tier == "native":
            times = []
            for _ in range(2):
                native_buffers = {t: a.copy() for t, a in buffers.items()}
                t0 = time.perf_counter()
                got = run_tiered(plan, native_buffers, stats=stats, promote_after=1)
                times.append(time.perf_counter() - t0)
            native_s = min(times)
        report["layers"].append(
            {
                "layer": index,
                "params": params.describe(),
                "macs": params.macs,
                "tier": state.tier,
                "demotion_reason": state.demotion_reason,
                "vector_s": vector_s,
                "promote_s": promote_s,
                "native_s": native_s,
                "native_speedup": vector_s / native_s if native_s else float("inf"),
                "bit_identical": got is not None and same_bits(got, expected),
                "native_runs": stats.native_runs,
                "native_promotions": stats.native_promotions,
                "native_demotions": stats.native_demotions,
                "tiled_nests": state.kernel.source.tiled_nests if state.kernel else 0,
            }
        )
    return report


# Layer 1's native kernel (``vpdpbusd`` itself) over its vectorized run:
# 18-26x measured on a 2-vCPU AVX-512 VNNI host, held here with margin for
# slower runners.
NATIVE_INSTRUCTION_FLOOR = 8.0


def _check_native_row(row) -> None:
    assert row["tier"] == "native", (
        f"layer {row['layer']} failed to promote: {row['demotion_reason'] or 'unknown reason'}"
    )
    assert row["bit_identical"], f"native layer {row['layer']} diverged from the vectorized tier"
    assert row["native_speedup"] >= NATIVE_INSTRUCTION_FLOOR, (
        f"native layer {row['layer']} speedup {row['native_speedup']:.2f}x "
        f"below the {NATIVE_INSTRUCTION_FLOOR:g}x floor"
    )


def native_smoke() -> None:
    """The CI native-tier gate (``--native-smoke``).

    Skips (exit 0) when no native toolchain exists or its flags do not
    define ``__AVX512VNNI__``; otherwise layers 1 and 2 must promote, stay
    bit-identical and run at least ``NATIVE_INSTRUCTION_FLOOR`` times faster
    than the vectorized tier, and layer 2 (no residue guard, so its
    accumulators stay in registers) must be exactly one register tile.
    """
    report = bench_native_tier(2)
    if not report["available"]:
        print(f"native-tier smoke skipped: {report['toolchain']}")
        return
    for row in report["layers"]:
        print(
            f"native tier ({report['toolchain']}): layer{row['layer']} vector "
            f"{row['vector_s'] * 1e3:7.1f} ms  native_s {row['native_s'] * 1e3:7.1f} ms "
            f"({row['native_speedup']:.2f}x, bit_identical={row['bit_identical']}, "
            f"tier={row['tier']}, tiled_nests={row['tiled_nests']})"
        )
        _check_native_row(row)
    tiles = report["layers"][1]["tiled_nests"]
    assert tiles == 1, f"layer 2 promoted with {tiles} register tiles, expected 1"
    print("native-tier smoke ok")


def bench_static_analysis(limit: int) -> dict:
    """Cost and coverage of the static verification tier on Table I layers.

    ``analyze_s`` is the full pass stack (structure + bounds + overlap +
    dtype) over already-tensorized funcs — the marginal price the Rewriter
    pays to precheck one candidate.  ``proved_fraction`` and the elision
    counters are the payoff and are gated higher-is-better.
    """
    from repro.analysis import analyze

    funcs = [_compile_once(p).func for p in TABLE1_LAYERS[:limit]]
    total_nests = proved_nests = 0
    strict_ok = True
    t0 = time.perf_counter()
    for func in funcs:
        report = analyze(func)
        total_nests += report.total_nests
        proved_nests += report.proved_nests
        strict_ok = strict_ok and report.ok(strict=True)
    analyze_s = time.perf_counter() - t0

    elided = sum(compile_plan(f).stats.elided_checks for f in funcs)
    return {
        "layers": len(funcs),
        "analyze_s": analyze_s,
        "analyze_per_func_ms": analyze_s / len(funcs) * 1e3 if funcs else 0.0,
        "total_nests": total_nests,
        "proved_nests": proved_nests,
        "proved_fraction": proved_nests / total_nests if total_nests else 0.0,
        "strict_ok": strict_ok,
        "elided_checks": elided,
    }


# The plan-cache workload: small enough that analysis dominates execution,
# so the cold/warm ratio isolates what the cache actually saves.  The
# strided shape adds residue guards, whose mask/selection precompute is part
# of the analysis a warm plan skips.
PLAN_PARAMS = Conv2DParams(
    in_channels=4, in_height=7, in_width=7, out_channels=16, kernel=3, stride=2,
    name="plan",
)


def _repeated_layer_model(depth: int = 6) -> Graph:
    """A model whose conv layers are structurally identical — the
    best case the plan cache is designed for (and the common case in
    real networks)."""
    graph = Graph("repeated")
    graph.add(InputNode(name="in", shape=TensorShape(8, 12, 12)))
    prev = "in"
    for i in range(depth):
        prev = graph.add(
            Conv2DNode(
                name=f"conv{i}", inputs=[prev], out_channels=8, kernel=3, padding=1
            )
        )
    return graph


def bench_plan_cache() -> dict:
    """Cold vs warm executable plans, plus the repeated-layer-model hit rate."""
    cache = plan_cache()
    cache.clear()
    # Six structurally identical compilations of the same layer — distinct
    # functions, distinct (fresh) expression trees, one program.
    funcs = [
        tensorize(conv2d_nchwc(PLAN_PARAMS), "x86.avx512.vpdpbusd",
                  config=CpuTuningConfig()).func
        for _ in range(6)
    ]
    hits0, misses0 = cache.stats.hits, cache.stats.misses

    # Cold: plan compile + insert + run, on a never-seen function (fresh
    # expression trees, empty cache) — the no-cache cost of every call.
    cold_times = []
    for func in funcs[:3]:
        cache.clear()
        buffers = alloc_buffers(func, np.random.default_rng(0))
        t0 = time.perf_counter()
        Executor(tier="vectorized").run(func, buffers)
        cold_times.append(time.perf_counter() - t0)
    cold_s = min(cold_times)

    # Warm: re-executing a compiled layer — identity hit, zero analysis.
    warm_times = []
    for _ in range(5):
        buffers = alloc_buffers(funcs[2], np.random.default_rng(0))
        t0 = time.perf_counter()
        Executor(tier="vectorized").run(funcs[2], buffers)
        warm_times.append(time.perf_counter() - t0)
    warm_s = min(warm_times)

    # Twin: a *different* function object, same program — the repeated-layer
    # case; pays one canonical hash + equality walk, still no analysis.
    twin_times = []
    for func in funcs[3:]:
        buffers = alloc_buffers(func, np.random.default_rng(0))
        t0 = time.perf_counter()
        Executor(tier="vectorized").run(func, buffers)
        twin_times.append(time.perf_counter() - t0)
    twin_s = min(twin_times)
    hits, misses = cache.stats.hits - hits0, cache.stats.misses - misses0

    # Recompiling the same function object after a cache clear exercises the
    # per-node expression memos (extract_linear and friends stay warm).
    cache.clear()
    t0 = time.perf_counter()
    compile_plan(funcs[0])
    recompile_s = time.perf_counter() - t0

    # Whole-model execution: one compile, depth-1 hits, then an all-warm run.
    model = _repeated_layer_model()
    x = np.random.default_rng(1).standard_normal((8, 12, 12)).astype(np.float32)
    run_cold = run_model(model, {"in": x}, rng=np.random.default_rng(2))
    run_warm = run_model(model, {"in": x}, rng=np.random.default_rng(2))
    return {
        "workload": PLAN_PARAMS.describe(),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "twin_s": twin_s,
        "warm_speedup": cold_s / warm_s if warm_s else float("inf"),
        "twin_speedup": cold_s / twin_s if twin_s else float("inf"),
        "recompile_s": recompile_s,
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "model_cold_hit_rate": run_cold.plan_hit_rate,
        "model_warm_hit_rate": run_warm.plan_hit_rate,
        "model_memory_reuse": run_cold.memory.reuse_ratio,
    }


def plan_smoke() -> None:
    """The CI plan-cache gate (``--plan-smoke``).

    Asserts warm-plan execution is ≥5x faster than cold on the
    repeated-layer workload and that every full-size Table I layer compiles
    to a fully vectorized plan (``fallback_nests == 0``) — plan compilation
    makes the latter checkable without executing a single layer.
    """
    report = bench_plan_cache()
    print(
        f"plan cold {report['cold_s'] * 1e3:6.1f} ms  warm "
        f"{report['warm_s'] * 1e3:6.1f} ms  ({report['warm_speedup']:.1f}x, "
        f"hit rate {report['hit_rate']:.0%}, model warm "
        f"{report['model_warm_hit_rate']:.0%})"
    )
    assert report["warm_speedup"] >= 5.0, (
        f"warm-plan execution only {report['warm_speedup']:.1f}x faster than "
        "cold (floor: 5x)"
    )
    assert report["model_warm_hit_rate"] == 1.0, "warm model run missed the plan cache"
    for index, params in enumerate(TABLE1_LAYERS, start=1):
        plan = compile_plan(_compile_once(params).func)
        assert plan.fallback_nests == 0, (
            f"table1 layer {index} plan has {plan.fallback_nests} fallback nest(s): "
            f"{plan.stats.fallback_reasons}"
        )
        print(f"table1 layer{index:<2} plan ok (fully vectorized)")
    stats = expr_cache_stats()
    assert stats.linear_hits > 0, "extract_linear memoization never hit"
    print(f"plan-cache smoke ok (linear hits: {stats.linear_hits})")


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="skip the Table I sweep")
    parser.add_argument("-o", "--output", default="BENCH_compile_time.json")
    parser.add_argument(
        "--table1-layers", type=int, default=4, help="how many Table I layers to run"
    )
    parser.add_argument(
        "--plan-smoke",
        action="store_true",
        help="run the CI plan-cache gate (5x warm floor + zero Table I "
        "fallbacks) and exit without writing the report",
    )
    parser.add_argument(
        "--native-smoke",
        action="store_true",
        help="run the CI native-tier gate (layer 1 promotes, bit-identical, "
        ">=8x over the vectorized tier where kernels use vpdpbusd; skips "
        "without a toolchain) and exit without writing the report",
    )
    parser.add_argument(
        "--results-db",
        default=None,
        help="telemetry results DB path (default: $REPRO_RESULTS_DB or "
        "./results.db)",
    )
    parser.add_argument(
        "--no-results-db",
        action="store_true",
        help="skip recording this run (and its spans) in the results DB",
    )
    args = parser.parse_args(argv)

    if args.plan_smoke:
        # The CI gates run with *no* telemetry sink installed on purpose:
        # they double as the disabled-overhead check.
        reset_expr_cache_stats()
        plan_smoke()
        return {}
    if args.native_smoke:
        native_smoke()
        return {}

    # Full report runs are instrumented: a tracer collects the spans the
    # library emits (tir.compile_plan, tir.native_promote,
    # tir.sandbox_qualify, ...) and the results DB keeps them per run.
    tracer = None if args.no_results_db else telemetry_trace.install()
    try:
        report = {"benchmark": "compile_time"}
        with span("bench.compile"):
            report["compile"] = bench_compile()
        with span("bench.validation"):
            report["validation"] = bench_validation()
        if not args.quick:
            with span("bench.table1", layers=args.table1_layers):
                report["table1"] = bench_table1_engine(args.table1_layers)
            with span("bench.native_tier"):
                report["native_tier"] = bench_native_tier(1)
            with span("bench.static_analysis", layers=args.table1_layers):
                report["static_analysis"] = bench_static_analysis(args.table1_layers)
        with span("bench.plan_cache"):
            report["plan_cache"] = bench_plan_cache()
        report["expr_cache"] = expr_cache_stats().as_dict()
    finally:
        if tracer is not None:
            telemetry_trace.uninstall()

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)

    if tracer is not None:
        run_id = record_bench(
            "compile_time",
            report,
            db_path=args.results_db,
            spans=tracer.finished(),
        )
        print(
            f"recorded run {run_id} "
            f"({len(tracer.finished())} spans) in "
            f"{args.results_db or default_db_path()}"
        )

    comp, val = report["compile"], report["validation"]
    print(f"compile   cold {comp['cold_s'] * 1e3:8.1f} ms")
    print(
        f"compile   warm {comp['warm_s'] * 1e3:8.1f} ms"
        f"   ({comp['warm_speedup']:.1f}x)"
    )
    print(f"validate scalar {val['scalar_s'] * 1e3:7.1f} ms")
    print(
        f"validate vector {val['vector_s'] * 1e3:7.1f} ms"
        f"   ({val['speedup']:.1f}x, bit_identical={val['bit_identical']})"
    )
    for row in report.get("table1", []):
        print(
            f"table1 layer{row['layer']:<2} {row['macs'] / 1e6:8.1f} MMACs "
            f"plan {row['plan_compile_s'] * 1e3:6.1f} ms "
            f"run {row['vector_s'] * 1e3:7.1f} ms "
            f"({row['intrinsic_round_batches']} round batch(es), "
            f"{row['proved_nests']} proved, {row['elided_checks']} elided)"
        )
    native = report.get("native_tier")
    if native is not None:
        if not native["available"]:
            print(f"native tier unavailable: {native['toolchain']}")
        for row in native["layers"]:
            print(
                f"native layer{row['layer']:<2} vector {row['vector_s'] * 1e3:7.1f} ms "
                f"native {row['native_s'] * 1e3:7.1f} ms "
                f"({row['native_speedup']:.2f}x, "
                f"bit_identical={row['bit_identical']}, tier={row['tier']})"
            )
            _check_native_row(row)
    if "static_analysis" in report:
        sa = report["static_analysis"]
        print(
            f"analysis  {sa['analyze_per_func_ms']:6.1f} ms/func over "
            f"{sa['layers']} layer(s): {sa['proved_nests']}/{sa['total_nests']} "
            f"nests proved ({sa['proved_fraction']:.0%}), "
            f"{sa['elided_checks']} check(s) elided, strict_ok={sa['strict_ok']}"
        )
        assert sa["strict_ok"], "a Table I layer failed the strict analysis sweep"
        assert sa["proved_fraction"] == 1.0, (
            "static analysis failed to prove a Table I nest"
        )
    plan = report["plan_cache"]
    print(
        f"plan cache: cold {plan['cold_s'] * 1e3:6.1f} ms, warm "
        f"{plan['warm_s'] * 1e3:6.1f} ms ({plan['warm_speedup']:.1f}x), "
        f"model warm hit rate {plan['model_warm_hit_rate']:.0%}, "
        f"memory reuse {plan['model_memory_reuse']:.2f}x"
    )
    cache = report["expr_cache"]
    print(
        f"expr caches: simplify {cache['simplify_hit_rate']:.0%} hits, "
        f"linear {cache['linear_hit_rate']:.0%} hits"
    )
    assert val["bit_identical"], "engine output diverged from the interpreter"
    assert val["speedup"] >= 5.0, (
        f"validation speedup {val['speedup']:.1f}x below the 5x floor"
    )
    assert plan["warm_speedup"] >= 5.0, (
        f"warm-plan speedup {plan['warm_speedup']:.1f}x below the 5x floor"
    )
    assert cache["linear_hits"] > 0, (
        "extract_linear memoization never hit — the engine's affine analysis "
        "is no longer routed through the memoized path"
    )
    assert all(row["fallback_nests"] == 0 for row in report.get("table1", [])), (
        "a Table I layer fell back to the scalar interpreter"
    )
    print(f"wrote {args.output}")
    return report


def test_tensorize_compile_time(benchmark):
    result = benchmark(_compile_once)
    assert result.func is not None
    assert result.intrinsic.name == "x86.avx512.vpdpbusd"


def test_validation_engine_speed(benchmark):
    compiled = _compile_once(VALIDATE_PARAMS)
    buffers = alloc_buffers(compiled.func, np.random.default_rng(0))

    def _validate():
        return Executor(tier="vectorized").run(
            compiled.func, {t: a.copy() for t, a in buffers.items()}
        )

    out = benchmark(_validate)
    assert out.shape == compiled.func.output.shape


if __name__ == "__main__":
    main()
