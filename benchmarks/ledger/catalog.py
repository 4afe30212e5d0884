"""The metric catalogue: every name the ledger reports, and ``BENCHMARK.json``.

One table is the source of truth for units, direction, bounds, which
workload's layers a metric belongs to, and which end-to-end metric a
per-layer metric is expected to move.  ``manifest()`` renders it as the root
``BENCHMARK.json``; ``test_catalog.py`` asserts the committed file matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["Metric", "METRICS", "WORKLOADS", "RUN_SECONDS", "unit_of", "end_to_end", "per_layer", "manifest"]

RUN_SECONDS = 16

WORKLOADS = {
    "compile": (
        "adds warm operator sweeps, warm re-compiles (tuner cache hits) and direct hwsim calls to the "
        "48-operator and 27-model sweeps: dsl, inspector, rewriter, tir, analysis, graph, tuner, hwsim"
    ),
    "kernel_steady": (
        "the six primary sections and nothing else (Table I layers 2, 5, 13, 15 on the native and "
        "vectorized tiers, outputs checked against numpy): the control for every secondary section"
    ),
    "model_run": (
        "adds steady mobilenet-v2 runs (dispatch-bound) next to resnet-18 (kernel-bound), and "
        "plan_memory: arena planning, per-node dispatch, plan cache, tier promotion"
    ),
    "service": (
        "adds put bursts, warm sweeps and cold sweeps on fresh daemons to the get bursts of 2 "
        "closed-loop clients: reads, writes and searches share the store and the server loop"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    owner: str  # the workload whose layers produce it, or "all"
    doc: str
    bound: Optional[float] = None  # set on end-to-end metrics only
    moves: str = ""  # the end-to-end metric a per-layer metric should move
    exact: bool = False  # deterministic: must read the same on every run of a workload

    @property
    def end_to_end(self) -> bool:
        return self.bound is not None


def _e2e(name, unit, better, owner, bound, doc, exact=False) -> Metric:
    return Metric(name, unit, better, owner, doc, bound=bound, exact=exact)


def _layer(name, unit, better, owner, moves, doc, exact=False) -> Metric:
    return Metric(name, unit, better, owner, doc, moves=moves, exact=exact)


_LAYERS = (2, 5, 13, 15)

METRICS: List[Metric] = [
    # -- end to end ------------------------------------------------------------
    _e2e("setup_s", "s", "lower", "all", 0.25,
         "normalised set-up time: imports, call counting, references, warm-to-steady (native "
         "promotion, model warm-up), daemon start and cold fill; the cold path in one number"),
    _e2e("peak_rss_mb", "MB", "lower", "all", 0.25,
         "peak resident set of the run plus its largest child (daemon, cc or sandbox)"),
    _e2e("op_compile_ms", "ms", "lower", "compile", 0.25,
         "normalised ms per operator, fresh trees: tensorize -> analyze -> compile_plan"),
    _e2e("model_compile_ms", "ms", "lower", "compile", 0.25,
         "normalised ms per model x target through compile_model with a fresh session per target"),
    _e2e("compile_kcalls", "kcalls", "lower", "compile", 0.005,
         "10^3 Python+C calls (cProfile) of one operator sweep plus one fresh zoo compile, "
         "canonical order, counted at set-up; exact", exact=True),
    _e2e("predicted_speedup_vs_onednn", "x", "higher", "compile", 0.005,
         "hwsim-predicted MXNet+oneDNN latency over UNIT's on x86, geomean over the nine zoo "
         "models (the paper's Fig. 8 headline); exact", exact=True),
    _e2e("native_roofline_pct", "%", "higher", "kernel_steady", 0.25,
         "100 x native-tier GMAC/s over the interleaved roofline microkernel's GMAC/s"),
    _e2e("vector_gmacs_per_s", "GMAC/s", "higher", "kernel_steady", 0.25,
         "normalised GMAC/s of the vectorized tier over the four layers"),
    _e2e("resnet18_run_ms", "ms", "lower", "model_run", 0.25,
         "normalised ms of one steady resnet-18 CompiledModel.run at 32x32"),
    _e2e("svc_get_rps", "req/s", "higher", "service", 0.25,
         "normalised get requests per second, 2 closed-loop clients, bursts of 2 x 500"),
    # -- the issue's other end-to-end metrics, per-layer here (README: why) -------
    _layer("svc_get_ms_p99", "ms", "lower", "service", "svc_get_rps",
           "normalised ms: median over bursts of the burst's 99th-percentile get latency"),
    _layer("model_recompile_ms", "ms", "lower", "compile", "model_compile_ms",
           "normalised ms per model x target with a warm session (all cache hits)"),
    _layer("predicted_ms_geomean", "ms", "lower", "compile", "predicted_speedup_vs_onednn",
           "hwsim-predicted latency, geomean over the 27 model x target pairs; exact", exact=True),
    _layer("mobilenetv2_run_ms", "ms", "lower", "model_run", "",
           "normalised ms of one steady mobilenet-v2 run at 32x32"),
    _layer("model_warmup_s", "s", "lower", "model_run", "setup_s",
           "normalised s of runs 1-3 of a cold resnet-18 (plan compile, vectorized, promotion)"),
    _layer("svc_put_rps", "req/s", "higher", "service", "",
           "normalised put requests per second, 1 connection, fsynced appends"),
    _layer("svc_tune_sweep_ms", "ms", "lower", "service", "setup_s",
           "normalised ms of a cold zoo sweep: 2 clients, 143 coalesced searches, empty store"),
    # -- compile -> op_compile_ms ----------------------------------------------
    _layer("dsl.build_ms", "ms", "lower", "compile", "op_compile_ms", "building the operator's DSL tree"),
    _layer("dsl.expr_cache_hit_rate", "share", "higher", "compile", "op_compile_ms",
           "simplify + extract_linear memo hits over lookups during a cold sweep"),
    _layer("inspector.inspect_ms", "ms", "lower", "compile", "op_compile_ms", "inspect_applicability"),
    _layer("inspector.mappings_total", "count", "higher", "compile", "op_compile_ms",
           "feasible loop mappings found over the 48 operators; exact", exact=True),
    _layer("inspector.applicable_share", "share", "higher", "compile", "op_compile_ms",
           "applicable pairs among 8 registered instructions x 48 operators; exact", exact=True),
    _layer("rewriter.reorg_ms", "ms", "lower", "compile", "op_compile_ms", "reorganize_loops"),
    _layer("rewriter.schedule_ms", "ms", "lower", "compile", "op_compile_ms",
           "apply_cpu_schedule / apply_gpu_schedule"),
    _layer("tir.lower_ms", "ms", "lower", "compile", "op_compile_ms", "lower"),
    _layer("rewriter.replace_ms", "ms", "lower", "compile", "op_compile_ms",
           "replace_tensorize, which includes verify_rewrite"),
    _layer("tir.verify_ms", "ms", "lower", "compile", "op_compile_ms", "verify"),
    _layer("tir.ir_nodes_total", "count", "lower", "compile", "op_compile_ms",
           "count_nodes over the 48 tensorized bodies; exact", exact=True),
    _layer("analysis.analyze_ms", "ms", "lower", "compile", "op_compile_ms", "analyze"),
    _layer("analysis.proved_nest_share", "share", "higher", "compile", "op_compile_ms",
           "nests proved in range over nests analysed; exact", exact=True),
    _layer("tir.compile_plan_ms", "ms", "lower", "compile", "op_compile_ms",
           "compile_plan; also moves model_warmup_s through plan compile"),
    _layer("tir.elided_checks_total", "count", "higher", "compile", "op_compile_ms",
           "runtime checks the proofs let compile_plan skip; exact", exact=True),
    _layer("tir.fallback_nests_total", "count", "lower", "compile", "op_compile_ms",
           "nests left to the interpreter; exact", exact=True),
    _layer("op_compile_warm_ms", "ms", "lower", "compile", "op_compile_ms",
           "the sweep again on the same trees (per-node memos warm)"),
    _layer("op_compile_kcalls", "kcalls", "lower", "compile", "op_compile_ms",
           "cProfile call count of one cold operator sweep; exact", exact=True),
    _layer("op_compile.stage_sum_share", "share", "lower", "compile", "op_compile_ms",
           "sum of stage self times over the untraced sweep; must land in 0.9-1.1"),
    # -- compile -> model_compile_ms --------------------------------------------
    _layer("graph.quantize_ms", "ms", "lower", "compile", "model_compile_ms", "quantize_graph"),
    _layer("graph.fuse_ms", "ms", "lower", "compile", "model_compile_ms", "fuse_elementwise"),
    _layer("graph.layout_ms", "ms", "lower", "compile", "model_compile_ms", "plan_layout"),
    _layer("graph.estimate_ms", "ms", "lower", "compile", "model_compile_ms",
           "estimate_graph_latency self time (tuning excluded)"),
    _layer("tuner.search_ms", "ms", "lower", "compile", "model_compile_ms",
           "session.tune calls that searched; also moves svc_tune_sweep_ms"),
    _layer("tuner.searches_total", "count", "lower", "compile", "model_compile_ms",
           "searches of one fresh zoo compile over three targets; exact", exact=True),
    _layer("tuner.trials_total", "count", "lower", "compile", "model_compile_ms",
           "candidates profiled by those searches; exact", exact=True),
    _layer("tuner.cache_hit_rate", "share", "higher", "compile", "model_recompile_ms",
           "session cache hits over lookups after a fresh plus a warm sweep"),
    _layer("hwsim.eval_us", "us", "lower", "compile", "model_compile_ms",
           "one direct CpuKernelModel.conv2d_latency(params, config)"),
    _layer("model_compile_kcalls", "kcalls", "lower", "compile", "model_compile_ms",
           "cProfile call count of one fresh zoo compile; exact", exact=True),
    _layer("model_compile.stage_sum_share", "share", "lower", "compile", "model_compile_ms",
           "sum of stage self times over the untraced sweep; must land in 0.9-1.1"),
    _layer("predicted_ms_geomean.x86", "ms", "lower", "compile", "predicted_ms_geomean", "exact", exact=True),
    _layer("predicted_ms_geomean.arm", "ms", "lower", "compile", "predicted_ms_geomean", "exact", exact=True),
    _layer("predicted_ms_geomean.cuda", "ms", "lower", "compile", "predicted_ms_geomean", "exact", exact=True),
    # -- kernel_steady ------------------------------------------------------------
    *[
        _layer(f"native.run_ms.L{n}", "ms", "lower", "kernel_steady", "native_roofline_pct",
               f"normalised (cal_c) ms of Table I layer {n} on the native tier")
        for n in _LAYERS
    ],
    _layer("native_gmacs_per_s.raw", "GMAC/s", "higher", "kernel_steady", "native_roofline_pct",
           "un-normalised native-tier GMAC/s"),
    _layer("machine.peak_gmacs_per_s", "GMAC/s", "higher", "kernel_steady", "native_roofline_pct",
           "the roofline microkernel's median rate during this run"),
    _layer("machine.cal_c_ms", "ms", "lower", "kernel_steady", "native_roofline_pct",
           "median C calibration sample"),
    _layer("native.c_source_bytes_total", "bytes", "lower", "kernel_steady", "native_roofline_pct",
           "generate_c source size over the four layers; exact", exact=True),
    _layer("codegen.isa_instructions_total", "count", "lower", "kernel_steady", "native_roofline_pct",
           "virtual-ISA instructions over the four layers; exact", exact=True),
    _layer("native.demotions_total", "count", "lower", "kernel_steady", "native_roofline_pct",
           "kernels demoted off the native tier; exact", exact=True),
    *[
        _layer(f"vector.run_ms.L{n}", "ms", "lower", "kernel_steady", "vector_gmacs_per_s",
               f"normalised ms of Table I layer {n} on the vectorized tier")
        for n in _LAYERS
    ],
    _layer("tir.plan_cache_hit_rate", "share", "higher", "kernel_steady", "vector_gmacs_per_s",
           "process-wide plan-cache hits over lookups during the window"),
    _layer("machine.cal_py_ms", "ms", "lower", "all", "", "median Python calibration sample"),
    # -- model_run ------------------------------------------------------------------
    *[
        _layer(f"graph.{what}.{tag}", unit, "lower", "model_run", f"{tag}_run_ms", doc,
               exact=what == "executor_calls")
        for tag in ("resnet18", "mobilenetv2")
        for what, unit, doc in (
            ("kernel_ms", "ms", "self time of the Executor.run calls of one model run"),
            ("dispatch_ms", "ms", "self time of the model run around them"),
            ("executor_calls", "count", "Executor.run calls per model run; exact"),
        )
    ],
    _layer("graph.plan_memory_ms", "ms", "lower", "model_run", "resnet18_run_ms", "plan_memory on resnet-18"),
    _layer("graph.arena_mb", "MB", "lower", "model_run", "resnet18_run_ms", "activation arena size; exact", exact=True),
    _layer("tir.plan_hits_per_run", "count", "higher", "model_run", "resnet18_run_ms",
           "plan-cache hits of one steady resnet-18 run; exact", exact=True),
    _layer("model_first_run_s", "s", "lower", "model_run", "model_warmup_s", "cold run 1: plan compiles"),
    _layer("model_promote_run_s", "s", "lower", "model_run", "model_warmup_s",
           "cold run 3: native promotion (codegen, cc, sandbox)"),
    _layer("native.codegen_ms", "ms", "lower", "model_run", "model_warmup_s", "generate_c per kernel"),
    _layer("native.cc_ms", "ms", "lower", "model_run", "model_warmup_s",
           "compile_native minus codegen, per kernel"),
    _layer("native.qualify_ms", "ms", "lower", "model_run", "model_warmup_s", "sandbox.qualify per kernel"),
    _layer("native.promotions_total", "count", "higher", "model_run", "model_warmup_s",
           "kernels promoted while warming resnet-18; exact", exact=True),
    # -- service ----------------------------------------------------------------------
    _layer("svc_get_ms_p50", "ms", "lower", "service", "svc_get_rps", "normalised median get latency"),
    _layer("svc_get_ms_p90", "ms", "lower", "service", "svc_get_rps", "normalised 90th-percentile get latency"),
    _layer("protocol.roundtrip_us", "us", "lower", "service", "svc_get_rps",
           "encode -> socketpair -> decode of one get response"),
    _layer("protocol.get_frame_bytes", "bytes", "lower", "service", "svc_get_rps",
           "framed size of one get response; exact", exact=True),
    _layer("store.get_us", "us", "lower", "service", "svc_get_rps", "direct ShardedTuningStore.get"),
    _layer("svc.daemon_cpu_share", "share", "lower", "service", "svc_get_rps",
           "daemon CPU seconds over get-burst wall seconds"),
    _layer("svc.client_cpu_share", "share", "lower", "service", "svc_get_rps",
           "client-process CPU seconds over get-burst wall seconds"),
    _layer("svc.retries_total", "count", "lower", "service", "svc_get_rps",
           "reconnects of the burst clients beyond their first connect; exact", exact=True),
    _layer("store.put_ms", "ms", "lower", "service", "svc_put_rps", "direct fsynced ShardedTuningStore.put"),
    _layer("store.bytes_per_record", "bytes", "lower", "service", "svc_put_rps", "shard bytes per record; exact", exact=True),
    _layer("store.lock_wait_share", "share", "lower", "service", "svc_put_rps",
           "daemon-side shard-lock wait over put-burst wall seconds"),
    _layer("svc.searches_total", "count", "lower", "service", "svc_tune_sweep_ms",
           "server-side searches of the cold fill; must equal 143; exact", exact=True),
    _layer("svc.coalesced_waiters", "count", "higher", "service", "svc_tune_sweep_ms",
           "requests that joined another client's search (depends on thread timing)"),
    _layer("svc.start_s", "s", "lower", "service", "setup_s", "daemon spawn until it reports its port"),
    _layer("svc_warm_sweep_ms", "ms", "lower", "service", "svc_get_rps",
           "normalised ms of a zoo sweep through a fresh RemoteSession, all server hits"),
    # -- every workload -------------------------------------------------------------------
    _layer("trace.overhead_share", "share", "lower", "all", "",
           "span-wrapped units over the same units unwrapped, minus 1"),
    *[
        _layer(f"{name}.raw", unit, better, owner, name, f"un-normalised {name}")
        for name, unit, better, owner in (
            ("setup_s", "s", "lower", "all"),
            ("op_compile_ms", "ms", "lower", "compile"),
            ("model_compile_ms", "ms", "lower", "compile"),
            ("vector_gmacs_per_s", "GMAC/s", "higher", "kernel_steady"),
            ("resnet18_run_ms", "ms", "lower", "model_run"),
            ("svc_get_rps", "req/s", "higher", "service"),
            ("svc_get_ms_p99", "ms", "lower", "service"),
        )
    ],
    *[
        _layer(f"setup.{stage}_s", "s", "lower", owner, "setup_s", f"normalised set-up time of {what}")
        for stage, owner, what in (
            ("import", "all", "imports and the microkernel build"),
            ("compile", "compile", "the compile sections (reference walk, expected latencies)"),
            ("kernel_steady", "kernel_steady", "the kernel section (tensorize, references, promotion)"),
            ("model_run", "model_run", "the model section (reference run, warm-up)"),
            ("service", "service", "the service section (daemon start, cold fill)"),
            ("warm", "all", "the discarded warm-up round"),
        )
    ],
    _layer("rss.self_mb", "MB", "lower", "all", "peak_rss_mb", "peak resident set of the run's own process"),
    _layer("rss.child_mb", "MB", "lower", "all", "peak_rss_mb",
           "peak resident set of the largest child: daemon, cc, or a sandbox fork of this process"),
    _layer("machine.cal_share", "share", "higher", "all", "", "calibration time over timed time"),
    _layer("window.rounds", "count", "higher", "all", "", "rounds completed in the window"),
    _layer("window.seconds", "s", "lower", "all", "", "wall length of the window"),
]

_BY_NAME: Dict[str, Metric] = {metric.name: metric for metric in METRICS}
if len(_BY_NAME) != len(METRICS):
    raise AssertionError("duplicate metric name in the catalogue")


def unit_of(name: str) -> str:
    return _BY_NAME[name].unit


def end_to_end() -> List[Metric]:
    return [metric for metric in METRICS if metric.end_to_end]


def per_layer() -> List[Metric]:
    return [metric for metric in METRICS if not metric.end_to_end]


def manifest() -> dict:
    """The contents of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in end_to_end()
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in per_layer()],
    }
