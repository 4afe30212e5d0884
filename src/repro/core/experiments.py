"""Experiment drivers: one function per table/figure of the paper's evaluation.

Each function returns plain data structures (dictionaries / lists of rows)
that the benchmark harness prints and the test suite asserts the qualitative
shape of — who wins, by roughly what factor, and where the crossovers are.
EXPERIMENTS.md records the paper-reported values next to the measured ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..baselines.cudnn import CuDnnModel
from ..baselines.frameworks import MxnetOneDnnRunner, TvmCudnnRunner
from ..baselines.onednn import OneDnnModel
from ..baselines.tvm_baseline import TvmManualModel, TvmNeonModel
from ..graph.estimate import estimate_graph_latency
from ..graph.fuse import fuse_elementwise
from ..graph.quantize import quantize_graph
from ..hwsim.cost import geometric_mean
from ..hwsim.machine import CASCADE_LAKE, GRAVITON2, V100
from ..models.zoo import EVALUATED_MODELS, get_model
from ..rewriter.cpu_tuner import CpuTuningConfig, cpu_tuning_candidates
from ..rewriter.session import TuningSession
from ..rewriter.tuner import exhaustive_search
from ..workloads.conv2d import Conv2DParams
from ..workloads.conv3d import conv3d_from_conv2d
from ..workloads.table1 import TABLE1_LAYERS, table1_as_rows
from .pipeline import UnitCpuRunner, UnitGpuRunner, compile_model

__all__ = [
    "figure1_fp16_without_tensor_core",
    "figure8_cpu_end_to_end",
    "figure9_gpu_end_to_end",
    "figure10_cpu_ablation",
    "figure11_gpu_ablation",
    "figure12_arm_end_to_end",
    "figure13_conv3d",
    "table1_characteristics",
    "tuning_convergence",
    "resnet18_unique_convs",
]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _prepare(graph, dtype: str, fuse: bool):
    g = quantize_graph(graph, dtype)
    if fuse:
        g = fuse_elementwise(g)
    return g


def _e2e_latency(model_name: str, runner, dtype: str, fuse: bool) -> float:
    graph = get_model(model_name, fresh=True)
    g = _prepare(graph, dtype, fuse)
    return estimate_graph_latency(g, runner).total_seconds


def _add_geomean(
    rows: List[Dict], keys: List[str], label_key: str = "model", label: str = "geomean"
) -> Dict:
    """The summary row of a figure: the geomean of ``keys`` over ``rows``.

    All geomean bars route through :func:`repro.hwsim.cost.geometric_mean`
    (one definition of zero/empty handling for the whole suite).
    """
    geo: Dict = {label_key: label}
    for key in keys:
        geo[key] = geometric_mean(r[key] for r in rows)
    return geo


def resnet18_unique_convs(limit: int = 11) -> List[Conv2DParams]:
    """The distinct convolution shapes of ResNet-18 (used for Figure 13)."""
    graph = get_model("resnet-18", fresh=True)
    graph.infer_shapes()
    seen = []
    for node in graph.conv_nodes():
        params = node.conv_params()
        key = (
            params.in_channels,
            params.in_height,
            params.out_channels,
            params.kernel,
            params.stride,
        )
        if key not in [k for k, _ in seen]:
            seen.append((key, params))
    return [p for _, p in seen[:limit]]


# ---------------------------------------------------------------------------
# Figure 1: fp16 without Tensor Core support vs fp32
# ---------------------------------------------------------------------------

def figure1_fp16_without_tensor_core(models: Optional[List[str]] = None) -> List[Dict]:
    """Relative performance of cuDNN fp16 (no Tensor Core) vs cuDNN fp32.

    Paper observation: blindly using mixed precision without hardware support
    is a *slowdown* (all bars below 1.0).
    """
    models = models or EVALUATED_MODELS
    fp32 = TvmCudnnRunner(mode="fp32")
    fp16 = TvmCudnnRunner(mode="fp16_no_tc")
    rows = []
    for name in models:
        t32 = _e2e_latency(name, fp32, "float16", fuse=True)
        t16 = _e2e_latency(name, fp16, "float16", fuse=True)
        rows.append(
            {
                "model": name,
                "cudnn_fp32_ms": t32 * 1e3,
                "cudnn_fp16_no_tc_ms": t16 * 1e3,
                "relative_fp16_vs_fp32": t32 / t16,
            }
        )
    rows.append(_add_geomean(rows, ["relative_fp16_vs_fp32"]))
    return rows


# ---------------------------------------------------------------------------
# Figure 8: quantized inference on Intel VNNI (CPU end to end)
# ---------------------------------------------------------------------------

def figure8_cpu_end_to_end(
    models: Optional[List[str]] = None,
    session: Optional[TuningSession] = None,
) -> List[Dict]:
    """MXNet+oneDNN vs hand-written TVM VNNI schedules vs UNIT (bs = 1).

    Pass a shared ``session`` to reuse tuning records across models, figures
    and runs; repeating the figure through a warm session performs zero
    tuning trials.
    """
    models = models or EVALUATED_MODELS
    session = session if session is not None else TuningSession()
    mxnet = MxnetOneDnnRunner(session=session)
    tvm_manual = TvmManualModel.for_x86()
    rows = []
    for name in models:
        unit_runner = UnitCpuRunner(
            CASCADE_LAKE, "x86.avx512.vpdpbusd", tuning="full", session=session
        )
        t_mxnet = _e2e_latency(name, mxnet, "int8", fuse=False)
        t_tvm = _e2e_latency(name, tvm_manual, "int8", fuse=True)
        t_unit = _e2e_latency(name, unit_runner, "int8", fuse=True)
        rows.append(
            {
                "model": name,
                "mxnet_onednn_ms": t_mxnet * 1e3,
                "tvm_ms": t_tvm * 1e3,
                "unit_ms": t_unit * 1e3,
                "rel_mxnet": 1.0,
                "rel_tvm": t_mxnet / t_tvm,
                "rel_unit": t_mxnet / t_unit,
                "unit_vs_tvm": t_tvm / t_unit,
            }
        )
    rows.append(_add_geomean(rows, ["rel_tvm", "rel_unit", "unit_vs_tvm"]))
    return rows


# ---------------------------------------------------------------------------
# Figure 9: mixed-precision inference on Tensor Core (GPU end to end)
# ---------------------------------------------------------------------------

def figure9_gpu_end_to_end(
    models: Optional[List[str]] = None,
    session: Optional[TuningSession] = None,
) -> List[Dict]:
    """cuDNN fp16 Tensor Core (via TVM offloading) vs UNIT (bs = 1)."""
    models = models or EVALUATED_MODELS
    session = session if session is not None else TuningSession()
    cudnn = TvmCudnnRunner(mode="tensor_core", session=session)
    rows = []
    for name in models:
        unit_runner = UnitGpuRunner(V100, mode="tune", session=session)
        t_cudnn = _e2e_latency(name, cudnn, "float16", fuse=True)
        t_unit = _e2e_latency(name, unit_runner, "float16", fuse=True)
        rows.append(
            {
                "model": name,
                "cudnn_tc_ms": t_cudnn * 1e3,
                "unit_ms": t_unit * 1e3,
                "rel_cudnn": 1.0,
                "rel_unit": t_cudnn / t_unit,
            }
        )
    rows.append(_add_geomean(rows, ["rel_unit"]))
    return rows


# ---------------------------------------------------------------------------
# Figure 10: CPU ablation over the Table I layers
# ---------------------------------------------------------------------------

def figure10_cpu_ablation(
    layers: Optional[List[Conv2DParams]] = None,
    session: Optional[TuningSession] = None,
) -> List[Dict]:
    """oneDNN vs Parallel vs +Unroll vs +Tune, per Table I layer."""
    layers = layers or TABLE1_LAYERS
    session = session if session is not None else TuningSession()
    onednn = OneDnnModel(CASCADE_LAKE)
    rows = []
    for index, params in enumerate(layers, start=1):
        t_onednn = onednn.conv2d_latency(params).seconds
        variants = {}
        for label, tuning in (("parallel", "parallel"), ("unroll", "first_pair"), ("tune", "full")):
            runner = UnitCpuRunner(
                CASCADE_LAKE, "x86.avx512.vpdpbusd", tuning=tuning, session=session
            )
            variants[label] = runner.conv2d_latency(params).seconds
        rows.append(
            {
                "layer": index,
                "onednn_us": t_onednn * 1e6,
                "parallel_us": variants["parallel"] * 1e6,
                "unroll_us": variants["unroll"] * 1e6,
                "tune_us": variants["tune"] * 1e6,
                "rel_parallel": t_onednn / variants["parallel"],
                "rel_unroll": t_onednn / variants["unroll"],
                "rel_tune": t_onednn / variants["tune"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 11: GPU ablation over the Table I layers
# ---------------------------------------------------------------------------

def figure11_gpu_ablation(
    layers: Optional[List[Conv2DParams]] = None,
    session: Optional[TuningSession] = None,
) -> List[Dict]:
    """cuDNN vs Generic vs +FuseDim vs +SplitK vs +Tune, per Table I layer."""
    layers = layers or TABLE1_LAYERS
    session = session if session is not None else TuningSession()
    cudnn = CuDnnModel(V100)
    rows = []
    for index, params in enumerate(layers, start=1):
        t_cudnn = cudnn.conv2d_tensor_core(params).seconds
        variants = {}
        for label, mode in (
            ("generic", "generic"),
            ("fusedim", "fusedim"),
            ("splitk", "splitk"),
            ("tune", "tune"),
        ):
            runner = UnitGpuRunner(V100, mode=mode, session=session)
            variants[label] = runner.conv2d_latency(params).seconds
        rows.append(
            {
                "layer": index,
                "cudnn_us": t_cudnn * 1e6,
                "generic_us": variants["generic"] * 1e6,
                "fusedim_us": variants["fusedim"] * 1e6,
                "splitk_us": variants["splitk"] * 1e6,
                "tune_us": variants["tune"] * 1e6,
                "rel_generic": t_cudnn / variants["generic"],
                "rel_fusedim": t_cudnn / variants["fusedim"],
                "rel_splitk": t_cudnn / variants["splitk"],
                "rel_tune": t_cudnn / variants["tune"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 12: ARM end to end
# ---------------------------------------------------------------------------

def figure12_arm_end_to_end(
    models: Optional[List[str]] = None,
    session: Optional[TuningSession] = None,
) -> List[Dict]:
    """TVM-NEON vs TVM-Manual (hand-written DOT) vs UNIT on the Graviton2."""
    models = models or EVALUATED_MODELS
    session = session if session is not None else TuningSession()
    neon = TvmNeonModel(GRAVITON2)
    manual = TvmManualModel.for_arm()
    rows = []
    for name in models:
        unit_runner = UnitCpuRunner(GRAVITON2, "arm.neon.sdot", tuning="full", session=session)
        t_neon = _e2e_latency(name, neon, "int8", fuse=True)
        t_manual = _e2e_latency(name, manual, "int8", fuse=True)
        t_unit = _e2e_latency(name, unit_runner, "int8", fuse=True)
        rows.append(
            {
                "model": name,
                "tvm_neon_ms": t_neon * 1e3,
                "tvm_manual_ms": t_manual * 1e3,
                "unit_ms": t_unit * 1e3,
                "rel_neon": 1.0,
                "rel_manual": t_neon / t_manual,
                "rel_unit": t_neon / t_unit,
                "unit_vs_manual": t_manual / t_unit,
            }
        )
    rows.append(_add_geomean(rows, ["rel_manual", "rel_unit", "unit_vs_manual"]))
    return rows


# ---------------------------------------------------------------------------
# Figure 13: 3-D convolution extensibility
# ---------------------------------------------------------------------------

def figure13_conv3d(depth: int = 8, session: Optional[TuningSession] = None) -> List[Dict]:
    """oneDNN vs UNIT on the 3-D versions of ResNet-18's convolutions."""
    session = session if session is not None else TuningSession()
    onednn = OneDnnModel(CASCADE_LAKE)
    runner = UnitCpuRunner(CASCADE_LAKE, "x86.avx512.vpdpbusd", tuning="full", session=session)
    rows = []
    for index, conv2d in enumerate(resnet18_unique_convs()):
        params = conv3d_from_conv2d(conv2d, depth=depth)
        t_onednn = onednn.conv3d_latency(params).seconds
        t_unit = runner.conv3d_latency(params).seconds
        rows.append(
            {
                "layer": index,
                "onednn_us": t_onednn * 1e6,
                "unit_us": t_unit * 1e6,
                "rel_unit": t_onednn / t_unit,
            }
        )
    rows.append(_add_geomean(rows, ["rel_unit"], label_key="layer", label="gmean"))
    return rows


# ---------------------------------------------------------------------------
# Table I and the tuning-convergence observation
# ---------------------------------------------------------------------------

def table1_characteristics() -> List[Dict]:
    """The selected convolution layers (straight from Table I)."""
    return table1_as_rows()


def tuning_convergence(layers: Optional[List[Conv2DParams]] = None, max_pairs: int = 16) -> Dict:
    """How quickly the CPU tuning search converges.

    The paper reports that more than half of the kernels are optimal at the
    first tuning pair and more than 95 % within the first eight pairs.
    """
    layers = layers or TABLE1_LAYERS
    from ..hwsim.cpu import CpuKernelModel
    from ..isa.registry import get_intrinsic

    intrin = get_intrinsic("x86.avx512.vpdpbusd")
    model = CpuKernelModel(CASCADE_LAKE, intrin, per_call_overhead_us=0.8)
    candidates = cpu_tuning_candidates(max_pairs=max_pairs)
    ranks = []
    for params in layers:
        result = exhaustive_search(
            candidates, lambda cfg: model.conv2d_latency(params, cfg).seconds
        )
        # A 2% relative tolerance stands in for the profiling noise a physical
        # machine would show between near-identical schedules.
        ranks.append(result.best_rank(tolerance=0.02))
    return {
        "ranks": ranks,
        "optimal_at_first_pair": sum(1 for r in ranks if r == 1) / len(ranks),
        "optimal_within_8_pairs": sum(1 for r in ranks if r <= 8) / len(ranks),
        "num_layers": len(ranks),
        "num_candidates": len(candidates),
    }
