#!/usr/bin/env python3
"""End-to-end model inference: compile ResNet-50 with UNIT and compare baselines.

Reproduces, for a single model, what Figures 8 and 9 do for the whole zoo:
quantize the graph, fuse elementwise operators, plan the blocked layout, tune
every convolution/dense layer, and estimate the end-to-end latency — then do
the same under the MXNet+oneDNN and TVM+cuDNN baselines.  Those numbers are
hwsim predictions; the last step executes a compiled model (ResNet-18 at
32x32, through ``CompiledModel.run``) and checks its bytes against the
node-by-node oracle ``execute_graph``.

Run:  python examples/end_to_end_resnet.py [model-name]
"""

import sys

import numpy as np

from repro.baselines import MxnetOneDnnRunner, TvmCudnnRunner
from repro.core import UnitCpuRunner, UnitGpuRunner, compile_model
from repro.graph import (
    estimate_graph_latency,
    execute_graph,
    fuse_elementwise,
    quantize_graph,
    rescale_input,
)
from repro.models import EVALUATED_MODELS, get_model
from repro.tir.backend import same_bits


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "resnet-50"
    if name not in EVALUATED_MODELS:
        raise SystemExit(f"unknown model {name!r}; choose from {EVALUATED_MODELS}")

    graph = get_model(name, fresh=True)
    print(f"model: {name}  ({len(graph.conv_nodes())} convolutions, "
          f"{graph.total_macs/1e9:.2f} GMACs)")

    # --- CPU (Intel VNNI) -------------------------------------------------------
    unit_cpu = compile_model(graph, target="x86")
    mxnet_graph = quantize_graph(get_model(name, fresh=True), "int8")
    mxnet = estimate_graph_latency(mxnet_graph, MxnetOneDnnRunner())
    print("\n-- Cascade Lake (int8 / VNNI) --")
    print(f"UNIT           : {unit_cpu.latency_ms:8.3f} ms")
    print(f"MXNet + oneDNN : {mxnet.total_milliseconds:8.3f} ms   "
          f"(UNIT speedup {mxnet.total_seconds / unit_cpu.report.total_seconds:.2f}x)")
    print("slowest UNIT layers:", ", ".join(unit_cpu.report.slowest_nodes(3)))

    # --- GPU (Tensor Core) --------------------------------------------------------
    unit_gpu = compile_model(get_model(name, fresh=True), target="cuda")
    cudnn_graph = fuse_elementwise(quantize_graph(get_model(name, fresh=True), "float16"))
    cudnn = estimate_graph_latency(cudnn_graph, TvmCudnnRunner(mode="tensor_core"))
    print("\n-- V100 (fp16 / Tensor Core) --")
    print(f"UNIT           : {unit_gpu.latency_ms:8.3f} ms")
    print(f"TVM + cuDNN    : {cudnn.total_milliseconds:8.3f} ms   "
          f"(UNIT speedup {cudnn.total_seconds / unit_gpu.report.total_seconds:.2f}x)")

    # --- ARM (DOT) -----------------------------------------------------------------
    unit_arm = compile_model(get_model(name, fresh=True), target="arm")
    print("\n-- Graviton2 (int8 / DOT) --")
    print(f"UNIT           : {unit_arm.latency_ms:8.3f} ms")

    # --- Executed, not predicted -----------------------------------------------------
    # The x86-compiled graph runs numerically (fp32 kernels on the vectorized
    # tier) through the memory-planned program; a second run is warm.
    small = compile_model(rescale_input(get_model("resnet-18", fresh=True), 32), target="x86")
    entry = small.graph.nodes[0]
    shape = (entry.shape.channels, entry.shape.height, entry.shape.width)
    image = {entry.name: np.random.default_rng(0).standard_normal(shape).astype(np.float32)}
    small.run(image, rng=np.random.default_rng(1))
    run = small.run(image, rng=np.random.default_rng(1))
    expected = execute_graph(small.graph, image, rng=np.random.default_rng(1))
    if not same_bits(run.output, expected[small.graph.nodes[-1].name]):
        raise SystemExit("CompiledModel.run differs from execute_graph")
    print("\n-- resnet-18 at 32x32, executed on this machine (x86 graph) --")
    print(f"warm run       : {run.seconds * 1e3:8.3f} ms   (bytes equal execute_graph's)")
    print(f"arena          : {run.memory.arena_bytes / 1e6:8.3f} MB   "
          f"({run.memory.reuse_ratio:.1f}x smaller than per-op allocation)")
    print(f"plan hits      : {run.plan_hits} of {run.plan_hits + run.plan_misses}")


if __name__ == "__main__":
    main()
