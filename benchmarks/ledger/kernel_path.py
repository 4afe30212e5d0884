"""Generated-code speed: Table I layers through the native and vectorized tiers.

The compile side is outside the window: layers are tensorized for VNNI and
promoted to the native tier at set-up.  Each round runs every layer through
``Executor(tier="native")`` (two passes) and through
``Executor(tier="vectorized")`` (one) — two tiers side by side, so a gain for
one that costs the other shows — with the roofline microkernel interleaved
as the native tier's calibrator.  Every output is compared bit for bit with the
benchmark-local numpy reference.

Layers (Table I numbering), chosen to span the shapes the zoo contains while
keeping native promotion (cc + sandbox, ~0.6 s per layer) affordable at
set-up: L2 3x3 on a small 7x7 map, L5 3x3 on a mid 14x14 map, L13 1x1 with a
wide (576) reduction, L15 1x1 stride 2 on a large 28x28 map.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.codegen import generate
from repro.codegen.lowlevel import generate_c
from repro.core import tensorize
from repro.tir import Executor, plan_cache, tier_state
from repro.workloads import conv2d_nchwc
from repro.workloads.table1 import table1_layer

from .checks import same_bits
from .compile_path import VNNI
from .harness import Context, Section
from .machine import CAL_REF_C_S, PEAK_MACS_PER_CALL
from .reference import conv2d_blocked_reference, conv2d_implicit_gemm_reference

LAYERS = (2, 5, 13, 15)
NATIVE_PASSES = 2


class _Layer:
    def __init__(self, index: int, rng) -> None:
        self.index = index
        self.params = table1_layer(index)
        self.func = tensorize(conv2d_nchwc(self.params), VNNI).func
        self.buffers: Dict[object, np.ndarray] = {}
        operands = {}
        for tensor in self.func.params:
            if tensor is self.func.output:
                array = np.zeros(tensor.shape, dtype=tensor.dtype.np_dtype)
            else:
                info = np.iinfo(tensor.dtype.np_dtype)
                array = rng.integers(info.min, info.max + 1, tensor.shape, dtype=tensor.dtype.np_dtype)
                operands[tensor.name] = array
            self.buffers[tensor] = array
        self.output = self.buffers[self.func.output]
        self.expected = conv2d_blocked_reference(
            operands["data"], operands["weight"], self.params.stride
        )
        if not same_bits(
            self.expected,
            conv2d_implicit_gemm_reference(operands["data"], operands["weight"], self.params.stride),
        ):
            raise RuntimeError(f"the two references disagree on Table I layer {index}")

    def run(self, executor: Executor) -> np.ndarray:
        return executor.run(self.func, self.buffers)


class Kernels(Section):
    family = "kernel_steady"

    def setup(self, ctx: Context) -> None:
        rng = ctx.rng("kernel-buffers")
        self.layers: List[_Layer] = [_Layer(index, rng) for index in LAYERS]
        order = ctx.rng("kernel-order").permutation(len(self.layers))
        self.order = [self.layers[i] for i in order]
        # promote_after=1: the first run is vectorized and promotes; warm-up
        # policy is the model section's subject, not this one's.
        self.native = Executor(tier="native", promote_after=1)
        self.vector = Executor(tier="vectorized")
        self.promoted = True
        for layer in self.layers:
            for executor in (self.vector, self.native, self.native):
                layer.output[...] = 0
                ctx.check(
                    same_bits(layer.run(executor), layer.expected),
                    f"kernel L{layer.index} set-up run on {executor.tier} differs from the reference",
                )
            state = tier_state(plan_cache().get_or_compile(layer.func))
            if state.tier != "native":
                self.promoted = False
                ctx.check(False, f"kernel L{layer.index} did not promote: {state.demotion_reason}")
        cache = plan_cache().stats
        self.cache_before = (cache.hits, cache.misses)

    def _pass(self, ctx: Context, executor: Executor, cal: str, prefix: str):
        raw = norm = 0.0
        for layer in self.order:
            layer.output[...] = 0
            out, sample = ctx.clock.timed(f"{prefix}.L{layer.index}", lambda: layer.run(executor), cal=cal)
            ok = same_bits(out, layer.expected) and (prefix != "native" or self.promoted)
            ctx.check(ok, f"kernel L{layer.index} on {prefix} differs from the numpy reference")
            ctx.add(f"{prefix}.run_ms.L{layer.index}", sample.norm * 1e3)
            raw += sample.raw
            norm += sample.norm
        return raw, norm

    def round(self, ctx: Context) -> None:
        macs = sum(layer.params.macs for layer in self.layers)
        # One native pass is ~0.09 s against ~0.3 s for every other section.
        raw = norm = 0.0
        for _ in range(NATIVE_PASSES):
            pass_raw, pass_norm = self._pass(ctx, self.native, "c", "native")
            raw += pass_raw / NATIVE_PASSES
            norm += pass_norm / NATIVE_PASSES
        # The microkernel brackets every native run, so the normalised rate
        # over the reference peak rate *is* the interleaved roofline ratio.
        peak_ref = PEAK_MACS_PER_CALL / CAL_REF_C_S
        ctx.add("native_roofline_pct", 100.0 * (macs / norm) / peak_ref)
        ctx.add("native_gmacs_per_s.raw", macs / raw / 1e9)
        raw, norm = self._pass(ctx, self.vector, "py", "vector")
        ctx.add("vector_gmacs_per_s", macs / norm / 1e9)
        ctx.add("vector_gmacs_per_s.raw", macs / raw / 1e9)

    def finish(self, ctx: Context) -> None:
        cache = plan_cache().stats
        hits = cache.hits - self.cache_before[0]
        misses = cache.misses - self.cache_before[1]
        ctx.set("tir.plan_cache_hit_rate", hits / max(1, hits + misses))
        samples = ctx.clock.cal_samples["c"]
        ctx.set("machine.peak_gmacs_per_s", PEAK_MACS_PER_CALL / float(np.median(samples)) / 1e9)
        ctx.set("native.demotions_total", self.native.stats.native_demotions)
        ctx.set(
            "native.c_source_bytes_total",
            sum(len(generate_c(layer.func).source.encode()) for layer in self.layers),
        )
        ctx.set(
            "codegen.isa_instructions_total",
            sum(len(generate(layer.func, "x86").instructions) for layer in self.layers),
        )
