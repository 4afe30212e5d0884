"""Tests for the virtual-ISA code generator."""

import copy

import pytest

from repro.codegen import generate
from repro.codegen.lowlevel import (
    Instruction,
    LoweringError,
    generate_c,
    _intrinsic_native_reason,
    native_support_reason,
)
from repro.core import tensorize
from repro.hwsim import CASCADE_LAKE, CpuKernelModel
from repro.isa.registry import get_intrinsic
from repro.rewriter import CpuTuningConfig
from repro.tir import lower
from repro.workloads import Conv2DParams, conv2d_hwc, conv2d_nchwc
from repro.workloads.table1 import TABLE1_LAYERS
from tests.conftest import small_conv_hwc, small_matmul_fp16


def _tensorized_conv():
    params = Conv2DParams(in_channels=8, in_height=10, in_width=10, out_channels=32, kernel=3)
    return tensorize(conv2d_hwc(params), "x86.avx512.vpdpbusd", config=CpuTuningConfig())


class TestCodegen:
    def test_plain_function_has_loops_and_stores(self):
        result = generate(lower(small_conv_hwc()), target="x86")
        stats = result.stats
        assert stats["loops"] == 9
        assert stats["scalar_store"] == 2
        assert stats["tensorized"] == 0
        assert ".func" in result.text and ".endfunc" in result.text

    def test_tensorized_conv_emits_intrinsic_and_operands(self):
        compiled = _tensorized_conv()
        result = generate(compiled.func, target="x86")
        stats = result.stats
        assert stats["tensorized"] == 1
        # Operand-generation rules: the weight/accumulator operands are vector
        # loads, the activation operand (invariant in the lane loop only via
        # broadcast rules handled per index) contributes a load or broadcast.
        assert stats["vector_load"] + stats["broadcast"] == 3
        assert stats["vector_store"] == 1
        assert "tensor.x86.avx512.vpdpbusd" in result.text
        assert "zmm" in result.text  # x86 register naming

    def test_register_prefix_by_target(self):
        wmma = tensorize(small_matmul_fp16(32, 32, 32), target="cuda")
        result = generate(wmma.func, target="cuda")
        assert "frag" in result.text
        assert result.stats["tensorized"] == 1

    def test_parallel_and_unrolled_loops_marked(self):
        compiled = _tensorized_conv()
        text = generate(compiled.func, target="x86").text
        assert ".parallel_loop" in text
        assert ".unrolled_loop" in text

    def test_unknown_target_falls_back_to_generic_registers(self):
        result = generate(lower(small_conv_hwc()), target="riscv")
        assert result.target == "riscv"


class TestInstructionRender:
    """The operand conditional must bind only the operand suffix."""

    def test_zero_operand_opcode_renders_bare(self):
        for opcode in (".else", ".endif", ".endloop"):
            assert Instruction(opcode).render() == opcode

    def test_operands_joined_after_opcode(self):
        assert Instruction("vload", ["zmm0", "data[0]"]).render() == "vload zmm0, data[0]"

    def test_comment_column_preserved_without_operands(self):
        text = Instruction(".endif", comment="residue guard").render()
        assert text.startswith(".endif")
        assert text.endswith("; residue guard")
        assert " ," not in text and not text.startswith(".endif ,")


class TestDeterminism:
    """Listings and native sources are pure functions of the PrimFunc."""

    def test_listing_round_trips_identical(self):
        func = _tensorized_conv().func
        first = generate(func, target="x86")
        second = generate(func, target="x86")
        assert first.text == second.text
        assert first.stats == second.stats
        assert first.dynamic_stats == second.dynamic_stats

    def test_native_sources_round_trip_identical(self):
        func = lower(small_conv_hwc())
        assert generate_c(func).source == generate_c(func).source


class TestHwsimCrossCheck:
    """The listing's dynamic tensorized-instruction count must agree with the
    analytical cost model's ``instructions`` detail for the real Table-1
    layers: two independent derivations of how many vpdpbusd issues one
    schedule performs (listing = loop-extent products; model = closed-form
    ceil-division counts).  ``enable_unroll=False`` keeps the schedule free of
    residue guards so both sides count exactly the same iteration space."""

    @pytest.mark.parametrize("layer_index", [0, 1, 2])
    def test_dynamic_tensorized_count_matches_cost_model(self, layer_index):
        params = TABLE1_LAYERS[layer_index]
        config = CpuTuningConfig(enable_unroll=False)
        result = tensorize(conv2d_nchwc(params), "x86.avx512.vpdpbusd", config=config)
        listing = generate(result.func, target="x86")
        assert listing.stats["guards"] == 0  # no residue => exact comparison

        model = CpuKernelModel(CASCADE_LAKE, get_intrinsic("x86.avx512.vpdpbusd"))
        cost = model.conv2d_latency(params, config)
        assert listing.dynamic_stats["tensorized"] == int(cost.detail["instructions"])

    def test_dynamic_stats_weight_by_loop_extents(self):
        func = lower(small_conv_hwc())
        listing = generate(func, target="x86")
        # Every store in the listing runs once per surrounding iteration:
        # dynamic counts must dominate the static ones whenever loops exist.
        assert listing.stats["loops"] > 0
        assert (
            listing.dynamic_stats["scalar_store"]
            >= listing.stats["scalar_store"]
        )


class TestNativeSupport:
    def test_proved_integer_conv_is_supported(self):
        assert native_support_reason(lower(small_conv_hwc())) is None

    def test_tensorized_conv_is_supported(self):
        assert native_support_reason(_tensorized_conv().func) is None

    def test_float16_has_no_native_lowering(self):
        wmma = tensorize(small_matmul_fp16(32, 32, 32), target="cuda")
        reason = native_support_reason(wmma.func)
        assert reason is not None and "float16" in reason

    def test_intrinsic_without_a_native_lowering_is_refused(self):
        """``vpdpbusd``'s description with its ``NativeLowering`` taken away:
        an order-free integer dot product the emitter has no spelling for,
        so it has no native form at all."""
        unspelled = copy.copy(get_intrinsic("x86.avx512.vpdpbusd"))
        unspelled.name = "test.vpdpbusd.unspelled"
        unspelled.native_lowering = None
        params = Conv2DParams(in_channels=8, in_height=6, in_width=6, out_channels=16, kernel=1)
        func = tensorize(conv2d_nchwc(params), unspelled).func
        reason = native_support_reason(func)
        assert reason == "intrinsic test.vpdpbusd.unspelled has no NativeLowering"
        with pytest.raises(LoweringError, match="no NativeLowering"):
            generate_c(func)

    @pytest.mark.parametrize("name", ["x86.avx512.mac.int8.widened", "arm.neon.mla.int8.widened"])
    def test_registered_intrinsics_without_a_lowering_are_refused(self, name):
        intrinsic = get_intrinsic(name)
        assert intrinsic.native_lowering is None
        assert _intrinsic_native_reason(intrinsic) == f"intrinsic {name} has no NativeLowering"
