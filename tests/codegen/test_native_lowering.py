"""The native tier is the hardware instruction (``NativeLowering``).

``generate_c`` writes each tensorized region as the vendor intrinsic and
nothing else: the source is the same on every host and has no ``#if``.  A
kernel builds only where the compiler defines the instruction's feature
macro, so every bit-identity test here builds with the flags kernels are
really built with and is skipped where the toolchain probe
(``backend.cc_macros``) lacks the macro.  Where it lacks it, a plan that
calls the instruction must stay vectorized, with a reason naming the macro.
"""

import dataclasses
import re
import shutil
import subprocess

import numpy as np
import pytest

from repro.codegen.lowlevel import generate_c
from repro.core import tensorize
from repro.dsl import expr as E
from repro.isa import get_intrinsic
from repro.rewriter import CpuTuningConfig
from repro.tir import Executor, alloc_buffers, lower, native_toolchain, plan_cache, run, tier_state
from repro.tir import backend
from repro.tir.lower import PrimFunc
from repro.tir.stmt import IfThenElse, IntrinsicCall
from repro.tir.visitor import StmtMutator, collect, iter_nests
from repro.workloads import Conv2DParams, conv2d_nchwc
from repro.workloads.table1 import TABLE1_LAYERS
from tests.conftest import build_kernel, scaled_table1, small_conv_hwc

TOOLCHAIN_KIND, COMPILER = native_toolchain()
needs_toolchain = pytest.mark.skipif(
    TOOLCHAIN_KIND is None, reason="no native toolchain (C compiler)"
)
HOST_FLAG = "-march=native"

# instruction -> (its conv2d_nchwc operand layout, C spelling, feature macro)
X86 = {
    "x86.avx512.vpdpbusd": (dict(), "_mm512_dpbusd_epi32(", "__AVX512VNNI__"),
    "x86.avx512.vpdpwssd": (
        dict(reduction=2, in_dtype="int16", weight_dtype="int16"),
        "_mm512_dpwssd_epi32(",
        "__AVX512VNNI__",
    ),
}
ARM = {
    "arm.neon.sdot": (dict(lanes=4, in_dtype="int8"), "vdotq_s32(", "__ARM_FEATURE_DOTPROD"),
    "arm.neon.udot": (dict(lanes=4, weight_dtype="uint8"), "vdotq_u32(", "__ARM_FEATURE_DOTPROD"),
}
LAYERS = range(1, len(TABLE1_LAYERS) + 1)
# Table I layers whose output width the unroll band does not divide: the
# instruction sits under a ``likely`` residue guard.
GUARDED = (1, 4, 14)
# The same guard (OW = 17) on a kernel small enough for the interpreter.
RESIDUE = Conv2DParams(
    in_channels=8, in_height=9, in_width=33, out_channels=16, kernel=1, stride=2, name="residue"
)
# With ``mapping_index=4`` the instruction's lanes map onto OW (stride 2).
OW_LANES = Conv2DParams(
    in_channels=8, in_height=5, in_width=31, out_channels=16, kernel=1, stride=2, name="ow_lanes"
)


def _host_defines(macro: str) -> bool:
    return macro in backend.cc_macros()


def _tensorized(params: Conv2DParams, name: str, table=X86, **kwargs):
    return tensorize(conv2d_nchwc(params, **table[name][0]), name, **kwargs).func


def _assert_host_build_matches_interpreter(func, tmp_path, seed=0):
    """Build ``func`` as kernels are built and hold it against the scalar
    interpreter; skip where the probe lacks an instruction's feature macro."""
    reason = backend.instruction_support_reason(func)
    if reason is not None:
        pytest.skip(reason)
    source = generate_c(func)
    buffers = alloc_buffers(func, np.random.default_rng(seed))
    expected = run(func, {t: a.copy() for t, a in buffers.items()})
    kernel = build_kernel(source, backend.cc_flags(), tmp_path, "host")
    got = kernel.run([buffers[p].copy() for p in func.params])
    assert backend.same_bits(got, expected), f"host build of {func.name}"
    return source


def _call_blocks(source: str, spelling: str):
    """The text of every ``{`` ... ``}`` block the emitter wraps one
    ``IntrinsicCall`` in (the blocks that spell the instruction)."""
    lines = source.splitlines()
    blocks = []
    for start, line in enumerate(lines):
        if line.strip() != "{":
            continue
        close = line.replace("{", "}")
        end = next(i for i in range(start + 1, len(lines)) if lines[i] == close)
        block = "\n".join(lines[start + 1 : end])
        if spelling in block:
            blocks.append(block)
    return blocks


def _register_tile(source: str, vector_type: str, load: str, store: str):
    """The one register tile of ``source``, checked for its shape: a
    ``vector_type accN[count]`` array, one accumulator ``load`` per register
    right above the tile's reduction loops, one ``store`` per register right
    below them, and no other ``store`` of the instruction anywhere.  Returns
    ``(count, loops)``: the register count and the text of the loops."""
    lines = source.splitlines()
    declared = re.compile(rf"(\s*){re.escape(vector_type)} (acc\d+)\[(\d+)\];")
    (start,) = [i for i, line in enumerate(lines) if declared.fullmatch(line)]
    indent, name, count = declared.fullmatch(lines[start]).groups()
    count = int(count)
    head = start + 1 + count
    for slot, line in enumerate(lines[start + 1 : head]):
        assert line.startswith(f"{indent}{name}[{slot}] = {load}")
    assert lines[head].startswith(f"{indent}for (")
    end = next(i for i in range(head + 1, len(lines)) if lines[i] == f"{indent}}}")
    for slot, line in enumerate(lines[end + 1 : end + 1 + count]):
        assert line.startswith(f"{indent}{store}") and line.endswith(f", {name}[{slot}]);")
    assert source.count(store) == count
    return count, "\n".join(lines[head : end + 1])


def _assert_one_call_at_a_time(source, spelling):
    """No register tile: every call block spells the instruction once and
    stores its result itself (to the program, or to a staged register)."""
    assert source.tiled_nests == 0
    assert not re.search(r"\bacc\d+\[", source.source)
    blocks = _call_blocks(source.source, spelling)
    assert blocks
    for block in blocks:
        assert block.count(spelling) == 1
        assert block.count("_mm512_storeu_si512(") == 1


def _inner_registers(func) -> int:
    """How many instruction calls the band below the innermost reduction
    loop of ``func``'s intrinsic nest runs side by side."""
    (nest,) = [n for n in iter_nests(func) if isinstance(n.body, IntrinsicCall)]
    return int(np.prod([n for k, (_, n) in enumerate(nest.axes) if k > max(nest.reduction)]))


class TestEmittedText:
    @pytest.mark.parametrize("name", sorted(X86))
    @pytest.mark.parametrize("index", LAYERS, ids=lambda i: f"layer{i}")
    def test_table1_instruction_once_per_call(self, index, name):
        """Full-size Table I: every ``IntrinsicCall`` spells the instruction
        exactly once, straight from program memory (the blocked layout is
        register-contiguous: no staged operand), and the source has no
        ``#if``: there is no second, scalar copy of the region.  An unguarded
        band keeps its accumulators in registers: the call block loads only
        the weights and broadcasts only the data group, and the tile loads
        and stores each register once, outside the reduction loops."""
        _, spelling, _ = X86[name]
        func = _tensorized(TABLE1_LAYERS[index - 1], name)
        calls = collect(func.body, lambda s: isinstance(s, IntrinsicCall))
        source = generate_c(func)
        assert source.instructions == (get_intrinsic(name).native_lowering.instruction,)
        assert "#if" not in source.source and "#else" not in source.source
        assert source.source.count(spelling) == len(calls) >= 1
        blocks = _call_blocks(source.source, spelling)
        assert len(blocks) == len(calls)
        guarded = index in GUARDED
        assert source.tiled_nests == (0 if guarded else 1)
        for block in blocks:
            assert block.count(spelling) == 1
            # the weights (and, per call, the accumulator)
            assert block.count("_mm512_loadu_si512(") == (2 if guarded else 1)
            assert block.count("_mm512_set1_epi32(") == 1  # the data group
            assert block.count("_mm512_storeu_si512(") == (1 if guarded else 0)
            assert "for (" not in block and "= {0}" not in block
        if not guarded:
            count, loops = _register_tile(
                source.source, "__m512i", "_mm512_loadu_si512(", "_mm512_storeu_si512("
            )
            assert count == _inner_registers(func) <= 16
            assert loops.count("_mm512_loadu_si512(") == len(calls)  # the weights

    def test_header_only_in_sources_that_use_it(self):
        plain = generate_c(lower(small_conv_hwc()))
        assert plain.instructions == ()
        assert "immintrin" not in plain.source and "#if" not in plain.source
        tensorized = generate_c(_tensorized(scaled_table1(TABLE1_LAYERS[1]), "x86.avx512.vpdpbusd"))
        assert tensorized.source.count("#include <immintrin.h>\n") == 1
        assert "#if" not in tensorized.source

    def test_threads_are_not_an_option(self):
        """Which loops run across threads is the emitter's proof, not a
        switch: one ``repro_for`` per proved loop, and no ``parallel=`` kwarg."""
        func = _tensorized(scaled_table1(TABLE1_LAYERS[1]), "x86.avx512.vpdpbusd")
        source = generate_c(func)
        assert source.source.count("repro_for(repro_pool, ") == source.parallel_loops == 2
        assert "pragma" not in source.source
        with pytest.raises(TypeError):
            generate_c(func, parallel=True)

    @pytest.mark.parametrize("name", sorted(ARM))
    def test_arm_dot_emits_vdotq(self, name, tmp_path):
        """Text-tested on any host; built and run only where the probe
        defines ``__ARM_FEATURE_DOTPROD``."""
        _, spelling, macro = ARM[name]
        func = _tensorized(scaled_table1(TABLE1_LAYERS[1], spatial=4), name, table=ARM)
        source = generate_c(func)
        assert source.instructions == (name.rsplit(".", 1)[1],)
        assert "#include <arm_neon.h>\n" in source.source and "#if" not in source.source
        (block,) = _call_blocks(source.source, spelling)
        assert block.count(spelling) == 1
        elem = "s8" if name.endswith("sdot") else "u8"
        assert f"vreinterpretq_{elem}_s32(vdupq_n_s32(grp2))" in block
        assert f"{'int8' if elem == 's8' else 'uint8'}x16_t vec4 = vld1q_{elem}(" in block
        if TOOLCHAIN_KIND is not None and _host_defines(macro):
            _assert_host_build_matches_interpreter(func, tmp_path)

    @pytest.mark.parametrize("name", sorted(ARM))
    def test_arm_dot_keeps_the_accumulators_in_registers(self, name):
        """The NEON spellings tile the band like the AVX-512 ones: one
        ``vld1q_s32`` and one ``vst1q_s32`` per accumulator register,
        outside the reduction loops, and none in the call block."""
        _, spelling, _ = ARM[name]
        func = _tensorized(scaled_table1(TABLE1_LAYERS[1], spatial=4), name, table=ARM)
        source = generate_c(func)
        assert source.tiled_nests == 1
        count, loops = _register_tile(source.source, "int32x4_t", "vld1q_s32(", "vst1q_s32(")
        assert count == _inner_registers(func) == 8
        assert source.source.count("vld1q_s32(") == count
        (block,) = _call_blocks(source.source, spelling)
        assert block in loops and "vld1q_s32(" not in block
        # the instruction reads and writes the same register
        assert re.search(rf"(acc\d+\[[^\]]+\]) = .*{re.escape(spelling)}.*\1", block)


@needs_toolchain
class TestHostBuildMatchesInterpreter:
    @pytest.mark.parametrize("name", sorted(X86))
    @pytest.mark.parametrize("index", LAYERS, ids=lambda i: f"layer{i}")
    def test_table1_layer(self, index, name, tmp_path):
        # spatial=4: the scalar interpreter is the oracle, 32 times over.
        func = _tensorized(scaled_table1(TABLE1_LAYERS[index - 1], spatial=4), name)
        _assert_host_build_matches_interpreter(func, tmp_path, seed=index)

    @pytest.mark.parametrize("name", sorted(X86))
    def test_residue_guarded_extent(self, name, tmp_path):
        """OW = 17 does not divide its tile: the instruction sits under a
        ``likely`` guard and must only touch the in-range lanes' memory."""
        func = _tensorized(RESIDUE, name)
        assert collect(func.body, lambda s: isinstance(s, IfThenElse) and s.likely)
        # The guard sits inside the band: no register tile.
        _assert_one_call_at_a_time(generate_c(func), X86[name][1])
        _assert_host_build_matches_interpreter(func, tmp_path)

    @pytest.mark.parametrize("name", sorted(X86))
    def test_staged_fill_still_uses_the_instruction(self, name, tmp_path):
        """Lanes mapped onto OW (stride 2): the data operand and the
        accumulator are strided in memory, so their *fill* goes through a
        stack array — the instruction itself is still emitted, once."""
        _, spelling, _ = X86[name]
        func = _tensorized(OW_LANES, name, mapping_index=4)
        source = _assert_host_build_matches_interpreter(func, tmp_path)
        _assert_one_call_at_a_time(source, spelling)  # a staged output: no register tile
        (block,) = _call_blocks(source.source, spelling)
        assert block.count(spelling) == 1
        data_reg = "vnni_a" if name.endswith("busd") else "vnni16_a"
        assert f"t_{data_reg}[" in block and "= {0};" in block  # staged data fill
        assert block.count("_mm512_set1_epi32(") == 1  # the weights broadcast instead
        assert block.count("_mm512_storeu_si512((void*)(t_") == 1  # staged scatter

    @pytest.mark.parametrize("name", sorted(X86))
    def test_host_build_executes_the_instruction(self, name, tmp_path):
        _, _, macro = X86[name]
        if not _host_defines(macro):
            pytest.skip(f"{HOST_FLAG} does not define {macro} on this host")
        source = generate_c(_tensorized(scaled_table1(TABLE1_LAYERS[4]), name))
        c_path = tmp_path / "kernel.c"
        c_path.write_text(source.source)
        flags = [flag for flag in backend.cc_flags() if flag != "-shared"]
        listing = subprocess.run(
            [str(COMPILER), *flags, "-S", "-o", "-", str(c_path)],
            check=True, capture_output=True, text=True,
        ).stdout
        assert source.instructions[0] in listing


class _SwapCall(StmtMutator):
    def __init__(self, call) -> None:
        self.call = call

    def mutate_intrinsiccall(self, stmt):
        return self.call


class TestRegisterTileRefusals:
    """Bands whose accumulators may not stay in registers keep today's one
    call at a time, and still match the interpreter byte for byte."""

    @pytest.mark.parametrize("name", sorted(X86))
    def test_more_registers_than_the_cap(self, name, tmp_path):
        """``unroll_limit=32`` puts all 28 output columns of Table I layer 15
        below its reduction loop: 28 registers, over the cap of 16.  Built on
        a twin with the layer's width, kernel and stride and fewer rows and
        channels, so the interpreter finishes."""
        config = CpuTuningConfig(unroll_limit=32)
        full = _tensorized(TABLE1_LAYERS[14], name, config=config)
        assert _inner_registers(full) == 28
        _assert_one_call_at_a_time(generate_c(full), X86[name][1])
        twin = Conv2DParams(
            in_channels=8, in_height=5, in_width=56, out_channels=16, kernel=1, stride=2,
            name="layer15_rows",
        )
        func = _tensorized(twin, name, config=config)
        assert _inner_registers(func) == 28
        _assert_one_call_at_a_time(generate_c(func), X86[name][1])
        _assert_host_build_matches_interpreter(func, tmp_path)

    @pytest.mark.parametrize("halved", ["output", "accumulator"])
    @pytest.mark.parametrize("name", sorted(X86))
    def test_hand_built_band(self, name, halved, tmp_path):
        """Hand-built from a band that tiles: the index of the output and its
        accumulator (``"output"``), or of the accumulator alone
        (``"accumulator"``), names the inner loop ``ow`` as ``ow // 2``.
        Either two points below the reduction loops update one register's
        memory, or a point reads another point's block: one call at a time
        computes both right, registers loaded once per point would not."""
        func = _tensorized(scaled_table1(TABLE1_LAYERS[1], spatial=4), name)
        assert generate_c(func).tiled_nests == 1
        (call,) = collect(func.body, lambda s: isinstance(s, IntrinsicCall))
        out = call.output
        (ow,) = [v for i in out.program_indices for v in E.free_vars(i) if v.name == "ow"]

        def halve(binding):
            indices = tuple(E.substitute(i, {ow: ow // 2}) for i in binding.program_indices)
            return dataclasses.replace(binding, program_indices=indices)

        inputs = [halve(b) if b.program_tensor is out.program_tensor else b for b in call.inputs]
        output = halve(out) if halved == "output" else out
        swapped = IntrinsicCall(call.intrin, inputs, output, call.axes, call.reads_output)
        func = PrimFunc(func.name, func.params, _SwapCall(swapped).mutate(func.body), func.op)
        _assert_one_call_at_a_time(generate_c(func), X86[name][1])
        _assert_host_build_matches_interpreter(func, tmp_path)


def _assert_stays_vectorized(func, macro):
    """``func`` runs under a native executor that promotes after one warm
    run, yet stays vectorized: the reason names ``macro``, and the output is
    the interpreter's bytes."""
    plan_cache().clear()
    buffers = alloc_buffers(func, np.random.default_rng(0))
    expected = run(func, {t: a.copy() for t, a in buffers.items()})
    executor = Executor(tier="native", promote_after=1)
    for _ in range(2):
        got = executor.run(func, {t: a.copy() for t, a in buffers.items()})
        assert backend.same_bits(got, expected)
    state = tier_state(plan_cache().get_or_compile(func))
    assert state.tier == "vectorized" and state.kernel is None
    assert macro in state.demotion_reason
    assert executor.stats.native_runs == 0 and executor.stats.native_promotions == 0


@needs_toolchain
class TestInstructionTheHostLacks:
    @pytest.mark.parametrize("name", sorted(ARM))
    def test_arm_dot_on_a_host_without_dotprod_stays_vectorized(self, name):
        _, _, macro = ARM[name]
        if _host_defines(macro):
            pytest.skip(f"{HOST_FLAG} defines {macro} on this host")
        func = _tensorized(scaled_table1(TABLE1_LAYERS[1], spatial=4), name, table=ARM)
        assert backend.native_eligibility_reason(plan_cache().get_or_compile(func)) == (
            f"{name.rsplit('.', 1)[1]} needs {macro}, which the toolchain probe did not define"
        )
        _assert_stays_vectorized(func, macro)


@needs_toolchain
class TestHostFlagProbe:
    def test_compiler_rejecting_the_flag_loses_the_instruction_not_the_tier(
        self, tmp_path, monkeypatch
    ):
        """A ``cc`` that rejects ``-march=native`` keeps the tier for plain
        kernels, but predefines no instruction macro, so a ``vpdpbusd`` plan
        stays vectorized."""
        fake_cc = tmp_path / "cc"
        fake_cc.write_text(
            "#!/bin/sh\n"
            f'for arg in "$@"; do [ "$arg" = "{HOST_FLAG}" ] && '
            '{ echo "cc: unknown architecture" >&2; exit 1; }; done\n'
            f'exec {shutil.which(str(COMPILER))} "$@"\n'
        )
        fake_cc.chmod(0o755)
        real_flags = backend.cc_flags()
        with monkeypatch.context() as patched:
            patched.setenv("PATH", str(tmp_path), prepend=":")
            try:
                assert native_toolchain(refresh=True) == ("cc", str(fake_cc))
                assert backend.cc_flags() == [f for f in backend._CC_FLAGS if f != HOST_FLAG]
                assert backend.cc_macros() == frozenset()
                func = _tensorized(scaled_table1(TABLE1_LAYERS[1]), "x86.avx512.vpdpbusd")
                _assert_stays_vectorized(func, "__AVX512VNNI__")
                plain = lower(small_conv_hwc())
                buffers = alloc_buffers(plain, np.random.default_rng(1))
                expected = run(plain, {t: a.copy() for t, a in buffers.items()})
                got = Executor(tier="native", promote_after=1).run(plain, buffers)
                assert backend.same_bits(got, expected)
                state = tier_state(plan_cache().get_or_compile(plain))
                assert state.tier == "native", state.demotion_reason
            finally:
                patched.undo()
                native_toolchain(refresh=True)
        assert backend.cc_flags() == real_flags
