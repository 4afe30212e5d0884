"""The native tier reaches the hardware instruction (``NativeLowering``).

``generate_c`` writes each tensorized region twice: the vendor intrinsic
under ``#if defined(<feature macro>)`` and the scalar expansion under
``#else``.  Every bit-identity test here therefore builds the same source
twice — with the flags kernels are really built with (``-march=native``
defines the macro on a host that has the instruction) and with
``-march=native`` stripped (macro undefined, scalar branch) — and holds both
against the scalar interpreter.
"""

import shutil
import subprocess

import numpy as np
import pytest

from repro.codegen.lowlevel import generate_c
from repro.core import tensorize
from repro.isa import get_intrinsic
from repro.tir import Executor, alloc_buffers, lower, native_toolchain, plan_cache, run, tier_state
from repro.tir import backend
from repro.tir.stmt import IfThenElse, IntrinsicCall
from repro.tir.visitor import collect
from repro.workloads import Conv2DParams, conv2d_nchwc
from repro.workloads.table1 import TABLE1_LAYERS
from tests.conftest import build_kernel, scaled_table1, small_conv_hwc

TOOLCHAIN_KIND, COMPILER = native_toolchain()
needs_toolchain = pytest.mark.skipif(
    TOOLCHAIN_KIND is None, reason="no native toolchain (C compiler)"
)
HOST_FLAG = "-march=native"
SCALAR_FLAGS = [flag for flag in backend._CC_FLAGS if flag != HOST_FLAG]

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


def _host_defines(macro: str) -> bool:
    if TOOLCHAIN_KIND is None or HOST_FLAG not in backend.cc_flags():
        return False
    proc = subprocess.run(
        [str(COMPILER), HOST_FLAG, "-dM", "-E", "-x", "c", "-"],
        input="", capture_output=True, text=True,
    )
    return f"#define {macro} " in proc.stdout


def _tensorized(params: Conv2DParams, name: str, table=X86, **kwargs):
    return tensorize(conv2d_nchwc(params, **table[name][0]), name, **kwargs).func


def _assert_both_builds_match_interpreter(func, tmp_path, seed=0):
    source = generate_c(func)
    buffers = alloc_buffers(func, np.random.default_rng(seed))
    expected = run(func, {t: a.copy() for t, a in buffers.items()})
    for tag, flags in (("host", backend.cc_flags()), ("scalar", SCALAR_FLAGS)):
        kernel = build_kernel(source, flags, tmp_path, tag)
        got = kernel.run([buffers[p].copy() for p in func.params])
        np.testing.assert_array_equal(got, expected, err_msg=f"{tag} build of {func.name}")
    return source


def _instruction_branches(source: str, macro: str):
    """The text of every ``#if defined(macro)`` ... ``#else`` span in the
    kernel body (the header include guard before it has no ``#else``)."""
    body = source[source.index("void repro_kernel") :]
    pieces = body.split(f"#if defined({macro})")[1:]
    return [piece[: piece.index("#else")] for piece in pieces]


class TestEmittedText:
    @pytest.mark.parametrize("name", sorted(X86))
    @pytest.mark.parametrize("index", LAYERS, ids=lambda i: f"layer{i}")
    def test_table1_instruction_once_per_call_inside_its_guard(self, index, name):
        """Full-size Table I: every ``IntrinsicCall`` spells the instruction
        exactly once, inside its ``#if``, straight from program memory (the
        blocked layout is register-contiguous: no staged operand)."""
        _, spelling, macro = X86[name]
        func = _tensorized(TABLE1_LAYERS[index - 1], name)
        calls = collect(func.body, lambda s: isinstance(s, IntrinsicCall))
        source = generate_c(func)
        assert source.instructions == (get_intrinsic(name).native_lowering.instruction,)
        assert source.source.count(spelling) == len(calls) >= 1
        branches = _instruction_branches(source.source, macro)
        assert len(branches) == len(calls)
        for branch in branches:
            assert branch.count(spelling) == 1
            assert branch.count("_mm512_loadu_si512(") == 2  # accumulator + weights
            assert branch.count("_mm512_set1_epi32(") == 1  # the data group
            assert branch.count("_mm512_storeu_si512(") == 1
            assert "for (" not in branch and "= {0}" not in branch
        # The scalar expansion exists once per call, as the #else branch.
        assert source.source.count("#else") == source.source.count("#endif") - 1 == len(calls)

    def test_header_only_in_sources_that_use_it(self):
        plain = generate_c(lower(small_conv_hwc()))
        assert plain.instructions == ()
        assert "immintrin" not in plain.source and "#if" not in plain.source
        tensorized = generate_c(_tensorized(scaled_table1(TABLE1_LAYERS[1]), "x86.avx512.vpdpbusd"))
        guard = "#if defined(__AVX512VNNI__)\n#include <string.h>\n#include <immintrin.h>\n#endif"
        assert tensorized.source.count(guard) == 1

    def test_no_openmp_surface(self):
        func = _tensorized(scaled_table1(TABLE1_LAYERS[1]), "x86.avx512.vpdpbusd")
        assert "pragma" not in generate_c(func).source
        with pytest.raises(TypeError):
            generate_c(func, parallel=True)

    @pytest.mark.parametrize("name", sorted(ARM))
    def test_arm_dot_emits_guarded_vdotq(self, name, tmp_path):
        """Text-tested on this host: the NEON spellings sit behind
        ``__ARM_FEATURE_DOTPROD``; where that is undefined the same source is
        the scalar expansion, which must still match the interpreter."""
        _, spelling, macro = ARM[name]
        func = _tensorized(scaled_table1(TABLE1_LAYERS[1], spatial=4), name, table=ARM)
        source = generate_c(func)
        assert source.instructions == (name.rsplit(".", 1)[1],)
        assert f"#if defined({macro})\n#include <string.h>\n#include <arm_neon.h>\n#endif" in source.source
        (branch,) = _instruction_branches(source.source, macro)
        assert branch.count(spelling) == 1
        elem = "s8" if name.endswith("sdot") else "u8"
        assert "int32x4_t vec1 = vld1q_s32(" in branch
        assert f"vreinterpretq_{elem}_s32(vdupq_n_s32(grp2))" in branch
        assert f"{'int8' if elem == 's8' else 'uint8'}x16_t vec4 = vld1q_{elem}(" in branch
        assert branch.count("vst1q_s32(") == 1
        if TOOLCHAIN_KIND is not None and not _host_defines(macro):
            _assert_both_builds_match_interpreter(func, tmp_path)


@needs_toolchain
class TestBothBuildsMatchInterpreter:
    @pytest.mark.parametrize("name", sorted(X86))
    @pytest.mark.parametrize("index", LAYERS, ids=lambda i: f"layer{i}")
    def test_table1_layer(self, index, name, tmp_path):
        # spatial=4: the scalar interpreter is the oracle, 32 times over.
        func = _tensorized(scaled_table1(TABLE1_LAYERS[index - 1], spatial=4), name)
        _assert_both_builds_match_interpreter(func, tmp_path, seed=index)

    @pytest.mark.parametrize("name", sorted(X86))
    def test_residue_guarded_extent(self, name, tmp_path):
        """OW = 17 does not divide its tile: the instruction sits under a
        ``likely`` guard and must only touch the in-range lanes' memory."""
        params = Conv2DParams(
            in_channels=8, in_height=9, in_width=33, out_channels=16, kernel=1, stride=2,
            name="residue",
        )
        func = _tensorized(params, name)
        assert collect(func.body, lambda s: isinstance(s, IfThenElse) and s.likely)
        _assert_both_builds_match_interpreter(func, tmp_path)

    @pytest.mark.parametrize("name", sorted(X86))
    def test_staged_fill_still_uses_the_instruction(self, name, tmp_path):
        """Lanes mapped onto OW (stride 2): the data operand and the
        accumulator are strided in memory, so their *fill* goes through the
        stack array — the instruction itself is still emitted, once."""
        _, spelling, macro = X86[name]
        params = Conv2DParams(
            in_channels=8, in_height=5, in_width=31, out_channels=16, kernel=1, stride=2,
            name="ow_lanes",
        )
        func = _tensorized(params, name, mapping_index=4)
        source = _assert_both_builds_match_interpreter(func, tmp_path)
        (branch,) = _instruction_branches(source.source, macro)
        assert branch.count(spelling) == 1
        data_reg = "vnni_a" if name.endswith("busd") else "vnni16_a"
        assert f"t_{data_reg}[" in branch and "= {0};" in branch  # staged data fill
        assert branch.count("_mm512_set1_epi32(") == 1  # the weights broadcast instead
        assert branch.count("_mm512_storeu_si512((void*)(t_") == 1  # staged scatter

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


@needs_toolchain
class TestHostFlagProbe:
    def test_compiler_rejecting_the_flag_loses_the_flag_not_the_tier(self, tmp_path, monkeypatch):
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
                assert backend.cc_flags() == SCALAR_FLAGS
                plan_cache().clear()
                func = _tensorized(scaled_table1(TABLE1_LAYERS[1]), "x86.avx512.vpdpbusd")
                buffers = alloc_buffers(func, np.random.default_rng(0))
                expected = run(func, {t: a.copy() for t, a in buffers.items()})
                got = Executor(tier="native", promote_after=1).run(func, buffers)
                np.testing.assert_array_equal(got, expected)
                state = tier_state(plan_cache().get_or_compile(func))
                assert state.tier == "native", state.demotion_reason
            finally:
                patched.undo()
                native_toolchain(refresh=True)
        assert backend.cc_flags() == real_flags
