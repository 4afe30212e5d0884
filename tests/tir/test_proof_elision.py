"""Proof-guided plan compilation: ``PlanStats.proved_nests`` / ``elided_checks``.

The engine consults the static bounds analysis while compiling each nest:
a proved nest is counted, and every index clamp or lane re-check the proof
makes an identity operation is skipped.  The elision must be *observable*
(the stats move) and *invisible* (bit-identical output against the scalar
interpreter, guarded residues included).
"""

import numpy as np
import pytest

from repro.core import tensorize
from repro.rewriter import CpuTuningConfig
from repro.schedule import create_schedule
from repro.tir import (
    Executor,
    IfThenElse,
    alloc_buffers,
    collect,
    compile_plan,
    lower,
    plan_cache,
    run,
)
from repro.workloads import Conv2DParams, conv2d_nchwc
from tests.conftest import small_conv_hwc


def _assert_bit_identical(func, rng):
    buffers = alloc_buffers(func, rng)
    ref = run(func, {t: b.copy() for t, b in buffers.items()})
    got = Executor(tier="vectorized").run(func, {t: b.copy() for t, b in buffers.items()})
    np.testing.assert_array_equal(got, ref)
    return plan_cache().get_or_compile(func).stats  # compile-time PlanStats (proofs live there)


class TestProvedNests:
    def test_plain_conv_fully_proved(self, rng):
        stats = _assert_bit_identical(lower(small_conv_hwc()), rng)
        assert stats.proved_nests == stats.vector_nests == 2

    def test_compile_plan_surfaces_the_same_stats(self):
        plan = compile_plan(lower(small_conv_hwc()))
        assert plan.stats.proved_nests == 2
        assert plan.stats.fallback_nests == 0

    def test_unprovable_index_not_counted(self, rng):
        """A data-dependent index cannot be proved: the nest must run (with
        its runtime clamps) but never count as proved."""
        from repro.dsl import compute, placeholder

        idx = placeholder((8,), "int32", "idx")
        a = placeholder((8,), "int32", "a")
        out = compute((8,), lambda i: a[idx[i] % 8], name="gather")
        stats = _assert_bit_identical(lower(out), rng)
        assert stats.proved_nests == 0


class TestGuardedResidues:
    @pytest.mark.parametrize("factor", [3, 5])
    def test_imperfect_split_proved_through_guard(self, rng, factor):
        """The residue nest's accesses are provable only via the ``likely``
        guard; the proof still counts, and masked execution stays exact."""
        conv = small_conv_hwc()
        sch = create_schedule(conv)
        st = sch.stage
        st.split(st[conv.op.axes[2]], factor)
        func = lower(sch)
        assert collect(func.body, lambda s: isinstance(s, IfThenElse))  # guarded
        stats = _assert_bit_identical(func, rng)
        assert stats.proved_nests == stats.vector_nests
        # The guarded dimension keeps its clamp, the others lose theirs.
        assert stats.elided_checks > 1

    def test_guarded_tensorized_conv_elides_and_matches(self, rng):
        """OW=7 with unroll_limit=4 forces an imperfect split inside the
        tensorized schedule: proofs, elisions and bit-identity must all
        survive the intrinsic dispatch path."""
        params = Conv2DParams(
            in_channels=8, in_height=9, in_width=9, out_channels=16, kernel=3,
            name="resid",
        )
        result = tensorize(
            conv2d_nchwc(params),
            "x86.avx512.vpdpbusd",
            config=CpuTuningConfig(unroll_limit=4),
        )
        assert collect(result.func.body, lambda s: isinstance(s, IfThenElse))
        stats = _assert_bit_identical(result.func, rng)
        assert stats.proved_nests == stats.vector_nests == 2
        assert stats.elided_checks >= 2


class TestElisionIsInvisible:
    def test_elision_changes_no_bits_across_shapes(self, rng):
        """Sweep a few shapes whose clamps are all provably identities; the
        engine output must stay bit-identical to the interpreter even though
        the protective clamps were compiled out."""
        for h, w in [(8, 8), (9, 8), (10, 11)]:
            func = lower(small_conv_hwc(h=h, w=w))
            stats = _assert_bit_identical(func, rng)
            assert stats.proved_nests == stats.vector_nests
