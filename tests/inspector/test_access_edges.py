"""Edge cases of the loop-mapping layer in ``inspector/access.py``.

The enumeration/feasibility machinery gets exercised on happy paths by the
applicability tests; these pin the degenerate inputs — operations with too
few (or zero) loops of a kind, infeasible mappings with their diagnostic
reason, and indexing patterns (reversed strides, non-affine subscripts)
that must degrade to "no feasible mapping", never a wrong one.
"""

import pytest

from repro.dsl import cast, compute, placeholder, reduce_axis, sum_reduce
from repro.inspector import (
    check_mapping,
    enumerate_mappings,
    feasible_mappings,
    inspect_applicability,
    match_isomorphism,
)
from repro.isa import get_intrinsic
from tests.conftest import small_conv_hwc


class TestEnumerationDegenerate:
    def test_no_reduction_loop_yields_nothing(self):
        """VNNI needs one reduction loop; an elementwise op has none."""
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        a = placeholder((4, 16), "int32", "a")
        ew = compute((4, 16), lambda i, j: a[i, j] * 2, name="scale")
        assert enumerate_mappings(ew.op, vnni.op) == []

    def test_degenerate_extent_one_loop_is_structural_only(self):
        """Applicability is structural: an extent-1 data-parallel loop still
        maps onto the 16-lane VNNI axis (the scheduler pads/guards extents
        later), and the single feasible mapping is the expected one."""
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        a = placeholder((64,), "uint8", "a")
        b = placeholder((64,), "int8", "b")
        rk = reduce_axis(0, 64, "rk")
        dot = compute(
            (1,),
            lambda i: sum_reduce(cast("int32", a[rk]) * cast("int32", b[rk]), rk),
            name="dot",
        )
        result = inspect_applicability(dot, vnni)
        assert result.applicable
        pairs = {(u.name, v.name) for u, v in result.mapping.axis_map.items()}
        assert pairs == {("dot_i0", "vnni_i"), ("rk", "vnni_j")}

    def test_enumeration_is_injective(self):
        """No instruction loop may grab the same operation loop twice."""
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        conv = small_conv_hwc()
        for mapping in enumerate_mappings(conv.op, vnni.op):
            targets = list(mapping.axis_map.values())
            assert len(targets) == len(set(targets))


class TestInfeasibleMappings:
    def test_infeasible_mapping_names_the_offending_access(self):
        """Transposing the WMMA mapping (i->wmma_j, j->wmma_i) makes the A
        operand vary along a loop its register does not index; the reason
        string must name both the access and the instruction loop."""
        from tests.conftest import small_matmul_fp16

        wmma = get_intrinsic("nvvm.wmma.m16n16k16.mma.row.row.f32.f32")
        mm = small_matmul_fp16()
        iso = match_isomorphism(wmma.op, mm.op)
        assert iso.matched
        mappings = enumerate_mappings(mm.op, wmma.op)
        verdicts = [check_mapping(m, iso, wmma.op) for m in mappings]
        feasible = [m for m, (ok, _) in zip(mappings, verdicts) if ok]
        infeasible = [(m, r) for m, (ok, r) in zip(mappings, verdicts) if not ok]
        assert feasible and infeasible  # the transposed assignment fails
        for _, reason in infeasible:
            assert "'A'" in reason and "wmma_j" in reason
            assert "varies along instruction loops" in reason
            assert "one lane would correspond to multiple addresses" in reason
        assert feasible_mappings(mm.op, wmma.op, iso) == feasible

    def test_feasible_mapping_reason_is_empty(self):
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        conv = small_conv_hwc()
        iso = match_isomorphism(vnni.op, conv.op)
        mapping = feasible_mappings(conv.op, vnni.op, iso)[0]
        ok, reason = check_mapping(mapping, iso, vnni.op)
        assert ok and reason == ""


class TestAwkwardIndexing:
    def test_reversed_stride_applicable_and_still_correct(self):
        """A negatively-strided (reversed) reduction read ``a[i, 63-rk]`` is
        structurally applicable; tensorizing it must stay verifiable (the
        bounds pass proves 63-rk in [0, 63]) and numerically exact."""
        import numpy as np

        from repro.analysis import verify_rewrite
        from repro.core import tensorize
        from repro.tir import alloc_buffers, run

        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        a = placeholder((4, 64), "uint8", "a")
        b = placeholder((16, 64), "int8", "b")
        rk = reduce_axis(0, 64, "rk")
        rev = compute(
            (4, 16),
            lambda i, j: sum_reduce(
                cast("int32", a[i, 63 - rk]) * cast("int32", b[j, rk]), rk
            ),
            name="rev_mm",
        )
        assert inspect_applicability(rev, vnni).applicable
        result = tensorize(rev, vnni)
        verify_rewrite(result.func)
        rng = np.random.default_rng(7)
        buffers = alloc_buffers(result.func, rng)
        out = run(result.func, {t: v.copy() for t, v in buffers.items()})
        by = {t.name: buffers[t] for t in result.func.inputs}
        ref = (
            by["a"][:, ::-1].astype(np.int64) @ by["b"].astype(np.int64).T
        ).astype(np.int32)
        np.testing.assert_array_equal(out, ref)

    def test_data_dependent_subscript_degrades_to_unproved(self):
        """Gather-style ``a[i, idx[rk]]`` passes the structural mapping check
        but its address is non-affine: the static tier must fall back to
        "cannot bound" (a warning that fails strict mode), never claim a
        proof or a violation."""
        from repro.analysis import analyze
        from repro.core import tensorize

        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        a = placeholder((4, 64), "uint8", "a")
        b = placeholder((16, 64), "int8", "b")
        idx = placeholder((64,), "int32", "idx")
        rk = reduce_axis(0, 64, "rk")
        gather = compute(
            (4, 16),
            lambda i, j: sum_reduce(
                cast("int32", a[i, idx[rk]]) * cast("int32", b[j, rk]), rk
            ),
            name="gather_mm",
        )
        assert inspect_applicability(gather, vnni).applicable
        report = analyze(tensorize(gather, vnni).func)
        assert report.ok() and not report.ok(strict=True)
        assert report.proved_nests < report.total_nests
        assert any(
            d.severity == "warning" and "cannot bound" in d.message
            for d in report.diagnostics
        )


class TestInspectorReports:
    def test_isomorphic_but_unmappable_operation_is_not_applicable(self):
        """The arithmetic matches WMMA, but ``A`` varies along all three of
        the instruction's loops while register ``a`` indexes only two."""
        wmma = get_intrinsic("nvvm.wmma.m16n16k16.mma.row.row.f32.f32")
        a = placeholder((16, 16, 16), "float16", "A")
        b = placeholder((16, 16), "float16", "B")
        k = reduce_axis(0, 16, "k")
        skew = compute(
            (16, 16),
            lambda i, j: sum_reduce(cast("float32", a[i, j, k]) * cast("float32", b[k, j]), k),
            name="skew",
        )
        assert match_isomorphism(wmma.op, skew.op).matched
        result = inspect_applicability(skew, wmma)
        assert not result.applicable and result.mappings == []
        assert result.reason == (
            "no feasible loop mapping (tried 2 candidate mappings; "
            "data-access isomorphism failed for all)"
        )
        assert repr(result) == (
            f"InspectionResult(skew x {wmma.name}: not applicable ({result.reason}), "
            "0 feasible mapping(s))"
        )

    def test_applicable_result_and_mapping_reprs(self):
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        result = inspect_applicability(small_conv_hwc(), vnni)
        assert repr(result) == (
            f"InspectionResult(conv x {vnni.name}: applicable, "
            f"{len(result.mappings)} feasible mapping(s))"
        )
        pairs = ", ".join(f"{a.name}->{b.name}" for a, b in result.mapping.axis_map.items())
        assert repr(result.mapping) == f"LoopMapping({pairs})"
        assert "->vnni_i" in pairs and "->vnni_j" in pairs
