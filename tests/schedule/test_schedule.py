"""Unit tests for the scheduling primitives."""

import pytest

from repro.dsl import Var, compute, placeholder, reduce_axis, sum_reduce
from repro.schedule import Annotation, create_schedule
from tests.conftest import small_conv_hwc


def _elementwise(n=24):
    a = placeholder((n,), "float32", "a")
    return compute((n,), lambda i: a[i] + 1.0, name="ew")


class TestSplitFuseReorder:
    def test_split_extents(self):
        sch = create_schedule(_elementwise(24))
        st = sch.stage
        (i,) = [st[ax] for ax in st.op.axes]
        outer, inner = st.split(i, 8)
        assert outer.extent == 3 and inner.extent == 8
        assert st.leaf_vars == [outer, inner]
        assert not st.has_imperfect_split

    def test_imperfect_split_flagged(self):
        sch = create_schedule(_elementwise(10))
        st = sch.stage
        outer, inner = st.split(st[st.op.axes[0]], 4)
        assert outer.extent == 3 and inner.extent == 4
        assert st.has_imperfect_split
        assert len(st.guards()) == 1

    def test_split_invalid_factor(self):
        sch = create_schedule(_elementwise())
        with pytest.raises(ValueError):
            sch.stage.split(sch.stage.leaf_vars[0], 0)

    def test_split_non_leaf_rejected(self):
        sch = create_schedule(_elementwise(24))
        st = sch.stage
        loop = st.leaf_vars[0]
        st.split(loop, 8)
        with pytest.raises(ValueError):
            st.split(loop, 2)

    def test_fuse_requires_adjacency_and_same_kind(self):
        conv = small_conv_hwc()
        sch = create_schedule(conv)
        st = sch.stage
        x, y, k = [st[ax] for ax in conv.op.axes]
        fused = st.fuse(x, y)
        assert fused.extent == 36
        r = st[conv.op.reduce_axes[0]]
        with pytest.raises(ValueError):
            st.fuse(k, r)  # data-parallel with reduce

    def test_fuse_non_adjacent_rejected(self):
        conv = small_conv_hwc()
        st = create_schedule(conv).stage
        x, y, k = [st[ax] for ax in conv.op.axes]
        with pytest.raises(ValueError):
            st.fuse(x, k)

    def test_reorder_total_order(self):
        conv = small_conv_hwc()
        st = create_schedule(conv).stage
        x, y, k = [st[ax] for ax in conv.op.axes]
        st.reorder(k, x, y)
        assert st.leaf_vars[:3] == [k, x, y]

    def test_reorder_duplicate_rejected(self):
        conv = small_conv_hwc()
        st = create_schedule(conv).stage
        x = st[conv.op.axes[0]]
        with pytest.raises(ValueError):
            st.reorder(x, x)


class TestAnnotations:
    def test_parallel_unroll_vectorize(self):
        conv = small_conv_hwc()
        st = create_schedule(conv).stage
        x, y, k = [st[ax] for ax in conv.op.axes]
        st.parallel(x)
        st.unroll(y)
        st.vectorize(k)
        assert x.annotation == Annotation.PARALLEL
        assert y.annotation == Annotation.UNROLL
        assert k.annotation == Annotation.VECTORIZE

    def test_parallel_reduce_rejected(self):
        conv = small_conv_hwc()
        st = create_schedule(conv).stage
        r = st[conv.op.reduce_axes[0]]
        with pytest.raises(ValueError):
            st.parallel(r)

    def test_bind_gpu_tags(self):
        conv = small_conv_hwc()
        st = create_schedule(conv).stage
        x, y, _ = [st[ax] for ax in conv.op.axes]
        st.bind(x, "blockIdx.x")
        st.bind(y, "threadIdx.x")
        assert x.annotation == Annotation.BLOCK_X
        with pytest.raises(ValueError):
            st.bind(y, "warpIdx.q")

    def test_tensorize_records_intrinsic(self):
        from repro.isa import get_intrinsic

        conv = small_conv_hwc()
        st = create_schedule(conv).stage
        k = st[conv.op.axes[2]]
        st.tensorize(k, get_intrinsic("x86.avx512.vpdpbusd"))
        assert st.tensorize_loop is k
        assert k.pragmas["tensorize"] == "x86.avx512.vpdpbusd"


class TestIndexReconstruction:
    def test_split_reconstruction(self):
        sch = create_schedule(_elementwise(24))
        st = sch.stage
        axis = st.op.axes[0]
        outer, inner = st.split(st[axis], 8)
        exprs = st.index_expressions()
        from repro.dsl import expr_to_str

        text = expr_to_str(exprs[axis.var])
        assert outer.name in text and inner.name in text and "8" in text

    def test_fuse_reconstruction_contains_div_mod(self):
        conv = small_conv_hwc()
        st = create_schedule(conv).stage
        x, y, _ = [st[ax] for ax in conv.op.axes]
        st.fuse(x, y)
        exprs = st.index_expressions()
        from repro.dsl import expr_to_str

        assert "//" in expr_to_str(exprs[conv.op.axes[0].var])
        assert "%" in expr_to_str(exprs[conv.op.axes[1].var])

    def test_schedule_lookup_by_tensor(self):
        conv = small_conv_hwc()
        sch = create_schedule(conv)
        assert sch[conv] is sch.stage

    def test_stage_of_a_multi_stage_schedule_must_be_indexed(self):
        from repro.schedule import Schedule

        first, second = _elementwise(8), _elementwise(8)
        sch = Schedule([first.op, second.op])
        assert sch[second].op is second.op
        with pytest.raises(ValueError, match="index by op"):
            sch.stage

    def test_create_schedule_needs_a_computed_tensor(self):
        with pytest.raises(TypeError, match="ComputeOp"):
            create_schedule(placeholder((4,), "float32", "p"))

    def test_fuse_many_needs_a_loop(self):
        with pytest.raises(ValueError, match="at least one loop"):
            create_schedule(_elementwise()).stage.fuse_many([])

    def test_fuse_many_of_one_loop_is_that_loop(self):
        st = create_schedule(_elementwise()).stage
        (i,) = st.leaf_vars
        assert st.fuse_many([i]) is i

    def test_stage_repr_lists_leaf_loops_in_order(self):
        st = create_schedule(_elementwise(24)).stage
        outer, inner = st.split(st.leaf_vars[0], 8)
        assert repr(st) == f"Stage(ew: [{outer.name}, {inner.name}])"


def _corrupt_duplicate_leaf(st, i, k):
    st.leaf_vars.append(i)


def _corrupt_extent(st, i, k):
    i.extent = 0


def _corrupt_parallel_reduce(st, i, k):
    k.annotation = Annotation.PARALLEL  # what ``parallel(k)`` refuses to do


def _corrupt_short_split(st, i, k):
    outer, _ = st.split(i, 4)
    outer.extent -= 1


def _corrupt_overshooting_split(st, i, k):
    outer, _ = st.split(i, 4)
    outer.extent += 1


def _corrupt_fuse(st, i, k):
    st.fuse(i, st.leaf_vars[1]).extent += 1


def _dangling_tensorize(st, i, k):
    from repro.isa import get_intrinsic

    st.tensorize(k, get_intrinsic("x86.avx512.vpdpbusd"))
    st.split(k, 2)  # the tensorize loop is no longer a leaf


class TestVerify:
    """``Stage.verify`` (run by ``lower``) refuses each malformed schedule."""

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_corrupt_duplicate_leaf, "duplicate leaf loop"),
            (_corrupt_extent, "non-positive extent 0"),
            (_corrupt_parallel_reduce, "is annotated parallel"),
            (_corrupt_short_split, "covers only 4 of 8"),
            (_corrupt_overshooting_split, "overshoots"),
            (_corrupt_fuse, "expected 32"),
            (_dangling_tensorize, "no longer a leaf"),
        ],
        ids=lambda v: v.__name__.strip("_") if callable(v) else None,
    )
    def test_malformed_schedule_is_refused_before_lowering(self, corrupt, message):
        from repro.tir import lower

        a = placeholder((8, 8), "float32", "a")
        b = placeholder((8, 4), "float32", "b")
        k_axis = reduce_axis(0, 8, "k")
        out = compute(
            (8, 4), lambda i, j: sum_reduce(a[i, k_axis] * b[k_axis, j], k_axis), name="mm"
        )
        sch = create_schedule(out)
        st = sch.stage
        i, _, k = st.leaf_vars
        st.verify()  # well formed before the corruption
        corrupt(st, i, k)
        with pytest.raises(ValueError, match=message):
            lower(sch)
