"""Promotion batches: the kernels a graph run promotes are qualified together.

``GraphProgram.run`` wraps its steps in ``promotion_batch()``: a plan whose
promotion falls due mid-run is queued, keeps running vectorized for the rest
of the run, and is qualified in a sandbox child when the run ends, at most
one child per CPU alive at a time.  What these tests hold it to: the same
promotions, verdicts and bytes as qualifying one kernel at a time; a
rejected kernel demotes only its own plan; and no child or sandbox work
directory outlives a run, including a run that raises.
"""

import contextlib
import multiprocessing
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

import repro.tir.backend as backend
from repro.core import compile_model
from repro.graph import Conv2DNode, Graph, InputNode, TensorShape, execute_graph, rescale_input, run_model
from repro.models.zoo import get_model
from repro.rewriter import TuningSession
from repro.testing import faults
from repro.tir import Executor, alloc_buffers, lower, native_toolchain, plan_cache, tier_state
from repro.tir import sandbox
from repro.tir.backend import promotion_batch, same_bits
from tests.conftest import small_conv_hwc

needs_toolchain = pytest.mark.skipif(
    native_toolchain()[0] is None, reason="no native toolchain (C compiler)"
)


class _Recording(Executor):
    """Remembers the distinct functions it ran, in first-call order."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.funcs = {}

    def run(self, func, buffers, stats=None):
        self.funcs.setdefault(id(func), func)
        return super().run(func, buffers, stats=stats)

    def outcomes(self):
        states = [tier_state(plan_cache().get_or_compile(f)) for f in self.funcs.values()]
        return [(s.tier, s.sandbox_outcome, s.demotion_reason) for s in states]


def _chain() -> Graph:
    """Three convolutions of different shapes: three plans."""
    g = Graph("batch_chain")
    g.add(InputNode(name="in", shape=TensorShape(8, 10, 10)))
    prev = "in"
    for i, channels in enumerate((8, 16, 12)):
        prev = g.add(
            Conv2DNode(name=f"conv{i}", inputs=[prev], out_channels=channels, kernel=3, padding=1)
        )
    return g


def _image(graph: Graph, seed: int = 0):
    entry = graph.nodes[0]
    shape = (entry.shape.channels, entry.shape.height, entry.shape.width)
    return {entry.name: np.random.default_rng(seed).standard_normal(shape).astype(np.float32)}


@pytest.fixture
def sandbox_dir(tmp_path, monkeypatch):
    """Where this test's ``repro_sandbox_*`` work directories go."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


def _nothing_left(directory) -> None:
    assert multiprocessing.active_children() == []
    assert list(directory.glob("repro_sandbox_*")) == []


def _in_sandbox_for(name):
    return lambda context: context.get("where") == "sandbox" and context.get("func_name") == name


@needs_toolchain
class TestSameAsSerial:
    @pytest.mark.parametrize("model,promotions", [("resnet-18", 12), ("mobilenet-v2", 31)])
    def test_zoo_model_promotes_the_same_plans_with_the_same_verdicts(
        self, model, promotions, monkeypatch
    ):
        graph = rescale_input(get_model(model, fresh=True), 32)
        compiled = compile_model(graph, target="x86", session=TuningSession())
        image = _image(compiled.graph)
        kept = compiled.graph.nodes[-1].inputs[0]
        expected = execute_graph(compiled.graph, image, rng=np.random.default_rng(5))[kept]

        def warm_up():
            plan_cache().clear()
            executor = _Recording()
            for _ in range(4):  # runs 1-3 reach the default threshold
                run = compiled.run(
                    image, rng=np.random.default_rng(5), keep=[kept], executor=executor
                )
                assert same_bits(run.outputs[kept], expected)
            return executor

        batched = warm_up()
        with monkeypatch.context() as serial_only:
            serial_only.setattr(backend, "promotion_batch", contextlib.nullcontext)
            serial = warm_up()
        assert batched.stats.native_promotions == serial.stats.native_promotions == promotions
        assert batched.stats.native_demotions == serial.stats.native_demotions
        assert batched.outcomes() == serial.outcomes()
        assert batched.stats.native_runs > 0


@needs_toolchain
class TestSpotChecksAfterTheChildren:
    def test_no_child_is_alive_while_the_host_runs_a_kernel(self, sandbox_dir, monkeypatch):
        """Every verdict of a batch is in before the first spot check: a
        kernel runs its parallel loops on every CPU, and beside a child's
        ``cc`` each of its regions would wait for a time slice."""
        alive = []
        real_run = backend.NativeKernel.run

        def recording(kernel, arrays):
            alive.append(len(multiprocessing.active_children()))
            return real_run(kernel, arrays)

        monkeypatch.setattr(backend.NativeKernel, "run", recording)
        graph = _chain()
        image = _image(graph)
        plan_cache().clear()
        executor = Executor(promote_after=1)
        run_model(graph, image, rng=np.random.default_rng(1), executor=executor)
        assert executor.stats.native_promotions == 3
        assert alive == [0, 0, 0]
        _nothing_left(sandbox_dir)


@needs_toolchain
class TestOutsideABatch:
    def test_a_single_run_is_native_when_the_promoting_call_returns(self):
        func = next(iter(self._funcs().values()))
        plan_cache().clear()
        executor = Executor(promote_after=1)
        executor.run(func, alloc_buffers(func, np.random.default_rng(0)))
        assert tier_state(plan_cache().get_or_compile(func)).tier == "native"
        assert executor.stats.native_promotions == 1

    def test_threads_promote_one_plan_once(self, monkeypatch):
        """A batch of one runs after ``run_tiered`` lets go of the plan's
        lock (``_promote_queued`` takes it again): threads crossing the
        threshold together qualify and promote once, and none deadlocks."""
        started = []
        start = sandbox.start

        def counted(*args):
            started.append(args[0].name)
            return start(*args)

        monkeypatch.setattr(sandbox, "start", counted)
        func = lower(small_conv_hwc())
        buffers = alloc_buffers(func, np.random.default_rng(0))
        expected = Executor(tier="interpreter").run(
            func, {t: a.copy() for t, a in buffers.items()}
        )
        plan_cache().clear()
        executor = Executor(promote_after=1)
        workers = 4  # more than the cores CI has
        barrier = threading.Barrier(workers)
        results = []

        def promote():
            mine = {t: a.copy() for t, a in buffers.items()}
            barrier.wait()
            results.append(executor.run(func, mine))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=promote, daemon=True) for _ in range(workers)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads), "deadlocked"
        assert len(results) == workers and all(same_bits(r, expected) for r in results)
        assert started == [func.name]
        assert executor.stats.sandbox_qualifications == 1
        assert executor.stats.native_promotions == 1
        assert tier_state(plan_cache().get_or_compile(func)).tier == "native"

    def _funcs(self):
        executor = _Recording(tier="vectorized")
        run_model(_chain(), _image(_chain()), executor=executor)
        return executor.funcs


@needs_toolchain
class TestMixedVerdictsAndCleanup:
    @pytest.mark.parametrize("fault", ["segfault", "hang"])
    def test_only_the_faulty_plan_demotes(self, fault, sandbox_dir, monkeypatch):
        graph = _chain()
        image = _image(graph)
        expected = execute_graph(graph, image, rng=np.random.default_rng(1))
        action = faults.segfault
        if fault == "hang":
            monkeypatch.setenv("REPRO_SANDBOX_TIMEOUT", "3")
            action = faults.hang(60.0)
        plan_cache().clear()
        executor = _Recording(promote_after=1)
        with faults.FaultPlan(seed=0) as plan_f:
            plan_f.on("backend.qualify", action, when=_in_sandbox_for("conv1"))
            run = run_model(graph, image, rng=np.random.default_rng(1), executor=executor)
        assert same_bits(run.output, expected["conv2"])
        _nothing_left(sandbox_dir)
        tiers = [tier for tier, _, _ in executor.outcomes()]
        assert tiers == ["native", "vectorized", "native"]
        _, outcome, reason = executor.outcomes()[1]
        assert outcome == fault
        assert reason.startswith(f"sandbox rejected native kernel ({fault}:")
        assert executor.stats.native_promotions == 2
        assert executor.stats.sandbox_rejections == 1

    def test_a_run_that_raises_leaves_nothing_and_promotes_later(self, sandbox_dir):
        graph = _chain()
        image = _image(graph)

        class Failing(_Recording):
            def run(self, func, buffers, stats=None):
                result = super().run(func, buffers, stats=stats)
                if func.name == "conv2":
                    raise RuntimeError("step failed")
                return result

        plan_cache().clear()
        failing = Failing(promote_after=1)
        with pytest.raises(RuntimeError, match="step failed"):
            run_model(graph, image, executor=failing)
        _nothing_left(sandbox_dir)
        states = [tier_state(plan_cache().get_or_compile(f)) for f in failing.funcs.values()]
        assert [(s.tier, s.pending) for s in states] == [("vectorized", False)] * 3
        assert failing.stats.native_promotions == 0

        executor = _Recording(promote_after=1)
        run_model(graph, image, executor=executor)
        assert [s.tier for s in states] == ["native"] * 3
        assert executor.stats.native_promotions == 3

    def test_an_abort_mid_batch_kills_the_children_it_started(self, sandbox_dir, monkeypatch):
        class Abort(BaseException):
            pass

        def abort(source, library):
            raise Abort()

        monkeypatch.setattr(backend, "load_kernel", abort)
        graph = _chain()
        plan_cache().clear()
        executor = _Recording(promote_after=1)
        with pytest.raises(Abort):
            run_model(graph, _image(graph), executor=executor)
        _nothing_left(sandbox_dir)
        states = [tier_state(plan_cache().get_or_compile(f)) for f in executor.funcs.values()]
        assert not any(s.pending for s in states)

    def test_a_nested_batch_joins_the_outer_one(self, sandbox_dir):
        graph = _chain()
        plan_cache().clear()
        executor = _Recording(promote_after=1)
        with promotion_batch():
            run_model(graph, _image(graph), executor=executor)
            assert executor.stats.native_promotions == 0
            states = [tier_state(plan_cache().get_or_compile(f)) for f in executor.funcs.values()]
            assert all(s.pending and s.tier == "vectorized" for s in states)
        assert [s.tier for s in states] == ["native"] * 3
        _nothing_left(sandbox_dir)

