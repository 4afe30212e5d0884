"""Tests for the end-to-end compilation pipeline and UNIT operator runners."""

import pytest

from repro.core import UnitCpuRunner, UnitGpuRunner, compile_model
from repro.graph import TensorShape
from repro.hwsim import GRAVITON2
from repro.models import GraphBuilder, get_model
from repro.workloads import DenseParams, table1_layer


def _toy_model():
    builder = GraphBuilder("toy", TensorShape(3, 32, 32))
    builder.conv(16, 3)
    builder.conv(32, 3, stride=2)
    builder.depthwise(3)
    return builder.classifier(10)


class TestUnitRunners:
    def test_cpu_tuning_modes_ordering(self):
        layer = table1_layer(5)
        t_parallel = UnitCpuRunner(tuning="parallel").conv2d_latency(layer).seconds
        t_first = UnitCpuRunner(tuning="first_pair").conv2d_latency(layer).seconds
        t_full = UnitCpuRunner(tuning="full").conv2d_latency(layer).seconds
        assert t_full <= t_first <= t_parallel

    def test_cpu_runner_caches(self):
        runner = UnitCpuRunner(tuning="full")
        layer = table1_layer(5)
        first = runner.conv2d_latency(layer)
        second = runner.conv2d_latency(layer)
        assert first is second
        assert len(runner.tuning_results) == 1

    def test_gpu_modes_ordering(self):
        layer = table1_layer(8)
        generic = UnitGpuRunner(mode="generic").conv2d_latency(layer).seconds
        tuned = UnitGpuRunner(mode="tune").conv2d_latency(layer).seconds
        assert tuned <= generic

    def test_arm_runner(self):
        runner = UnitCpuRunner(GRAVITON2, "arm.neon.sdot")
        assert runner.conv2d_latency(table1_layer(5)).seconds > 0

    def test_dense_and_depthwise_paths(self):
        from repro.graph import DepthwiseConv2DNode, TensorShape as TS

        runner = UnitCpuRunner()
        assert runner.dense_latency(DenseParams(1, 2048, 1000)).seconds > 0
        node = DepthwiseConv2DNode(name="dw", inputs=["x"], kernel=3, stride=1)
        node.in_shape = TS(32, 14, 14)
        assert runner.depthwise_conv2d_latency(node).seconds > 0

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError):
            UnitCpuRunner(tuning="magic")
        with pytest.raises(ValueError):
            UnitGpuRunner(mode="magic")


class TestCompileModel:
    def test_toy_model_x86(self):
        compiled = compile_model(_toy_model(), target="x86")
        assert compiled.latency_ms > 0
        assert compiled.target == "x86"
        assert compiled.layout_decisions  # layout planned for conv/dense nodes
        # Quantization + fusion happened: compiled graph differs from input.
        assert any(n.dtype == "int8" for n in compiled.graph.conv_nodes())

    def test_toy_model_cuda_and_arm(self):
        cuda = compile_model(_toy_model(), target="cuda")
        arm = compile_model(_toy_model(), target="arm")
        assert cuda.latency_ms > 0 and arm.latency_ms > 0
        assert any(n.dtype == "float16" for n in cuda.graph.conv_nodes())

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            compile_model(_toy_model(), target="fpga")

    def test_layout_blocking_is_the_target_instructions_register_shape(self):
        """``lanes`` / ``reduction`` are read off the target's intrinsic, for
        the default runner and an injected baseline runner alike."""
        from repro.baselines import MxnetOneDnnRunner
        from repro.core.pipeline import TARGETS
        from repro.isa import get_intrinsic

        for target, expected in (("x86", (16, 4)), ("arm", (4, 4))):
            intrin = get_intrinsic(TARGETS[target].intrinsic)
            assert (intrin.output_lanes, intrin.reduction_width) == expected
            for runner in (None, MxnetOneDnnRunner()):
                decisions = compile_model(_toy_model(), target=target, runner=runner)
                assert decisions.layout_decisions
                for decision in decisions.layout_decisions.values():
                    assert (decision.lanes, decision.reduction) == expected
        assert compile_model(_toy_model(), target="cuda").layout_decisions == {}

    def test_resnet18_end_to_end_plausible(self):
        compiled = compile_model(get_model("resnet-18", fresh=True), target="x86")
        # Latency should be sub-100ms and more than a few hundred microseconds.
        assert 0.1 < compiled.latency_ms < 100.0

    def test_baseline_runner_injection(self):
        from repro.baselines import MxnetOneDnnRunner

        unit = compile_model(_toy_model(), target="x86")
        baseline = compile_model(
            _toy_model(), target="x86", runner=MxnetOneDnnRunner(), fuse=False
        )
        assert baseline.latency_ms > unit.latency_ms


class TestTrialValidation:
    """Functional trial validation: the engine as the tuning oracle."""

    def test_cpu_runner_validates_fresh_searches(self):
        from repro.core.pipeline import UnitCpuRunner
        from repro.workloads import Conv2DParams

        runner = UnitCpuRunner(tuning="first_pair", validation="spot")
        params = Conv2DParams(
            in_channels=8, in_height=6, in_width=6, out_channels=16, kernel=3, name="v"
        )
        cost = runner.conv2d_latency(params)
        assert cost.seconds > 0
        # A cache hit must not re-validate (validation only guards fresh
        # records); this just exercises the hit path.
        again = runner.conv2d_latency(params)
        assert again.seconds == cost.seconds

    def test_validation_failure_rejects_record(self):
        from repro.core.pipeline import UnitCpuRunner
        from repro.rewriter.loop_reorg import TensorizeError
        from repro.workloads import Conv2DParams

        import pytest as _pytest

        class BrokenValidation(UnitCpuRunner):
            def _validator(self, kind, params):
                def check(config):
                    raise TensorizeError("injected validation failure")

                return check

        runner = BrokenValidation(tuning="first_pair", validation="spot")
        params = Conv2DParams(
            in_channels=8, in_height=6, in_width=6, out_channels=16, kernel=3, name="b"
        )
        with _pytest.raises(TensorizeError):
            runner.conv2d_latency(params)
        # The rejected record must not have entered the cache.
        assert runner.session.cache.stats.size == 0

    def test_gpu_runner_validates(self):
        from repro.core.pipeline import UnitGpuRunner
        from repro.workloads import DenseParams

        runner = UnitGpuRunner(mode="generic", validation="spot")
        cost = runner.dense_latency(
            DenseParams(batch=1, in_features=32, out_features=32, name="gd")
        )
        assert cost.seconds > 0


    def test_arm_runner_validates_dense(self):
        """Regression: dense validation must use the intrinsic's operand
        dtypes (sdot is int8 x int8, not the VNNI uint8 x int8 default)."""
        from repro.core.pipeline import UnitCpuRunner
        from repro.hwsim.machine import GRAVITON2
        from repro.workloads import DenseParams

        runner = UnitCpuRunner(
            GRAVITON2, "arm.neon.sdot", tuning="first_pair", validation="spot"
        )
        cost = runner.dense_latency(
            DenseParams(batch=1, in_features=32, out_features=8, name="ad")
        )
        assert cost.seconds > 0


class TestStoreBackedCompilation:
    def test_compile_model_store_kwarg_publishes_and_rereads(self, tmp_path):
        from repro.rewriter import ShardedTuningStore, TuningSession

        store = ShardedTuningStore(tmp_path / "s", shards=4)
        cold = compile_model(_toy_model(), target="x86", session=TuningSession(store=store))
        assert len(store.load()) > 0  # fresh searches were published

        warm_session = TuningSession(store=store)
        warm = compile_model(_toy_model(), target="x86", session=warm_session)
        assert warm_session.trials_run == 0
        assert warm.latency_ms == cold.latency_ms

    def test_session_is_the_only_spelling(self):
        """Where tuning happens is said once, as ``session=``."""
        import inspect

        from repro.core import compile_model_batch, experiments

        entry_points = [compile_model, compile_model_batch] + [
            getattr(experiments, name)
            for name in experiments.__all__
            if name.startswith("figure") and not name.startswith("figure1_")
        ]
        assert len(entry_points) == 8  # the two compiles + figures 8..13
        for function in entry_points:
            parameters = inspect.signature(function).parameters
            assert "session" in parameters, function.__name__
            assert not {"store", "remote"} & set(parameters), function.__name__

    def test_compile_model_batch_workers_matches_serial(self, tmp_path):
        from repro.core import compile_model_batch
        from repro.rewriter import ShardedTuningStore, TuningSession

        session = TuningSession(store=ShardedTuningStore(tmp_path / "s", shards=8))
        distributed = compile_model_batch(
            [_toy_model()], targets=("x86",), session=session, workers=2
        )
        # The workers published under exactly the keys the compiles look up.
        assert session.trials_run == 0 and session.store_hits > 0
        serial = compile_model_batch([_toy_model()], targets=("x86",))
        assert [c.latency_ms for c in distributed] == [c.latency_ms for c in serial]

    def test_compile_model_batch_workers_requires_store(self):
        from repro.core import compile_model_batch
        from repro.rewriter import TuningSession

        for session in (None, TuningSession()):
            with pytest.raises(ValueError, match=r"session\.store"):
                compile_model_batch(
                    [_toy_model()], targets=("x86",), session=session, workers=2
                )


class TestStoreConveniences:
    def test_store_accepts_a_path(self, tmp_path):
        """A path coerces to a ShardedTuningStore at the API boundary."""
        from repro.rewriter import ShardedTuningStore, TuningSession

        root = str(tmp_path / "s")
        cold = compile_model(_toy_model(), target="x86", session=TuningSession(store=root))
        assert len(ShardedTuningStore(root).load()) > 0
        warm_session = TuningSession(store=root)
        warm = compile_model(_toy_model(), target="x86", session=warm_session)
        assert warm_session.trials_run == 0
        assert warm.latency_ms == cold.latency_ms


class TestStaticPrecheck:
    """The static verification tier as the candidate-screening oracle."""

    def test_precheck_built_only_when_validating(self):
        from repro.core.pipeline import UnitCpuRunner
        from repro.workloads import Conv2DParams

        params = Conv2DParams(
            in_channels=8, in_height=6, in_width=6, out_channels=16, kernel=3, name="p"
        )
        plain = UnitCpuRunner(tuning="first_pair")
        assert plain._precheck("conv2d", params) is None
        checking = UnitCpuRunner(tuning="first_pair", validation="spot")
        assert checking._precheck("conv2d", params) is not None

    def test_sound_candidates_survive_the_precheck(self):
        from repro.core.pipeline import UnitCpuRunner
        from repro.workloads import Conv2DParams

        runner = UnitCpuRunner(tuning="full", validation="spot")
        params = Conv2DParams(
            in_channels=8, in_height=6, in_width=6, out_channels=16, kernel=3, name="ok"
        )
        cost = runner.conv2d_latency(params)
        assert cost.seconds > 0
        # Every candidate of the full space verifies: nothing rejected.
        assert runner.session.candidates_rejected == 0

    def test_rejected_candidates_counted_in_record(self):
        from repro.core.pipeline import UnitCpuRunner
        from repro.rewriter.loop_reorg import TensorizeError
        from repro.workloads import Conv2DParams

        class RejectFirst(UnitCpuRunner):
            """Wrap the real precheck, vetoing the first candidate seen."""

            def _precheck(self, kind, params):
                real = super()._precheck(kind, params)
                seen = []

                def check(config):
                    if not seen:
                        seen.append(config)
                        raise TensorizeError("injected precheck rejection")
                    if real is not None:
                        real(config)

                return check

        runner = RejectFirst(tuning="full", validation="spot")
        params = Conv2DParams(
            in_channels=8, in_height=6, in_width=6, out_channels=16, kernel=3, name="rj"
        )
        cost = runner.conv2d_latency(params)
        assert cost.seconds > 0
        assert runner.session.candidates_rejected == 1
        record = next(iter(runner.session.cache._records.values()))
        assert record.result.rejected == 1
