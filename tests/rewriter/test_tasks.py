"""Tests for tuning tasks (the daemon's search reconstruction) and store-backed sessions."""

import dataclasses
import json
import multiprocessing

import pytest

from repro.core import UnitCpuRunner, compile_model
from repro.core.pipeline import TARGETS, unit_runner
from repro.models import get_model
from repro.models.zoo import EVALUATED_MODELS
from repro.rewriter import (
    ShardedTuningStore,
    TuningSession,
    TuningTask,
    task_from_key,
    tasks_from_graph,
)
from repro.rewriter.tasks import build_runner, run_task
from repro.workloads.table1 import TABLE1_LAYERS


def _record_bytes(records):
    """Key -> the canonical JSON bytes of its record."""
    return {r.key: json.dumps(r.to_json(), sort_keys=True) for r in records}


class TestTasks:
    def test_tasks_from_graph_dedups_repeated_layers(self):
        graph = get_model("resnet-18", fresh=True)
        tasks = tasks_from_graph(graph, target="x86")
        # ResNet-18 repeats its residual-block convolutions: far fewer
        # distinct tuning problems than conv nodes.
        work_nodes = [n for n in graph.nodes if type(n).__name__ in ("Conv2DNode", "DenseNode")]
        assert 0 < len(tasks) < len(work_nodes)

    def test_tasks_from_graph_matches_compile_lookups(self, tmp_path):
        """Pre-tuning a graph's tasks must make its compile fully warm."""
        store = ShardedTuningStore(tmp_path / "s", shards=4)
        graph = get_model("mobilenet-v2", fresh=True)
        pre_session = TuningSession(store=store)
        for task in tasks_from_graph(graph, target="x86"):
            run_task(task, pre_session)
        assert pre_session.searches_run > 0

        warm = TuningSession(store=store)
        compile_model(get_model("mobilenet-v2", fresh=True), target="x86", session=warm)
        assert warm.trials_run == 0  # every lookup hit memory or a shard

    @pytest.mark.parametrize("target", ["x86", "arm", "cuda"])
    @pytest.mark.parametrize("model", EVALUATED_MODELS)
    def test_one_task_identity_with_compile_model(self, model, target):
        """The unification pin: ``compile_model``, ``tasks_from_graph``,
        ``TuningTask.key`` and ``task_from_key`` agree on every key of every
        (model, target) pair, because they derive from one target table."""
        session = TuningSession()
        compile_model(get_model(model, fresh=True), target=target, session=session)
        looked_up = {record.key for record in session.cache.records()}
        tasks = tasks_from_graph(get_model(model, fresh=True), target=target)
        assert {task.key() for task in tasks} == looked_up
        assert len(tasks) == len(looked_up)  # one task per distinct key
        for key in looked_up:
            task = task_from_key(key)
            assert task is not None and task.key() == key

    def test_identity_ignores_the_layer_name_only(self):
        layer = TABLE1_LAYERS[0]
        task = TuningTask(kind="conv2d", params=layer)
        renamed = TuningTask(kind="conv2d", params=dataclasses.replace(layer, name="other"))
        assert renamed.identity == task.identity and renamed.key() == task.key()
        for change in (
            {"params": TABLE1_LAYERS[1]},
            {"kind": "conv3d"},
            {"tuning": "first_pair"},
            {"intrinsic": "x86.avx512.vpdpwssd"},
            {"machine": "graviton2"},
        ):
            assert dataclasses.replace(task, **change).identity != task.identity

    def test_unknown_task_kind_rejected(self):
        task = TuningTask(kind="pool", params=TABLE1_LAYERS[0])
        with pytest.raises(ValueError):
            run_task(task, TuningSession())

    def test_unknown_runner_rejected(self):
        task = TuningTask(kind="conv2d", params=TABLE1_LAYERS[0], runner="tpu")
        with pytest.raises(ValueError):
            build_runner(task, TuningSession())

    def test_gpu_task_builds_gpu_runner(self):
        task = TuningTask(
            kind="conv2d",
            params=TABLE1_LAYERS[7],
            runner="gpu",
            machine="v100",
            intrinsic="nvvm.wmma.m16n16k16.mma.row.row.f32.f32",
            tuning="tune",
        )
        cost = run_task(task, TuningSession())
        assert cost.seconds > 0


class TestStoreBackedSession:
    def test_read_through_and_write_through(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=4)
        layer = TABLE1_LAYERS[4]
        first = TuningSession(store=store)
        cold = UnitCpuRunner(session=first).conv2d_latency(layer)
        assert store.stats.appends == 1  # fresh search published

        second = TuningSession(store=store)
        warm = UnitCpuRunner(session=second).conv2d_latency(layer)
        assert second.trials_run == 0
        assert second.store_hits == 1
        assert warm == cold
        # The shard hit was promoted into memory: a third lookup is free.
        UnitCpuRunner(session=second).conv2d_latency(layer)
        assert second.store_hits == 1

    def test_memoize_reads_through_store(self, tmp_path):
        from repro.hwsim import CostBreakdown
        from repro.rewriter import TuningKey

        store = ShardedTuningStore(tmp_path / "s", shards=2)
        key = TuningKey(
            kind="dense",
            params=(("n", 64),),
            intrinsic="",
            machine="cascade-lake",
            space="library:onednn",
        )
        calls = []

        def compute():
            calls.append(1)
            return CostBreakdown(seconds=3e-5)

        TuningSession(store=store).memoize(key, compute)
        TuningSession(store=store).memoize(key, compute)
        assert len(calls) == 1  # second session served from the shard

    def test_summary_mentions_store(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=2)
        assert "store hits" in TuningSession(store=store).summary()
        assert "store hits" not in TuningSession().summary()


class TestTaskFromKey:
    """Keys that cannot round-trip rebuild no task, so the daemon never runs
    a search other than the one the requester keyed."""

    _BASE = TuningTask(kind="conv2d", params=TABLE1_LAYERS[0]).key()

    @pytest.mark.parametrize(
        "change",
        [
            {"space": "library:onednn", "intrinsic": ""},
            {"kind": "pool"},
            {"machine": "warp-core"},
            {"space": "tune@" + _BASE.space.split("@", 1)[1]},  # a GPU mode on a CPU
            {"params": (("bogus", 1),)},
            {"params": tuple(reversed(_BASE.params))},  # rebuilds, fingerprints differently
        ],
        ids=["library-space", "unknown-kind", "unknown-machine", "foreign-mode",
             "foreign-params", "reordered-params"],
    )
    def test_unround_trippable_key_gives_none(self, change):
        assert task_from_key(self._BASE) is not None
        assert task_from_key(dataclasses.replace(self._BASE, **change)) is None


TABLE1_TARGETS = ("x86", "arm", "cuda")


class TestRecordsUnchanged:
    @pytest.mark.parametrize("target", TABLE1_TARGETS)
    def test_search_rebuilt_from_the_key_matches_the_compile_path(self, target, tmp_path):
        """The Table I slice of the reference records: the search the daemon
        rebuilds from a bare key publishes, through a store, the same record
        bytes the compile path's runner tunes in process."""
        row = TARGETS[target]
        direct = TuningSession()
        runner = unit_runner(row.runner, row.machine, row.intrinsic, row.tuning, direct)
        for layer in TABLE1_LAYERS:
            runner.conv2d_latency(layer)
        expected = _record_bytes(direct.cache.records())
        assert len(expected) == len(TABLE1_LAYERS)

        rebuilt = TuningSession(store=ShardedTuningStore(tmp_path / "s", shards=4))
        for key in expected:
            run_task(task_from_key(key), rebuilt)
        assert rebuilt.searches_run == len(TABLE1_LAYERS)
        reloaded = ShardedTuningStore(tmp_path / "s").load()
        assert _record_bytes(reloaded.records()) == expected


def _tune_graph_into(root, target):
    session = TuningSession(store=ShardedTuningStore(root))
    for task in tasks_from_graph(get_model("mobilenet-v2", fresh=True), target=target):
        run_task(task, session)


class TestSharedStore:
    @pytest.mark.parametrize("target", TABLE1_TARGETS)
    def test_another_process_warms_this_compile(self, target, tmp_path):
        """The daemon and user processes share one store: what another
        process tuned serves this process's compile with no search, and the
        records are the bytes a local search produces."""
        root = str(tmp_path / "s")
        ShardedTuningStore(root, shards=4)  # fix the layout first
        proc = multiprocessing.Process(target=_tune_graph_into, args=(root, target))
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == 0

        warm = TuningSession(store=ShardedTuningStore(root))
        compile_model(get_model("mobilenet-v2", fresh=True), target=target, session=warm)
        assert warm.trials_run == 0 and warm.store_hits > 0
        local = TuningSession()
        compile_model(get_model("mobilenet-v2", fresh=True), target=target, session=local)
        assert _record_bytes(warm.cache.records()) == _record_bytes(local.cache.records())
