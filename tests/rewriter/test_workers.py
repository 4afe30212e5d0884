"""Tests for distributed tuning workers, lease claiming and store-backed sessions."""

import pytest

from repro.core import UnitCpuRunner
from repro.models import get_model
from repro.models.zoo import EVALUATED_MODELS
from repro.rewriter import (
    DistributedTuner,
    LeaseFile,
    ShardedTuningStore,
    TuningSession,
    TuningTask,
    task_from_key,
    tasks_from_graph,
    tasks_from_layers,
)
from repro.rewriter.workers import build_runner, run_task
from repro.workloads.table1 import TABLE1_LAYERS


class TestLeaseFile:
    def test_claims_are_disjoint_and_exhaustive(self, tmp_path):
        lease = LeaseFile(tmp_path / "leases.jsonl")
        total = 17
        slices = []
        # Interleaved claimers with different batch sizes, as racing worker
        # processes would produce.
        claimers = [("a", 2), ("b", 3), ("c", 1)]
        exhausted = False
        while not exhausted:
            exhausted = True
            for worker, batch in claimers:
                got = lease.claim(worker, total, batch=batch)
                if got:
                    exhausted = False
                    slices.append(got)
        flat = [index for chunk in slices for index in chunk]
        assert sorted(flat) == list(range(total))
        assert len(flat) == len(set(flat))  # no index claimed twice

    def test_claims_map_reports_owners(self, tmp_path):
        lease = LeaseFile(tmp_path / "leases.jsonl")
        lease.claim("w0", 4, batch=2)
        lease.claim("w1", 4, batch=2)
        claims = lease.claims()
        assert sorted(claims) == [0, 1, 2, 3]
        assert claims[0] == "w0" and claims[3] == "w1"

    def test_empty_claim_when_exhausted(self, tmp_path):
        lease = LeaseFile(tmp_path / "leases.jsonl")
        lease.claim("w0", 2, batch=2)
        assert lease.claim("w1", 2, batch=2) == []


class TestTasks:
    def test_tasks_from_layers(self):
        tasks = tasks_from_layers(TABLE1_LAYERS[:3])
        assert len(tasks) == 3
        assert all(t.kind == "conv2d" and t.runner == "cpu" for t in tasks)

    def test_tasks_from_graph_dedups_repeated_layers(self):
        graph = get_model("resnet-18", fresh=True)
        tasks = tasks_from_graph(graph, target="x86")
        # ResNet-18 repeats its residual-block convolutions: far fewer
        # distinct tuning problems than conv nodes.
        work_nodes = [n for n in graph.nodes if type(n).__name__ in ("Conv2DNode", "DenseNode")]
        assert 0 < len(tasks) < len(work_nodes)

    def test_tasks_from_graph_matches_compile_lookups(self, tmp_path):
        """Pre-tuning a graph's tasks must make its compile fully warm."""
        from repro.core import compile_model

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
        from repro.core import compile_model

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
        import dataclasses

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


class TestDistributedTuner:
    def test_matches_single_process_bit_identical(self, tmp_path):
        """The acceptance criterion, in miniature and at full width.

        A multi-process distributed run over the Table I layer set, reloaded
        from its store, must agree record-for-record (config and cost) with
        a plain single-process ``TuningSession.tune`` sweep.
        """
        reference = TuningSession()
        runner = UnitCpuRunner(session=reference)
        costs = [runner.conv2d_latency(params) for params in TABLE1_LAYERS]

        store = ShardedTuningStore(tmp_path / "s", shards=8)
        report = DistributedTuner(store, workers=2).run(tasks_from_layers(TABLE1_LAYERS))
        assert report.complete
        assert report.searches == len(TABLE1_LAYERS)

        reloaded = store.load()
        assert len(reloaded) == len(TABLE1_LAYERS)  # no lost records
        for record in reference.cache.records():
            got = reloaded.lookup(record.key)
            assert got is not None
            assert got.best_config == record.best_config
            assert got.best_cost == record.best_cost

        warm = TuningSession(store=store)
        warm_runner = UnitCpuRunner(session=warm)
        for params, cold in zip(TABLE1_LAYERS, costs):
            assert warm_runner.conv2d_latency(params) == cold
        assert warm.trials_run == 0

    def test_workers_split_the_tasks(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=4)
        report = DistributedTuner(store, workers=2).run(
            tasks_from_layers(TABLE1_LAYERS[:6])
        )
        assert sum(w.tasks_done for w in report.workers) == 6
        assert report.claimed_indices() == list(range(6))
        # One lease line per claim: claims were disjoint by construction, so
        # no task was tuned twice.
        assert report.searches == 6

    def test_repeated_run_is_all_store_hits(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=4)
        tuner = DistributedTuner(store, workers=2)
        tasks = tasks_from_layers(TABLE1_LAYERS[:4])
        first = tuner.run(tasks)
        assert first.searches == 4
        second = tuner.run(tasks)
        assert second.searches == 0  # everything read through the store
        assert sum(w.store_hits for w in second.workers) == 4

    def test_rejects_empty_tasks(self, tmp_path):
        tuner = DistributedTuner(ShardedTuningStore(tmp_path / "s"), workers=2)
        with pytest.raises(ValueError):
            tuner.run([])

    def test_rejects_zero_workers(self, tmp_path):
        with pytest.raises(ValueError):
            DistributedTuner(ShardedTuningStore(tmp_path / "s"), workers=0)

    def test_store_path_coerced(self, tmp_path):
        tuner = DistributedTuner(str(tmp_path / "s"), workers=1)
        assert isinstance(tuner.store, ShardedTuningStore)


class TestFailureModes:
    def test_stale_lease_file_does_not_poison_new_run(self, tmp_path):
        """A crashed run's leftover lease (same pid/counter) must not make a
        fresh run see every task as already claimed."""
        import json
        import os

        store = ShardedTuningStore(tmp_path / "s", shards=4)
        tasks = tasks_from_layers(TABLE1_LAYERS[:3])
        stale = os.path.join(store.root, f"leases-{os.getpid()}-1.jsonl")
        with open(stale, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"worker": "ghost", "pid": 0, "indices": [0, 1, 2]}) + "\n")
        report = DistributedTuner(store, workers=2).run(tasks)
        assert report.complete and report.searches == 3

    def test_lease_file_removed_after_success(self, tmp_path):
        import os

        store = ShardedTuningStore(tmp_path / "s", shards=4)
        DistributedTuner(store, workers=2).run(tasks_from_layers(TABLE1_LAYERS[:2]))
        leftovers = [n for n in os.listdir(store.root) if n.startswith("leases-")]
        assert leftovers == []

    def test_crashed_worker_handled_fast(self, tmp_path):
        """A worker that dies on a bad task is detected within poll slices
        (drain path), the task is quarantined, and the run completes promptly
        — never waiting out the full join timeout."""
        import time

        store = ShardedTuningStore(tmp_path / "s", shards=2)
        bad = [TuningTask(kind="conv2d", params=TABLE1_LAYERS[0], machine="warp-core")]
        tuner = DistributedTuner(
            store, workers=1, join_timeout=120.0, heartbeat_interval=0.1
        )
        start = time.monotonic()
        report = tuner.run(bad)
        assert time.monotonic() - start < 30.0
        assert report.complete
        assert report.completed == [] and report.quarantined == [0]
        # One crash per allowed claim: poison_threshold workers died on it.
        assert report.crashes == tuner.poison_threshold
        assert report.poison_records[0]["index"] == 0

    def test_crash_without_heartbeat_blame_still_fails_loudly(self, tmp_path):
        """Drain path with no blamable index: a worker that dies with no
        heartbeat stamp (crash before its first task) cannot be quarantined,
        so a permanently crashing fleet must exhaust its restart budget and
        raise instead of looping forever."""
        import time

        store = ShardedTuningStore(tmp_path / "s", shards=2)
        bad = [TuningTask(kind="conv2d", params=TABLE1_LAYERS[0], machine="warp-core")]
        # poison_threshold high enough that quarantine never saves the run.
        tuner = DistributedTuner(
            store,
            workers=1,
            join_timeout=120.0,
            max_restarts=1,
            poison_threshold=99,
            heartbeat_interval=0.1,
        )
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="restart budget|fleet lost"):
            tuner.run(bad)
        assert time.monotonic() - start < 60.0

    def test_queue_deadline_still_enforced(self, tmp_path, monkeypatch):
        """A fleet making no progress (workers alive, nothing reported, no
        crashes to heal) must still hit the join deadline, not hang."""
        from repro.rewriter import workers as workers_module

        store = ShardedTuningStore(tmp_path / "s", shards=2)
        tasks = tasks_from_layers(TABLE1_LAYERS[:1])
        tuner = DistributedTuner(
            store,
            workers=1,
            join_timeout=1.5,
            heartbeat_timeout=None,  # liveness killing off: pure deadline
        )

        def wedged_worker(*args, **kwargs):
            import time as time_module

            time_module.sleep(600)

        monkeypatch.setattr(workers_module, "_worker_main", wedged_worker)
        with pytest.raises(RuntimeError, match="within"):
            tuner.run(tasks)
