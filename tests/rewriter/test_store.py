"""Tests for the sharded concurrent tuning store and its file locks."""

import json
import multiprocessing
import os

import pytest

from repro.hwsim import CostBreakdown
from repro.rewriter import (
    SCHEMA_VERSION,
    CpuTuningConfig,
    FileLock,
    LockTimeout,
    ShardedTuningStore,
    TuningCache,
    TuningKey,
    TuningRecord,
    cost_model_fingerprint,
    params_fingerprint,
)
from repro.workloads import table1_layer
from tests.conftest import store_with_gc_sidecars


def _key(index: int, kind: str = "conv2d") -> TuningKey:
    return TuningKey(
        kind=kind,
        params=(("index", index),),
        intrinsic="x86.avx512.vpdpbusd",
        machine="cascade-lake",
        space="full@test",
    )


def _record(index: int, cost: float = 1e-5, trials: int = 3) -> TuningRecord:
    return TuningRecord(
        key=_key(index),
        best_config=CpuTuningConfig(unroll_limit=4),
        best_cost=cost,
        num_trials=trials,
        breakdown=CostBreakdown(seconds=cost, compute_seconds=cost),
    )


class TestSharding:
    def test_shard_of_is_stable_and_in_range(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=8)
        for index in range(50):
            shard = store.shard_of(_key(index))
            assert 0 <= shard < 8
            assert shard == store.shard_of(_key(index))  # deterministic

    def test_records_spread_across_shards(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=8)
        for index in range(64):
            store.put(_record(index))
        used = sum(
            1 for i in range(store.num_shards) if os.path.exists(store.shard_path(i))
        )
        assert used > 1  # a hash that maps everything to one shard is broken

    def test_shard_count_fixed_by_creator(self, tmp_path):
        first = ShardedTuningStore(tmp_path / "s", shards=4)
        first.put(_record(0))
        # A later opener asking for a different count adopts the stored one:
        # otherwise it would look for keys in the wrong shard files.
        second = ShardedTuningStore(tmp_path / "s", shards=16)
        assert second.num_shards == 4
        assert second.get(_key(0)) is not None

    def test_rejects_zero_shards(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedTuningStore(tmp_path / "s", shards=0)


class TestPutGet:
    def test_roundtrip(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=4)
        record = _record(1)
        store.put(record)
        got = store.get(_key(1))
        assert got is not None
        assert got.best_config == record.best_config
        assert got.best_cost == record.best_cost
        assert got.breakdown == record.breakdown
        assert store.get(_key(2)) is None
        stats = store.stats
        assert stats.appends == 1 and stats.hits == 1 and stats.misses == 1

    def test_duplicate_appends_last_wins(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=2)
        store.put(_record(1, cost=9.0))
        store.put(_record(1, cost=1.0))
        assert store.get(_key(1)).best_cost == 1.0
        assert len(store.load()) == 1  # one key, despite two lines

    def test_load_merges_all_shards(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=4)
        for index in range(12):
            store.put(_record(index))
        cache = store.load()
        assert len(cache) == 12
        for index in range(12):
            assert cache.lookup(_key(index)) is not None

    def test_real_layer_keys_roundtrip(self, tmp_path):
        # Keys built from live workload dataclasses must land in the same
        # shard as their JSON-roundtripped twins, or cross-process lookups
        # would miss.
        store = ShardedTuningStore(tmp_path / "s", shards=8)
        layer = table1_layer(5)
        key = TuningKey(
            kind="conv2d",
            params=params_fingerprint(layer),
            intrinsic="x86.avx512.vpdpbusd",
            machine="cascade-lake",
            space="full@aa",
        )
        store.put(
            TuningRecord(
                key=key,
                best_config=CpuTuningConfig(),
                best_cost=2e-5,
                num_trials=16,
                breakdown=CostBreakdown(seconds=2e-5),
            )
        )
        reloaded_key = store.load().records()[0].key
        assert reloaded_key == key
        assert store.shard_of(reloaded_key) == store.shard_of(key)


class TestCorruptionAndVersioning:
    def test_truncated_tail_tolerated_and_counted(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        store.put(_record(1))
        with open(store.shard_path(0), "a", encoding="utf-8") as handle:
            handle.write('{"schema": 2, "cost_model": "tru')  # crash mid-append
        assert store.get(_key(1)) is not None
        assert store.stats.corrupt_lines == 1

    def test_stale_schema_invalidated(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        store.put(_record(1))
        data = _record(2).to_json()
        data["schema"] = SCHEMA_VERSION - 1
        with open(store.shard_path(0), "a", encoding="utf-8") as handle:
            handle.write(json.dumps(data) + "\n")
        cache = store.load()
        assert len(cache) == 1
        assert cache.lookup(_key(2)) is None
        assert store.stats.stale_records == 1

    def test_stale_cost_model_invalidated(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        data = _record(1).to_json()
        data["cost_model"] = "0" * 12  # tuned under some other cost model
        with open(store.shard_path(0), "a", encoding="utf-8") as handle:
            handle.write(json.dumps(data) + "\n")
        assert store.get(_key(1)) is None
        assert store.stats.stale_records == 1

    def test_current_fingerprint_accepted(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        store.put(_record(1))
        raw = open(store.shard_path(0), encoding="utf-8").read()
        assert json.loads(raw)["cost_model"] == cost_model_fingerprint()
        assert store.get(_key(1)) is not None
        assert store.stats.stale_records == 0


class TestFileLock:
    def test_mutual_exclusion_within_process(self, tmp_path):
        path = tmp_path / "x.lock"
        outer = FileLock(path, timeout=0.2, poll_interval=0.01)
        inner = FileLock(path, timeout=0.2, poll_interval=0.01)
        with outer:
            with pytest.raises(LockTimeout):
                inner.acquire()
        assert inner.contentions == 1
        inner.acquire()  # released now
        inner.release()

    def test_not_reentrant(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with lock:
            with pytest.raises(RuntimeError):
                lock.acquire()
        with pytest.raises(RuntimeError):
            lock.release()

    def test_wait_accounting(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with lock:
            pass
        assert lock.acquisitions == 1
        assert lock.wait_seconds >= 0.0


def _append_worker(root: str, worker: int, count: int) -> None:
    store = ShardedTuningStore(root)
    for index in range(count):
        key = TuningKey(
            kind="mp",
            params=(("worker", worker), ("index", index)),
            intrinsic="none",
            machine="test-rig",
            space="mp@00",
        )
        store.put(
            TuningRecord(
                key=key,
                best_config=None,
                best_cost=float(index),
                num_trials=1,
                breakdown=CostBreakdown(seconds=float(index) + 1.0),
            )
        )


def _counter_worker(path: str, lock_path: str, increments: int) -> None:
    lock = FileLock(lock_path)
    for _ in range(increments):
        with lock:
            value = int(open(path, encoding="utf-8").read())
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(str(value + 1))


class TestMultiprocess:
    def test_concurrent_appends_lose_nothing(self, tmp_path):
        """The acceptance invariant: N writers, zero lost or corrupt records."""
        root = str(tmp_path / "s")
        ShardedTuningStore(root, shards=4)  # fix the layout first
        workers, each = 3, 15
        procs = [
            multiprocessing.Process(target=_append_worker, args=(root, w, each))
            for w in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in procs)
        store = ShardedTuningStore(root)
        cache = store.load()
        assert len(cache) == workers * each
        assert store.stats.corrupt_lines == 0
        assert store.stats.stale_records == 0

    def test_lock_serialises_read_modify_write(self, tmp_path):
        """Classic lost-update check on a shared counter file."""
        path = str(tmp_path / "counter")
        lock_path = str(tmp_path / "counter.lock")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("0")
        workers, increments = 3, 20
        procs = [
            multiprocessing.Process(
                target=_counter_worker, args=(path, lock_path, increments)
            )
            for _ in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in procs)
        assert int(open(path, encoding="utf-8").read()) == workers * increments


class TestCacheIntegration:
    def test_load_into_existing_cache_merges(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=2)
        store.put(_record(1))
        cache = TuningCache()
        cache.insert(_record(2))
        assert store.load_into(cache) == 2
        assert cache.lookup(_key(1)) is not None
        assert cache.lookup(_key(2)) is not None


class TestIncrementalScan:
    def test_append_after_torn_tail_is_recovered(self, tmp_path):
        """A crashed writer's torn tail must not swallow the next append."""
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        store.put(_record(1))
        assert store.get(_key(1)) is not None  # view now past record 1
        with open(store.shard_path(0), "a", encoding="utf-8") as handle:
            handle.write('{"schema": 2, "cost_model": "tru')  # crash mid-append
        assert store.get(_key(2)) is None  # consumes + counts the torn tail
        assert store.stats.corrupt_lines == 1
        store.put(_record(2))  # a live writer appends after the torn bytes
        assert store.get(_key(2)) is not None
        assert store.stats.corrupt_lines == 1  # tail counted exactly once

    def test_view_resets_after_external_fsck_repair(self, tmp_path):
        """Another handle's quarantine repair shrinks the shard; a reader
        whose view is past the old end must re-read, not seek into it."""
        reader = ShardedTuningStore(tmp_path / "s", shards=1)
        repairer = ShardedTuningStore(tmp_path / "s")
        repairer.put(_record(1, cost=9.0))
        with open(repairer.shard_path(0), "a", encoding="utf-8") as handle:
            handle.write("x" * 4096 + "\n")  # a long corrupt line
        repairer.put(_record(1, cost=1.0))
        assert reader.get(_key(1)).best_cost == 1.0  # reader's view is warm
        size = os.path.getsize(reader.shard_path(0))
        assert repairer.fsck()["quarantined"] == 1  # the shard shrank
        repairer.put(_record(2))
        assert os.path.getsize(reader.shard_path(0)) < size
        assert reader.get(_key(2)) is not None  # shrunken file reset the view
        assert reader.get(_key(1)).best_cost == 1.0

    def test_view_resets_after_external_repair_and_regrowth(self, tmp_path):
        """A repaired shard that grew back past the reader's old offset must
        still be re-read from the start, not from that offset."""
        reader = ShardedTuningStore(tmp_path / "s", shards=1)
        repairer = ShardedTuningStore(tmp_path / "s")
        repairer.put(_record(0))
        with open(repairer.shard_path(0), "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        repairer.put(_record(1))
        assert reader.get(_key(1)) is not None  # reader's view is warm
        size = os.path.getsize(reader.shard_path(0))
        assert repairer.fsck()["quarantined"] == 1
        for index in range(2, 6):
            repairer.put(_record(index))
        assert os.path.getsize(reader.shard_path(0)) > size
        assert all(reader.get(_key(index)) is not None for index in range(6))
        assert reader.stats.corrupt_lines == 1  # the garbage, read once

    def test_repeated_gets_do_not_rescan(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        for index in range(10):
            store.put(_record(index))
        store.get(_key(0))
        scanned = store.stats.records_scanned
        assert scanned == 10
        for index in range(10):
            store.get(_key(index))
        assert store.stats.records_scanned == scanned  # no new bytes, no rescan


class TestTornTailRepair:
    def test_fresh_handle_reads_record_appended_after_torn_tail(self, tmp_path):
        """put() must newline-terminate a crashed writer's torn tail so the
        new record stays readable to readers that scan the whole file."""
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        store.put(_record(1))
        with open(store.shard_path(0), "a", encoding="utf-8") as handle:
            handle.write('{"schema": 2, "cost_model": "tru')  # crash mid-append
        store.put(_record(2))  # a healthy writer appends next
        fresh = ShardedTuningStore(tmp_path / "s")  # knows nothing of the above
        assert fresh.get(_key(2)) is not None
        assert fresh.get(_key(1)) is not None
        assert fresh.stats.corrupt_lines == 1  # exactly the torn fragment

    def test_json_valid_non_object_line_is_corrupt(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        store.put(_record(1))
        with open(store.shard_path(0), "a", encoding="utf-8") as handle:
            handle.write("null\n[1, 2]\n42\n")
        assert store.get(_key(1)) is not None
        assert store.stats.corrupt_lines == 3
        assert store.stats.stale_records == 0

    def test_ill_typed_current_schema_line_is_corrupt(self, tmp_path):
        """A current-schema line whose key kind is an object must count as
        corrupt, not break the scan of the shard and hide the next record."""
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        store.put(_record(1))
        bad = _record(2).to_json()
        bad["key"]["kind"] = {"x": 1}
        with open(store.shard_path(0), "a", encoding="utf-8") as handle:
            handle.write(json.dumps(bad) + "\n")
        store.put(_record(3))
        fresh = ShardedTuningStore(tmp_path / "s")
        assert fresh.get(_key(1)) is not None
        assert fresh.get(_key(3)) is not None
        assert fresh.stats.corrupt_lines == 1


class TestFsck:
    def _corrupt_shard(self, store, index=0):
        with open(store.shard_path(index), "a", encoding="utf-8") as handle:
            handle.write('{"schema": 2, "cost_model": "torn-mid-app')

    def test_clean_store_audits_clean(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=2)
        for index in range(4):
            store.put(_record(index))
        report = store.fsck()
        assert report["clean"] == 1
        assert report["records"] == 4
        assert report["corrupt"] == 0 and report["quarantined"] == 0

    def test_check_mode_reports_without_modifying(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        store.put(_record(0))
        self._corrupt_shard(store)
        before = open(store.shard_path(0), encoding="utf-8").read()
        report = store.fsck(quarantine=False)
        assert report["corrupt"] == 1 and report["clean"] == 0
        assert report["quarantined"] == 0
        assert open(store.shard_path(0), encoding="utf-8").read() == before
        assert not os.path.exists(store.quarantine_path(0))

    def test_repair_quarantines_and_second_pass_is_clean(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        store.put(_record(0))
        store.put(_record(1))
        self._corrupt_shard(store)
        report = store.fsck()
        assert report["quarantined"] == 1
        # Nothing was destroyed: the bad line lives on in the quarantine file.
        quarantined = open(store.quarantine_path(0), encoding="utf-8").read()
        assert "torn-mid-app" in quarantined
        # The repaired shard serves both records and re-audits clean.
        fresh = ShardedTuningStore(tmp_path / "s")
        assert fresh.get(_key(0)) is not None and fresh.get(_key(1)) is not None
        assert fresh.fsck()["clean"] == 1

    def test_stale_records_are_counted_but_left_in_place(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        store.put(_record(0))
        stale = _record(1).to_json()
        stale["cost_model"] = "feedfacecafe"
        with open(store.shard_path(0), "a", encoding="utf-8") as handle:
            handle.write(json.dumps(stale) + "\n")
        report = store.fsck()
        assert report["stale"] == 1
        assert report["clean"] == 1  # stale is data, not damage
        assert "feedfacecafe" in open(store.shard_path(0), encoding="utf-8").read()

    def test_leftover_compaction_temps_are_swept(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        store.put(_record(0))
        litter = os.path.join(store.root, "shard-00.jsonl.tmp.12345")
        with open(litter, "w", encoding="utf-8") as handle:
            handle.write("half-written compaction\n")
        check = store.fsck(quarantine=False)
        assert check["tmp_files"] == 1 and check["clean"] == 0
        repair = store.fsck()
        assert repair["tmp_removed"] == 1
        assert not os.path.exists(litter)
        assert store.fsck(quarantine=False)["clean"] == 1

    def test_repaired_shard_view_serves_fresh_reads(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        store.put(_record(0))
        store.get(_key(0))  # warm the incremental view
        self._corrupt_shard(store)
        store.fsck()
        # The rewrite invalidated the view; a read must rescan, not serve
        # offsets into the old file layout.
        assert store.get(_key(0)) is not None


def _snapshot(root):
    """Every file under ``root`` but the lock files -> (inode, bytes)."""
    files = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".lock"):
            continue
        path = os.path.join(root, name)
        with open(path, "rb") as handle:
            files[name] = (os.stat(path).st_ino, handle.read())
    return files


class TestAppendOnly:
    """``put`` only appends to a shard; only ``fsck``'s repair rewrites one."""

    def test_put_appends_to_the_same_file(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        store.put(_record(1))
        inode, before = _snapshot(store.root)["shard-00.jsonl"]
        store.put(_record(1, cost=2.0))
        store.put(_record(2))
        after_inode, after = _snapshot(store.root)["shard-00.jsonl"]
        assert after_inode == inode  # never replaced
        assert after.startswith(before) and after.count(b"\n") == 3

    def test_reads_write_nothing(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=2)
        for index in range(4):
            store.put(_record(index))
        before = _snapshot(store.root)
        reader = ShardedTuningStore(tmp_path / "s")
        for index in range(6):  # hits and misses
            reader.get(_key(index))
            store.get(_key(index))
        assert len(reader) == 4 and len(store.records()) == 4
        assert _snapshot(store.root) == before  # no last-served sidecar

    def test_clean_fsck_rewrites_nothing(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        store.put(_record(1, cost=9.0))
        store.put(_record(1, cost=1.0))  # a duplicate is not damage
        stale = _record(2).to_json()
        stale["schema"] = SCHEMA_VERSION + 1
        with open(store.shard_path(0), "a", encoding="utf-8") as handle:
            handle.write(json.dumps(stale) + "\n")
        before = _snapshot(store.root)
        report = store.fsck()
        assert report["clean"] == 1 and report["records"] == 2 and report["stale"] == 1
        assert _snapshot(store.root) == before

    def test_repair_keeps_every_good_line_in_order(self, tmp_path):
        """Quarantine drops only corrupt lines: duplicates and stale lines
        stay, in append order, so last-wins still picks the same record."""
        store = ShardedTuningStore(tmp_path / "s", shards=1)
        store.put(_record(1, cost=9.0))
        with open(store.shard_path(0), "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        store.put(_record(1, cost=1.0))
        store.put(_record(2))
        good = [
            line
            for line in open(store.shard_path(0), encoding="utf-8").read().splitlines()
            if line != "garbage"
        ]
        assert store.fsck()["quarantined"] == 1
        assert open(store.shard_path(0), encoding="utf-8").read().splitlines() == good
        assert ShardedTuningStore(tmp_path / "s").get(_key(1)).best_cost == 1.0
        leftovers = [n for n in os.listdir(store.root) if ".tmp." in n]
        assert leftovers == []

    def test_stats_carry_no_gc_counters(self, tmp_path):
        stats = ShardedTuningStore(tmp_path / "s").stats.as_dict()
        assert set(stats) == {
            "appends",
            "reads",
            "hits",
            "misses",
            "records_scanned",
            "corrupt_lines",
            "stale_records",
            "lock_acquisitions",
            "lock_contentions",
            "lock_wait_seconds",
        }


class TestStoreWithGcSidecars:
    """A store directory written while the store kept an LRU GC clock opens
    and serves unchanged; its sidecars are neither read nor deleted."""

    def test_serves_the_last_record_written_per_key(self, tmp_path):
        latest, _, _ = store_with_gc_sidecars(tmp_path / "s")
        store = ShardedTuningStore(tmp_path / "s")
        for key, record in latest.items():
            assert store.get(key).to_json() == record.to_json()
        assert len(store) == len(latest)
        assert store.stats.corrupt_lines == 0  # sidecar lines are never read

    def test_fsck_sweeps_only_the_temp_file(self, tmp_path):
        latest, sidecars, temp = store_with_gc_sidecars(tmp_path / "s")
        store = ShardedTuningStore(tmp_path / "s")
        before = _snapshot(store.root)
        check = store.fsck(quarantine=False)
        assert check["tmp_files"] == 1 and check["clean"] == 0
        assert check["records"] == 3 * len(latest) and check["corrupt"] == 0
        repair = store.fsck()
        assert repair["tmp_removed"] == 1 and repair["quarantined"] == 0
        after = _snapshot(store.root)
        del before[os.path.basename(temp)]
        assert after == before  # shards and sidecars byte for byte
        assert all(os.path.basename(path) in after for path in sidecars)
        assert store.fsck(quarantine=False)["clean"] == 1

    def test_appends_leave_the_sidecars_alone(self, tmp_path):
        latest, sidecars, _ = store_with_gc_sidecars(tmp_path / "s")
        before = {path: open(path, "rb").read() for path in sidecars}
        store = ShardedTuningStore(tmp_path / "s")
        newer = _record(0, cost=7.0)
        for key in latest:
            store.get(key)
        store.put(newer)
        assert {path: open(path, "rb").read() for path in sidecars} == before
        assert ShardedTuningStore(tmp_path / "s").get(newer.key).best_cost == 7.0


class TestLockRetrySchedule:
    def test_lock_uses_pid_seeded_jittered_policy(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock", timeout=3.0, poll_interval=0.004)
        assert lock.retry.deadline_s == 3.0
        assert lock.retry.base_delay_s == 0.004
        assert lock.retry.seed == os.getpid()  # decorrelates across processes
        assert lock.retry.jitter > 0

    def test_custom_retry_policy_deadline_becomes_the_timeout(self, tmp_path):
        from repro.retry import RetryPolicy

        policy = RetryPolicy(max_attempts=None, base_delay_s=0.001, deadline_s=0.25)
        lock = FileLock(tmp_path / "x.lock", timeout=99.0, retry=policy)
        assert lock.timeout == 0.25

    def test_contended_lock_times_out_on_the_policy_deadline(self, tmp_path):
        path = tmp_path / "x.lock"
        holder = FileLock(path, timeout=5.0)
        holder.acquire()
        try:
            waiter = FileLock(path, timeout=0.3)
            import time as time_module

            start = time_module.perf_counter()
            with pytest.raises(LockTimeout, match="within 0.3s"):
                waiter.acquire()
            waited = time_module.perf_counter() - start
            assert 0.2 <= waited < 2.0  # deadline honoured, not overshot
            assert waiter.contentions == 1
        finally:
            holder.release()
