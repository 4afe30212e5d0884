"""Sharded on-disk tuning store: many concurrent writers, one warm cache.

The one persistent home of tuning records.  A single JSONL file written
wholesale is perfect for one process and fatal for two — the second writer
silently clobbers the first — so records live in a store built for
concurrent writers from the start:

* records are partitioned across N JSONL *shard* files by a stable hash of
  their :class:`~repro.rewriter.records.TuningKey`, so concurrent writers of
  different keys usually touch different files;
* every shard write is an **append** of one complete line performed under a
  per-shard cross-process :class:`FileLock` (``fcntl``/``msvcrt`` where
  available, an exclusive-create lockfile otherwise), so two processes
  publishing into the same shard serialise instead of interleaving bytes;
* duplicate appends for one key are resolved *last-wins* at read time; a
  shard file only ever grows by appends, and only :meth:`ShardedTuningStore.fsck`
  rewrites one (its quarantine repair, via a crash-safe
  write-to-temp-then-``os.replace``: a reader or a crash mid-repair sees
  either the old file or the new one, never a partial file);
* every persisted line carries the record schema version and the cost-model
  fingerprint (:func:`~repro.rewriter.records.cost_model_fingerprint`), so a
  store tuned under an edited ``hwsim`` cost model invalidates itself instead
  of serving stale winners.

The record set is bounded by the operators compiled (one best configuration
per operator shape and target), so the store keeps everything it is given.

:class:`~repro.rewriter.session.TuningSession` reads through this store
(memory -> shard -> miss) and writes fresh records through to it; the
tuning daemon and any number of user processes may share one store
directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..retry import RetryPolicy
from ..testing import faults
from .records import (
    SCHEMA_VERSION,
    TuningCache,
    TuningKey,
    TuningRecord,
    cost_model_fingerprint,
    decode_record_line,
)

__all__ = ["FileLock", "LockTimeout", "ShardedTuningStore", "StoreStats"]

try:  # POSIX
    import fcntl

    _HAVE_FCNTL = True
except ImportError:  # pragma: no cover - platform dependent
    _HAVE_FCNTL = False

try:  # Windows
    import msvcrt

    _HAVE_MSVCRT = True
except ImportError:  # pragma: no cover - platform dependent
    _HAVE_MSVCRT = False


class LockTimeout(TimeoutError):
    """A :class:`FileLock` could not be acquired within its timeout."""


class FileLock:
    """An advisory cross-process mutex backed by a lock file.

    Uses ``fcntl.flock`` on POSIX and ``msvcrt.locking`` on Windows; on
    platforms with neither it falls back to spinning on an
    ``O_CREAT | O_EXCL`` sentinel file (with stale-sentinel breaking, so a
    crashed holder delays waiters by at most ``timeout`` rather than
    deadlocking them).  Not reentrant: a process must release before
    re-acquiring.

    The lock keeps contention accounting — how often and for how long
    acquisition had to wait — which :class:`ShardedTuningStore` aggregates
    into its :class:`StoreStats`.

    Contention is waited out on a :class:`~repro.retry.RetryPolicy`:
    capped-exponential polling (starting at ``poll_interval``) with
    deterministic jitter seeded by this process's pid, so N workers that
    collide on one shard decorrelate instead of re-polling in phase, and
    ``timeout`` is the policy deadline.  Pass ``retry=`` to override the
    whole schedule; its ``deadline_s`` then *is* the timeout.
    """

    def __init__(
        self,
        path,
        timeout: float = 30.0,
        poll_interval: float = 0.002,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.path = os.fspath(path)
        if retry is None:
            retry = RetryPolicy(
                max_attempts=None,
                base_delay_s=poll_interval,
                max_delay_s=max(poll_interval * 25.0, 0.05),
                multiplier=1.5,
                jitter=0.5,
                deadline_s=timeout,
                seed=os.getpid(),
            )
        elif retry.deadline_s is not None:
            timeout = retry.deadline_s
        self.retry = retry
        self.timeout = timeout
        self.poll_interval = poll_interval
        self._fd: Optional[int] = None
        self.acquisitions = 0
        self.contentions = 0
        self.wait_seconds = 0.0

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self) -> None:
        if self._fd is not None:
            raise RuntimeError(f"lock {self.path!r} is not reentrant")
        faults.fire("store.lock", path=self.path)
        start = time.perf_counter()
        if _HAVE_FCNTL or _HAVE_MSVCRT:
            self._fd = self._acquire_os_lock()
        else:  # pragma: no cover - exercised only where fcntl/msvcrt are absent
            self._fd = self._acquire_sentinel()
        self.acquisitions += 1
        self.wait_seconds += time.perf_counter() - start

    def _acquire_os_lock(self) -> int:
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        contended = False
        for _ in self.retry.attempts():
            try:
                if _HAVE_FCNTL:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                else:
                    msvcrt.locking(fd, msvcrt.LK_NBLCK, 1)
                return fd
            except OSError:
                if not contended:
                    contended = True
                    self.contentions += 1
        os.close(fd)
        raise LockTimeout(f"could not lock {self.path!r} within {self.timeout}s")

    def _acquire_sentinel(self) -> int:
        # Exclusive-create fallback: whoever creates the sentinel holds the
        # lock.  A sentinel older than the timeout is treated as leaked by a
        # crashed holder and broken.
        contended = False
        for _ in self.retry.attempts():
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                return fd
            except FileExistsError:
                if not contended:
                    contended = True
                    self.contentions += 1
                try:
                    if time.time() - os.path.getmtime(self.path) > self.timeout:
                        # Break the stale sentinel via rename-then-unlink:
                        # exactly one waiter wins the rename, so two waiters
                        # can never each unlink a *different* (fresh) sentinel
                        # and both believe they hold the lock.
                        doomed = f"{self.path}.break.{os.getpid()}"
                        os.rename(self.path, doomed)
                        os.unlink(doomed)
                except OSError:
                    pass  # holder released / another waiter broke it first
        raise LockTimeout(f"could not lock {self.path!r} within {self.timeout}s")

    def release(self) -> None:
        if self._fd is None:
            raise RuntimeError(f"lock {self.path!r} is not held")
        fd, self._fd = self._fd, None
        if _HAVE_FCNTL:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
        elif _HAVE_MSVCRT:  # pragma: no cover - platform dependent
            msvcrt.locking(fd, msvcrt.LK_UNLCK, 1)
            os.close(fd)
        else:  # pragma: no cover - platform dependent
            os.close(fd)
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


@dataclass
class _ShardView:
    """One handle's incremental view of a shard file.

    ``offset`` is the byte position up to which lines have been decoded into
    ``records`` (last-wins per key) from the file whose inode is ``inode``.
    Shards only grow by appends, so a lookup only ever decodes the bytes
    appended since the previous read instead of rescanning the whole file.
    A file with another inode (another handle's
    :meth:`ShardedTuningStore.fsck` replaced it) or fewer bytes than
    ``offset`` resets the view: its offsets point into the old file.
    """

    offset: int = 0
    inode: int = -1
    records: Dict[TuningKey, TuningRecord] = dataclasses.field(default_factory=dict)

    def reset(self) -> None:
        self.offset = 0
        self.records = {}


@dataclass
class StoreStats:
    """Operation and contention accounting for one :class:`ShardedTuningStore`.

    Lock counters aggregate over every shard lock this store handle has used:
    ``lock_contentions`` counts acquisitions that found the lock held by
    someone else, ``lock_wait_seconds`` the total time spent waiting.
    """

    appends: int = 0
    reads: int = 0
    hits: int = 0
    misses: int = 0
    records_scanned: int = 0
    corrupt_lines: int = 0
    stale_records: int = 0
    lock_acquisitions: int = 0
    lock_contentions: int = 0
    lock_wait_seconds: float = 0.0

    def as_dict(self) -> Dict:
        return dataclasses.asdict(self)


class ShardedTuningStore:
    """Tuning records partitioned across N append-only JSONL shard files.

    ``root`` is a directory (created if missing) holding ``store.json``
    (shard-count metadata, so every opener agrees on the partitioning),
    ``shard-XX.jsonl`` data files and ``shard-XX.lock`` lock files.  The
    shard count is fixed at creation; a later opener's ``shards`` argument is
    ignored in favour of the stored one.  Any other file in ``root`` (such
    as the ``served-XX.jsonl`` last-served sidecars older stores kept) is
    neither read nor deleted, except the ``*.tmp.*`` leftovers :meth:`fsck`
    sweeps.

    All methods are safe against concurrent use from other processes; one
    store *handle* is not itself thread-safe (give each thread or process
    its own handle).
    """

    META_NAME = "store.json"

    def __init__(self, root, shards: int = 8, lock_timeout: float = 30.0) -> None:
        if shards < 1:
            raise ValueError("a sharded store needs at least one shard")
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.lock_timeout = lock_timeout
        self.num_shards = self._init_meta(int(shards))
        self._locks = [
            FileLock(self._lock_path(index), timeout=lock_timeout)
            for index in range(self.num_shards)
        ]
        self._views = [_ShardView() for _ in range(self.num_shards)]
        self._counters = StoreStats()

    # -- layout ---------------------------------------------------------------
    def _meta_path(self) -> str:
        return os.path.join(self.root, self.META_NAME)

    def shard_path(self, index: int) -> str:
        return os.path.join(self.root, f"shard-{index:02d}.jsonl")

    def _lock_path(self, index: int) -> str:
        return os.path.join(self.root, f"shard-{index:02d}.lock")

    def quarantine_path(self, index: int) -> str:
        return os.path.join(self.root, f"quarantine-{index:02d}.jsonl")

    def _init_meta(self, shards: int) -> int:
        """Create or read ``store.json``; returns the authoritative shard count.

        Creation races between processes are settled under a store-level lock:
        the first creator wins, later openers adopt its shard count.
        """
        with FileLock(os.path.join(self.root, "store.lock"), timeout=self.lock_timeout):
            path = self._meta_path()
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as handle:
                    return int(json.load(handle)["shards"])
            meta = {
                "shards": shards,
                "schema": SCHEMA_VERSION,
                "cost_model": cost_model_fingerprint(),
            }
            tmp = path + f".tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(meta, handle, indent=2)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            return shards

    def shard_of(self, key: TuningKey) -> int:
        """The shard a key lives in: a stable content hash, identical across
        processes and Python invocations (``hash()`` is salted; this is not).
        """
        blob = json.dumps(key.to_json(), sort_keys=True)
        return int.from_bytes(
            hashlib.md5(blob.encode("utf-8")).digest()[:8], "big"
        ) % self.num_shards

    @contextmanager
    def _locked(self, index: int) -> Iterator[None]:
        lock = self._locks[index]
        with lock:
            yield

    # -- reads and writes -----------------------------------------------------
    def put(self, record: TuningRecord) -> int:
        """Append ``record`` to its shard; returns the shard index.

        The line is written, flushed and fsynced while the shard lock is
        held, so a concurrent reader never observes a torn line from a
        *completed* put (a crash mid-write can still truncate the tail, which
        readers tolerate and count).  If a previous writer crashed mid-append
        and left the file without a trailing newline, one is inserted first —
        otherwise this record would merge into the torn bytes and become
        unreadable.
        """
        line = json.dumps(record.to_json(), sort_keys=True) + "\n"
        index = self.shard_of(record.key)
        path = self.shard_path(index)
        with self._locked(index):
            if self._has_torn_tail(path):
                line = "\n" + line
            with open(path, "a", encoding="utf-8") as handle:
                faults.fire("store.append", path=path, handle=handle, line=line)
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
        self._counters.appends += 1
        return index

    @staticmethod
    def _has_torn_tail(path: str) -> bool:
        """True when the file exists, is non-empty and lacks a trailing
        newline — the signature of a writer that crashed mid-append (a live
        writer cannot be mid-append here: appends happen under the shard
        lock this caller already holds)."""
        try:
            size = os.path.getsize(path)
        except OSError:
            return False
        if size == 0:
            return False
        with open(path, "rb") as handle:
            handle.seek(size - 1)
            return handle.read(1) != b"\n"

    def _decode_lines(self, lines: List[str]) -> Iterator[TuningRecord]:
        for raw in lines:
            raw = raw.strip()
            if not raw:
                continue
            self._counters.records_scanned += 1
            record, problem = decode_record_line(raw)
            if record is not None:
                yield record
            elif problem == "stale":
                self._counters.stale_records += 1
            else:
                self._counters.corrupt_lines += 1

    def _scan_shard(self, index: int) -> Dict[TuningKey, TuningRecord]:
        """This handle's up-to-date last-wins view of one shard.

        Only bytes appended since the previous scan are read and decoded
        (the shard only grows by appends); a file that was replaced —
        repaired by another handle's :meth:`fsck`, and perhaps appended to
        since — resets the view and is re-read from the start.  An
        unterminated tail can only come from a writer that crashed
        mid-append (completed puts are flushed before the shard lock is
        released, and we read under that lock), so it is counted corrupt and
        skipped; a later append then starts a fresh, decodable line after it.
        """
        path = self.shard_path(index)
        view = self._views[index]
        if not os.path.exists(path):
            view.reset()
            return view.records
        with self._locked(index):
            stat = os.stat(path)
            size = stat.st_size
            if stat.st_ino != view.inode or size < view.offset:
                view.reset()
                view.inode = stat.st_ino
            if size == view.offset:
                return view.records
            with open(path, "rb") as handle:
                handle.seek(view.offset)
                chunk = handle.read()
            view.offset += len(chunk)
        text = chunk.decode("utf-8", errors="replace")
        lines = text.split("\n")
        if text and not text.endswith("\n") and lines[-1].strip():
            self._counters.records_scanned += 1
            self._counters.corrupt_lines += 1  # a crashed writer's torn tail
        for record in self._decode_lines(lines[:-1]):
            view.records[record.key] = record  # later appends win
        return view.records

    def get(self, key: TuningKey) -> Optional[TuningRecord]:
        """The most recently appended valid record for ``key``, or ``None``."""
        self._counters.reads += 1
        found = self._scan_shard(self.shard_of(key)).get(key)
        if found is None:
            self._counters.misses += 1
        else:
            self._counters.hits += 1
        return found

    def load_into(self, cache: TuningCache) -> int:
        """Merge every valid record into ``cache``; returns distinct keys read."""
        for index in range(self.num_shards):
            for record in self._scan_shard(index).values():
                cache.insert(record)
        return len(cache)

    def load(self) -> TuningCache:
        cache = TuningCache()
        self.load_into(cache)
        return cache

    def records(self) -> List[TuningRecord]:
        return self.load().records()

    def __len__(self) -> int:
        """Distinct keys currently stored (reads every shard)."""
        return len(self.load())

    # -- maintenance ----------------------------------------------------------
    def fsck(self, quarantine: bool = True) -> Dict[str, int]:
        """Audit every shard after a crash; optionally repair in place.

        Per shard, under its lock, every line is pushed through the same
        decode gate that serving uses and sorted into three piles:

        * **valid** records — kept (and counted);
        * **stale** records — valid lines from another schema or cost-model
          fingerprint: counted but *left in place* (they are data, not
          damage);
        * **corrupt** lines — torn tails from a crashed append, bit rot,
          foreign garbage: with ``quarantine=True`` they are moved verbatim
          to ``quarantine-XX.jsonl`` (append + fsync, so nothing is ever
          destroyed by the repair itself) and the shard is rewritten with
          the surviving lines in their original order.

        Leftover ``*.tmp.*`` files from a crashed rewrite are deleted —
        their ``os.replace`` never happened, so the file beside them is
        intact and the temp is pure garbage.  With ``quarantine=False``
        nothing is modified (the ``--check`` dry run).

        Returns ``{"shards", "records", "stale", "corrupt", "quarantined",
        "tmp_files", "tmp_removed", "clean"}``; ``clean`` means no corrupt
        lines and no leftover temps — the state a second ``fsck`` right
        after a repairing one must always report.
        """
        report: Dict[str, int] = {
            "shards": self.num_shards,
            "records": 0,
            "stale": 0,
            "corrupt": 0,
            "quarantined": 0,
            "tmp_files": 0,
            "tmp_removed": 0,
        }
        for index in range(self.num_shards):
            path = self.shard_path(index)
            if not os.path.exists(path):
                continue
            repaired = False
            with self._locked(index):
                with open(path, "r", encoding="utf-8") as handle:
                    content = handle.read()
                good: List[str] = []
                bad: List[str] = []
                for raw in content.split("\n"):
                    raw = raw.strip()
                    if not raw:
                        continue
                    record, problem = decode_record_line(raw)
                    if record is not None:
                        good.append(raw)
                        report["records"] += 1
                    elif problem == "stale":
                        good.append(raw)
                        report["stale"] += 1
                    else:
                        bad.append(raw)
                        report["corrupt"] += 1
                if bad and quarantine:
                    with open(
                        self.quarantine_path(index), "a", encoding="utf-8"
                    ) as handle:
                        for raw in bad:
                            handle.write(raw + "\n")
                        handle.flush()
                        os.fsync(handle.fileno())
                    tmp = path + f".tmp.{os.getpid()}"
                    with open(tmp, "w", encoding="utf-8") as handle:
                        for raw in good:
                            handle.write(raw + "\n")
                        handle.flush()
                        os.fsync(handle.fileno())
                    os.replace(tmp, path)
                    self._fsync_dir()
                    report["quarantined"] += len(bad)
                    repaired = True
            if repaired:
                self._views[index].reset()
        for name in sorted(os.listdir(self.root)):
            if ".tmp." not in name:
                continue
            report["tmp_files"] += 1
            if quarantine:
                try:
                    os.unlink(os.path.join(self.root, name))
                    report["tmp_removed"] += 1
                except OSError:  # pragma: no cover - racing cleanup
                    pass
        report["clean"] = int(report["corrupt"] == 0 and report["tmp_files"] == 0)
        return report

    def _fsync_dir(self) -> None:
        # Make the rename itself durable where the platform allows it.
        try:
            fd = os.open(self.root, os.O_RDONLY)
        except OSError:  # pragma: no cover - e.g. Windows
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- accounting -----------------------------------------------------------
    @property
    def stats(self) -> StoreStats:
        """A snapshot of this handle's counters plus its locks' contention."""
        snapshot = dataclasses.replace(self._counters)
        for lock in self._locks:
            snapshot.lock_acquisitions += lock.acquisitions
            snapshot.lock_contentions += lock.contentions
            snapshot.lock_wait_seconds += lock.wait_seconds
        return snapshot

    def summary(self) -> str:
        s = self.stats
        return (
            f"ShardedTuningStore[{self.num_shards} shards]: "
            f"{s.appends} appends, {s.hits} hits / {s.misses} misses, "
            f"{s.corrupt_lines} corrupt / {s.stale_records} stale lines, "
            f"{s.lock_contentions} lock contentions "
            f"({s.lock_wait_seconds * 1e3:.1f} ms waiting)"
        )
