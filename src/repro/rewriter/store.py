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
* duplicate appends for one key are resolved *last-wins* at read time, and
  :meth:`ShardedTuningStore.compact` folds each shard down to one line per
  key via a crash-safe write-to-temp-then-``os.replace`` — a reader or a
  crash mid-compaction sees either the old file or the new one, never a
  partial file;
* every persisted line carries the record schema version and the cost-model
  fingerprint (:func:`~repro.rewriter.records.cost_model_fingerprint`), so a
  store tuned under an edited ``hwsim`` cost model invalidates itself instead
  of serving stale winners;
* every ``get`` hit and ``put`` *touches* its key with a last-served
  timestamp (buffered in memory, persisted to per-shard ``served-XX.jsonl``
  sidecars by :meth:`ShardedTuningStore.flush_touches` and through
  :meth:`~ShardedTuningStore.compact`), which drives the store's GC policy:
  :meth:`ShardedTuningStore.evict` drops records least-recently-served
  first (``max_records=``) and records idle longer than ``max_idle=``.

:class:`~repro.rewriter.session.TuningSession` reads through this store
(memory -> shard -> miss) and writes fresh records through to it;
:class:`~repro.rewriter.workers.DistributedTuner` points many worker
processes at one store directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..retry import RetryPolicy
from ..telemetry import metrics as _metrics
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
                        breaker = f"{self.path}.break.{os.getpid()}"
                        os.rename(self.path, breaker)
                        os.unlink(breaker)
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
    ``records`` (last-wins per key).  Shards are append-only between
    compactions, so a lookup only ever decodes the bytes appended since the
    previous read instead of rescanning the whole file; a shrunken file
    (compaction or ``clear`` by another process) resets the view.
    """

    offset: int = 0
    records: Dict[TuningKey, TuningRecord] = dataclasses.field(default_factory=dict)

    def reset(self) -> None:
        self.offset = 0
        self.records = {}


@dataclass
class StoreStats:
    """Operation and contention accounting for one :class:`ShardedTuningStore`.

    Lock counters aggregate over every shard lock this store handle has used:
    ``lock_contentions`` counts acquisitions that found the lock held by
    someone else, ``lock_wait_seconds`` the total time spent waiting — the
    store-contention numbers the distributed-tuning benchmark reports.
    """

    appends: int = 0
    reads: int = 0
    hits: int = 0
    misses: int = 0
    records_scanned: int = 0
    corrupt_lines: int = 0
    stale_records: int = 0
    compactions: int = 0
    compacted_away: int = 0
    touches: int = 0
    gc_runs: int = 0
    evicted_records: int = 0
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
    ignored in favour of the stored one.

    All methods are safe against concurrent use from other processes; one
    store *handle* is not itself thread-safe (give each thread or worker its
    own handle, as :class:`~repro.rewriter.workers.DistributedTuner` does).
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
        self._touched: Dict[TuningKey, float] = {}

    # -- layout ---------------------------------------------------------------
    def _meta_path(self) -> str:
        return os.path.join(self.root, self.META_NAME)

    def shard_path(self, index: int) -> str:
        return os.path.join(self.root, f"shard-{index:02d}.jsonl")

    def _lock_path(self, index: int) -> str:
        return os.path.join(self.root, f"shard-{index:02d}.lock")

    def served_path(self, index: int) -> str:
        return os.path.join(self.root, f"served-{index:02d}.jsonl")

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
        _metrics.count("store.puts")
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
        self._touch(record.key)  # a fresh record was produced for a requester
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
        (the shard is append-only between compactions); a file that shrank —
        compacted or cleared by another process — resets the view and is
        re-read from the start.  An unterminated tail can only come from a
        writer that crashed mid-append (completed puts are flushed before
        the shard lock is released, and we read under that lock), so it is
        counted corrupt and skipped; a later append then starts a fresh,
        decodable line after it.
        """
        path = self.shard_path(index)
        view = self._views[index]
        if not os.path.exists(path):
            view.reset()
            return view.records
        with self._locked(index):
            size = os.path.getsize(path)
            if size < view.offset:
                view.reset()
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
            _metrics.count("store.misses")
        else:
            self._counters.hits += 1
            _metrics.count("store.hits")
            self._touch(key)
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

    # -- replication feed -----------------------------------------------------
    def read_shard_since(
        self, index: int, offset: int, max_bytes: int = 4 * 1024 * 1024
    ) -> Tuple[List[Dict], int, bool]:
        """The raw record dicts appended to one shard at/after byte ``offset``.

        The anti-entropy feed for :class:`~repro.service.server.TuningService`
        replication: returns ``(dicts, new_offset, reset)``.  Only *complete*
        lines are consumed — ``new_offset`` always lands on a line boundary,
        so a torn tail is simply re-offered once a later append heals it.  A
        file smaller than ``offset`` (compacted or cleared since the last
        pull) resets the scan to byte 0 and reports ``reset=True``; replaying
        the whole shard is harmless because consumers apply lines last-wins.

        Lines travel as parsed-but-unvalidated dicts: validation (schema +
        cost-model fingerprint) belongs to the *consumer's* decode gate, so a
        replica re-checks everything it ingests rather than trusting the
        primary's opinion.  Undecodable line fragments are skipped here (the
        consumer could do nothing with them anyway).
        """
        path = self.shard_path(index)
        reset = False
        offset = max(0, int(offset))
        with self._locked(index):
            if not os.path.exists(path):
                return [], 0, offset > 0
            size = os.path.getsize(path)
            if size < offset:
                offset = 0
                reset = True
            if size == offset:
                return [], offset, reset
            with open(path, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read(max_bytes)
        end = chunk.rfind(b"\n")
        if end < 0:
            return [], offset, reset  # no complete line yet (torn tail)
        complete, new_offset = chunk[: end + 1], offset + end + 1
        dicts: List[Dict] = []
        for raw in complete.decode("utf-8", errors="replace").split("\n"):
            raw = raw.strip()
            if not raw:
                continue
            try:
                data = json.loads(raw)
            except ValueError:
                continue  # a healed torn line; its replacement follows
            if isinstance(data, dict):
                dicts.append(data)
        return dicts, new_offset, reset

    # -- last-served tracking (the GC clock) ----------------------------------

    # Auto-flush the touch buffer past this size: touches are buffered so a
    # get never pays a disk append, but an unbounded buffer means a process
    # that exits without flushing silently loses its whole service history.
    TOUCH_FLUSH_THRESHOLD = 256

    def _touch(self, key: TuningKey, when: Optional[float] = None) -> None:
        """Buffer a last-served timestamp for ``key`` (flushed lazily)."""
        self._touched[key] = time.time() if when is None else when
        self._counters.touches += 1
        if len(self._touched) >= self.TOUCH_FLUSH_THRESHOLD:
            self.flush_touches()

    def touch(self, key: TuningKey, when: Optional[float] = None) -> None:
        """Record that ``key`` was served by a tier *above* this store.

        A long-running daemon promotes hot records into an in-memory cache
        and stops calling :meth:`get` for them; without this, the store's
        last-served clock would freeze at promotion time and LRU GC would
        evict exactly the hottest records.  Callers with a memory tier must
        touch through on their own cache hits.
        """
        self._touch(key, when)

    def flush_touches(self) -> int:
        """Persist buffered last-served timestamps to the shard sidecars.

        Touches accumulate in memory (a ``get`` must not pay a disk append)
        and are appended — one JSON line per key, under the shard lock — to
        ``served-XX.jsonl`` here, from :meth:`compact` and from
        :meth:`evict`.  Returns the number of entries written.
        """
        if not self._touched:
            return 0
        buffered, self._touched = self._touched, {}
        by_shard: Dict[int, List[TuningKey]] = {}
        for key in buffered:
            by_shard.setdefault(self.shard_of(key), []).append(key)
        for index, keys in by_shard.items():
            with self._locked(index):
                with open(self.served_path(index), "a", encoding="utf-8") as handle:
                    for key in keys:
                        entry = {"served": key.to_json(), "t": buffered[key]}
                        handle.write(json.dumps(entry, sort_keys=True) + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
        return sum(len(keys) for keys in by_shard.values())

    def _read_served(self, index: int) -> Dict[TuningKey, float]:
        """The persisted last-served map of one shard (latest timestamp wins).

        Call with the shard lock held (or on a quiesced store): the sidecar
        is append-only between rewrites.  Undecodable lines are skipped —
        losing a timestamp only makes its record *older* to the GC, never
        corrupts a record.
        """
        served: Dict[TuningKey, float] = {}
        path = self.served_path(index)
        if not os.path.exists(path):
            return served
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    key = TuningKey.from_json(data["served"])
                    stamp = float(data["t"])
                except (ValueError, KeyError, TypeError):
                    continue
                if stamp >= served.get(key, float("-inf")):
                    served[key] = stamp
        return served

    def last_served(self, key: TuningKey) -> Optional[float]:
        """When ``key`` was last served (buffered or persisted), or ``None``."""
        buffered = self._touched.get(key)
        index = self.shard_of(key)
        with self._locked(index):
            persisted = self._read_served(index).get(key)
        stamps = [s for s in (buffered, persisted) if s is not None]
        return max(stamps) if stamps else None

    def _rewrite_shard(
        self,
        index: int,
        records: Dict[TuningKey, TuningRecord],
        served: Dict[TuningKey, float],
    ) -> None:
        """Atomically replace one shard (and its served sidecar) with exactly
        ``records`` / ``served``.  Call with the shard lock held."""
        path = self.shard_path(index)
        tmp = path + f".tmp.{os.getpid()}"
        faults.fire("store.compact", path=path, tmp=tmp)
        with open(tmp, "w", encoding="utf-8") as handle:
            for record in records.values():
                handle.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        served_path = self.served_path(index)
        tmp = served_path + f".tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            for key, stamp in served.items():
                entry = {"served": key.to_json(), "t": stamp}
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, served_path)
        self._fsync_dir()

    # -- maintenance ----------------------------------------------------------
    def compact(self) -> Dict[str, int]:
        """Fold every shard down to one line per key, dropping dead lines.

        Per shard, under its lock: read everything, keep the last valid
        record per key, write them to a temporary file in the same directory
        (flush + fsync) and atomically ``os.replace`` it over the shard.  A
        crash at any point leaves either the old shard or the new one — never
        a half-written file — and the shard lock keeps concurrent appenders
        out of the window between read and replace.

        Last-served timestamps survive compaction: buffered touches are
        flushed first, then each shard's ``served-XX.jsonl`` sidecar is
        folded down to one line per surviving key alongside the shard
        itself.
        """
        self.flush_touches()
        kept = 0
        dropped = 0
        for index in range(self.num_shards):
            path = self.shard_path(index)
            if not os.path.exists(path):
                continue
            with self._locked(index):
                with open(path, "r", encoding="utf-8") as handle:
                    lines = handle.readlines()
                latest: Dict[TuningKey, TuningRecord] = {}
                for record in self._decode_lines(lines):
                    latest[record.key] = record
                served = {
                    key: stamp
                    for key, stamp in self._read_served(index).items()
                    if key in latest
                }
                self._rewrite_shard(index, latest, served)
            self._views[index].reset()  # rewritten: our byte offsets are void
            kept += len(latest)
            dropped += len([l for l in lines if l.strip()]) - len(latest)
            self._counters.compactions += 1
        self._counters.compacted_away += dropped
        return {"kept": kept, "dropped": dropped}

    def fsck(self, quarantine: bool = True) -> Dict[str, int]:
        """Audit every shard after a crash; optionally repair in place.

        Per shard, under its lock, every line is pushed through the same
        decode gate that serving uses and sorted into three piles:

        * **valid** records — kept (and counted);
        * **stale** records — valid lines from another schema or cost-model
          fingerprint: counted but *left in place* (they are data, not
          damage; :meth:`compact` is the pass that folds them away);
        * **corrupt** lines — torn tails from a crashed append, bit rot,
          foreign garbage: with ``quarantine=True`` they are moved verbatim
          to ``quarantine-XX.jsonl`` (append + fsync, so nothing is ever
          destroyed by the repair itself) and the shard is rewritten with
          the surviving lines in their original order.

        Leftover ``*.tmp.*`` files from a crashed compaction are deleted —
        their ``os.replace`` never happened, so the shard beside them is
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

    def evict(
        self,
        max_records: Optional[int] = None,
        max_idle: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, int]:
        """GC the store: LRU eviction by last-served timestamp.

        ``max_idle`` (seconds) first drops every record whose last service
        is older than ``now - max_idle``; ``max_records`` then drops the
        least-recently-served survivors until at most that many remain.
        A record that was never touched through a flushing handle has no
        timestamp and counts as *least* recently served — the store cannot
        justify keeping what nobody is reading.  Eviction rewrites each
        affected shard with the same crash-safe replace as :meth:`compact`
        (so it also folds duplicates away) and keeps the served sidecars in
        sync.  Returns ``{"kept", "evicted", "by_idle", "by_count",
        "evicted_keys"}`` — the keys so a caller with a memory tier above
        this store (the tuning daemon) can forget them too.
        """
        if max_records is not None and max_records < 0:
            raise ValueError("max_records must be non-negative")
        self.flush_touches()
        now = time.time() if now is None else now
        shard_records: List[Dict[TuningKey, TuningRecord]] = []
        shard_served: List[Dict[TuningKey, float]] = []
        for index in range(self.num_shards):
            with self._locked(index):
                path = self.shard_path(index)
                if os.path.exists(path):
                    with open(path, "r", encoding="utf-8") as handle:
                        lines = handle.readlines()
                else:
                    lines = []
                latest: Dict[TuningKey, TuningRecord] = {}
                for record in self._decode_lines(lines):
                    latest[record.key] = record
                shard_records.append(latest)
                shard_served.append(self._read_served(index))

        never = float("-inf")
        stamp_of = lambda index, key: shard_served[index].get(key, never)
        evicted: List[Tuple[int, TuningKey]] = []
        by_idle = 0
        if max_idle is not None:
            for index, latest in enumerate(shard_records):
                for key in list(latest):
                    if now - stamp_of(index, key) > max_idle:
                        evicted.append((index, key))
                        del latest[key]
                        by_idle += 1
        by_count = 0
        total = sum(len(latest) for latest in shard_records)
        if max_records is not None and total > max_records:
            ranked = sorted(
                ((index, key) for index, latest in enumerate(shard_records) for key in latest),
                key=lambda pair: stamp_of(*pair),
            )
            for index, key in ranked[: total - max_records]:
                evicted.append((index, key))
                del shard_records[index][key]
                by_count += 1

        # Rewrite phase: re-read each *affected* shard under its lock and
        # drop exactly the evicted keys from the fresh contents, so a record
        # another process appended between the scan and this rewrite
        # survives.  Shards that lost nothing are left untouched — a no-op
        # GC must not rewrite and fsync the whole store under its locks
        # (compact() is the explicit fold-duplicates pass).
        dead: Dict[int, set] = {}
        for index, key in evicted:
            dead.setdefault(index, set()).add(key)
        survivors = {index: len(latest) for index, latest in enumerate(shard_records)}
        for index in sorted(dead):
            path = self.shard_path(index)
            if not os.path.exists(path):
                continue
            with self._locked(index):
                with open(path, "r", encoding="utf-8") as handle:
                    lines = handle.readlines()
                latest = {}
                for record in self._decode_lines(lines):
                    latest[record.key] = record
                for key in dead[index]:
                    latest.pop(key, None)
                served = {
                    key: stamp
                    for key, stamp in self._read_served(index).items()
                    if key in latest
                }
                self._rewrite_shard(index, latest, served)
            self._views[index].reset()
            survivors[index] = len(latest)
        kept = sum(survivors.values())
        self._counters.gc_runs += 1
        self._counters.evicted_records += len(evicted)
        return {
            "kept": kept,
            "evicted": len(evicted),
            "by_idle": by_idle,
            "by_count": by_count,
            "evicted_keys": [key for _, key in evicted],
        }

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

    def clear(self) -> None:
        """Delete every shard's data (the store layout and metadata remain)."""
        for index in range(self.num_shards):
            with self._locked(index):
                for path in (self.shard_path(index), self.served_path(index)):
                    if os.path.exists(path):
                        os.unlink(path)
            self._views[index].reset()
        self._touched.clear()

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
