"""Distributed tuning workers: many processes, one sharded record store.

The paper's tuning loop is embarrassingly parallel across *tuning problems*
(one per distinct workload x instruction x machine x space).  This module is
that axis: a pool of **processes** that split the problem space and publish
their winners into one :class:`~repro.rewriter.store.ShardedTuningStore`.

* a :class:`TuningTask` names one tuning problem in picklable, process-
  portable terms (workload params + runner/machine/intrinsic/space names);
* a :class:`LeaseFile` hands out disjoint slices of the task list: every
  claim appends one line under a cross-process lock, so no two workers ever
  tune the same slice and no slice is skipped;
* :class:`DistributedTuner` spawns N worker processes; each builds its own
  runner and a :class:`~repro.rewriter.session.TuningSession` backed by the
  shared store, claims slices until the lease is exhausted, and runs the
  in-process search for each claimed task.

Because every task is searched whole by exactly one worker with the one
deterministic search driver, reloading the store afterwards yields
bit-identical best configs to a single-process
:meth:`TuningSession.tune <repro.rewriter.session.TuningSession.tune>` sweep
— asserted by the test suite and the CI ``tuning-stress`` job.

Self-healing (PR 9)
-------------------

A crashed or hung worker no longer kills the run.  Each worker stamps a
:class:`Heartbeat` file beside the lease (atomic ``os.replace``, carrying the
index it is currently searching), and :class:`DistributedTuner` runs a
supervisor loop instead of a bare queue drain:

* a worker that exits abnormally (or is killed for a stale heartbeat /
  overdue task) has its claimed-but-undone lease indices **released** back to
  the pool (:meth:`LeaseFile.release`) and is **respawned** up to
  ``max_restarts`` times per worker slot;
* the index the dead worker was searching — read from its last heartbeat —
  is blamed for the crash; a task that has crashed ``poison_threshold``
  workers is **quarantined** into ``poison.jsonl`` in the store root (left
  claimed by its corpse so no sibling retries it) instead of re-crashing the
  fleet forever;
* tasks are only counted finished through ``done`` lease lines written
  *after* the search completes, so a crash mid-search can never mark work
  done — everything that completes keeps the bit-identical-to-single-process
  guarantee.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set

from ..retry import RetryPolicy
from ..telemetry import metrics as _metrics, trace as _trace
from ..testing import faults
from .records import TuningKey, params_fingerprint
from .session import TuningSession
from .store import FileLock, LockTimeout, ShardedTuningStore, StoreStats

__all__ = [
    "TuningTask",
    "LeaseFile",
    "Heartbeat",
    "DistributedTuner",
    "WorkerReport",
    "DistributedReport",
    "heartbeat_path",
    "read_heartbeat",
    "run_task",
    "tasks_from_layers",
    "tasks_from_graph",
    "task_from_key",
]

POISON_FILENAME = "poison.jsonl"

_TASK_METHODS = {
    "conv2d": "conv2d_latency",
    "conv3d": "conv3d_latency",
    "dense": "dense_latency",
}


@dataclass(frozen=True)
class TuningTask:
    """One tuning problem, described portably enough to ship to a worker.

    ``params`` is the workload-parameter dataclass (picklable); the rest are
    names resolved inside the worker (``machine`` via
    :func:`repro.hwsim.machine_by_name`).  ``tuning`` is the CPU runner's
    ``tuning=`` mode or the GPU runner's ``mode=``.
    """

    kind: str  # "conv2d" | "conv3d" | "dense"
    params: object
    runner: str = "cpu"  # "cpu" | "gpu"
    machine: str = "cascade-lake"
    intrinsic: str = "x86.avx512.vpdpbusd"
    tuning: str = "full"

    def describe(self) -> str:
        name = getattr(self.params, "describe", lambda: repr(self.params))()
        return f"{self.kind}[{name}] on {self.machine}/{self.intrinsic} ({self.tuning})"

    @property
    def identity(self):
        """The hashable dedup identity: equal exactly when two tasks tune the
        same problem (the layer ``name`` is excluded, as in the record key)."""
        return (
            self.kind,
            params_fingerprint(self.params),
            self.runner,
            self.machine,
            self.intrinsic,
            self.tuning,
        )

    def key(self) -> TuningKey:
        """The :class:`TuningKey` this task tunes under, derived without
        running any search (build the runner, ask it)."""
        return build_runner(self, None).tuning_key(self.kind, self.params)


def build_runner(task: TuningTask, session: Optional[TuningSession]):
    """Construct the operator runner a task tunes through."""
    from ..core.pipeline import unit_runner

    return unit_runner(task.runner, task.machine, task.intrinsic, task.tuning, session)


def run_task(task: TuningTask, session: TuningSession):
    """Tune one task through ``session``; returns its best CostBreakdown.

    When the session is store-backed this both *reads* any record another
    worker already published and *publishes* a fresh search's winner.
    """
    if task.kind not in _TASK_METHODS:
        raise ValueError(f"unknown task kind {task.kind!r}")
    runner = build_runner(task, session)
    return getattr(runner, _TASK_METHODS[task.kind])(task.params)


def tasks_from_layers(
    layers: Sequence,
    kind: str = "conv2d",
    runner: str = "cpu",
    machine: str = "cascade-lake",
    intrinsic: str = "x86.avx512.vpdpbusd",
    tuning: str = "full",
) -> List[TuningTask]:
    """One task per workload-parameter object (e.g. the Table I layer set)."""
    return [
        TuningTask(
            kind=kind,
            params=params,
            runner=runner,
            machine=machine,
            intrinsic=intrinsic,
            tuning=tuning,
        )
        for params in layers
    ]


def tasks_from_graph(
    graph, target: str = "x86", quantize: bool = True, fuse: bool = True
) -> List[TuningTask]:
    """The tuning problems ``compile_model(graph, target)`` would hit.

    Applies ``compile_model``'s own graph passes and target row, and collects
    one task per *distinct* tunable operator (convolutions and dense layers —
    the nodes the default UNIT runners search a schedule space for), so a
    distributed pre-tuning pass warms exactly the records the subsequent
    compile will look up.
    """
    from ..core.pipeline import TARGETS, prepare_graph
    from ..graph.ir import Conv2DNode, DenseNode

    work = prepare_graph(graph, target, quantize, fuse)
    row = TARGETS[target]
    work.infer_shapes()
    tasks: Dict[object, TuningTask] = {}
    for node in work.nodes:
        if isinstance(node, Conv2DNode):
            kind, params = "conv2d", node.conv_params()
        elif isinstance(node, DenseNode):
            kind, params = "dense", node.dense_params()
        else:
            continue
        task = TuningTask(
            kind=kind,
            params=params,
            runner=row.runner,
            machine=row.machine,
            intrinsic=row.intrinsic,
            tuning=row.tuning,
        )
        tasks.setdefault(task.identity, task)
    return list(tasks.values())


_CPU_MODES = ("parallel", "first_pair", "full")
_GPU_MODES = ("generic", "fusedim", "splitk", "tune")


def task_from_key(key) -> Optional[TuningTask]:
    """Reconstruct the :class:`TuningTask` a runner-generated key came from.

    A :class:`~repro.rewriter.records.TuningKey` built by the default UNIT
    runners carries everything a fresh search needs: the workload kind and
    full parameter fingerprint, the intrinsic and machine names, and the
    tuning mode as the label half of its space fingerprint
    (``"<mode>@<digest>"``).  This inverts that construction so a *remote*
    peer holding only the key — the tuning service handling a ``tune``
    request — can run the search itself.

    Returns ``None`` for keys that cannot round-trip: library-baseline
    spaces, custom candidate lists (their space digest will not match the
    rebuilt runner's — the caller must verify, see
    :func:`repro.service.server`), unknown machines, or parameter tuples
    that do not rebuild the workload dataclass.
    """
    from ..hwsim.machine import GpuSpec, machine_by_name
    from ..workloads.conv2d import Conv2DParams
    from ..workloads.conv3d import Conv3DParams
    from ..workloads.dense import DenseParams

    param_types = {"conv2d": Conv2DParams, "conv3d": Conv3DParams, "dense": DenseParams}
    cls = param_types.get(key.kind)
    if cls is None or "@" not in key.space:
        return None
    label = key.space.split("@", 1)[0]
    try:
        machine = machine_by_name(key.machine)
    except KeyError:
        return None
    runner = "gpu" if isinstance(machine, GpuSpec) else "cpu"
    if label not in (_GPU_MODES if runner == "gpu" else _CPU_MODES):
        return None
    try:
        params = cls(**dict(key.params))
    except TypeError:
        return None
    if params_fingerprint(params) != tuple(key.params):
        return None
    return TuningTask(
        kind=key.kind,
        params=params,
        runner=runner,
        machine=key.machine,
        intrinsic=key.intrinsic,
        tuning=label,
    )


class LeaseFile:
    """Disjoint work claiming across processes, one JSONL line per event.

    Workers call :meth:`claim` with the total task count; under a
    cross-process lock the claimer reads every existing claim, takes the
    lowest ``batch`` unclaimed indices, and appends its own claim line
    (fsynced before the lock is released).  Claims are therefore disjoint by
    construction and — since a worker keeps claiming until it gets an empty
    slice — jointly exhaustive once all workers finish, which is what makes
    the pool self-balancing: a worker stuck on a slow task simply claims
    fewer slices.

    Three line shapes share the file, replayed in append order:

    * ``{"worker", "pid", "indices": [...]}`` — a claim;
    * ``{"worker", "release": [...]}`` — the supervisor handing a dead
      worker's undone indices back to the pool (they become claimable
      again);
    * ``{"worker", "done": [...]}`` — a worker recording a *finished*
      search, written after the winner is in the store.  ``done`` is what
      run completeness is judged on: a crash between claim and done leaves
      the index claimed-but-unfinished, never silently lost.
    """

    def __init__(self, path, timeout: float = 30.0) -> None:
        self.path = os.fspath(path)
        self._lock = FileLock(self.path + ".lock", timeout=timeout)

    def _lines(self) -> Iterator[Dict[str, object]]:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except ValueError:
                    continue
                if isinstance(data, dict):
                    yield data

    def claims(self) -> Dict[int, str]:
        """Currently claimed index -> claimer id (released claims drop out)."""
        claimed: Dict[int, str] = {}
        for data in self._lines():
            try:
                if "indices" in data:
                    for index in data["indices"]:
                        claimed[int(index)] = str(data.get("worker", "?"))
                elif "release" in data:
                    for index in data["release"]:
                        claimed.pop(int(index), None)
            except (ValueError, KeyError, TypeError):
                continue
        return claimed

    def done(self) -> Dict[int, str]:
        """Every finished index -> the worker that completed it."""
        finished: Dict[int, str] = {}
        for data in self._lines():
            try:
                if "done" in data:
                    for index in data["done"]:
                        finished[int(index)] = str(data.get("worker", "?"))
            except (ValueError, KeyError, TypeError):
                continue
        return finished

    def claim_counts(self) -> Dict[int, int]:
        """How many times each index has ever been claimed (quarantine audit:
        a poison task must show exactly ``poison_threshold`` claims)."""
        counts: Dict[int, int] = {}
        for data in self._lines():
            try:
                if "indices" in data:
                    for index in data["indices"]:
                        counts[int(index)] = counts.get(int(index), 0) + 1
            except (ValueError, KeyError, TypeError):
                continue
        return counts

    def _append(self, entry: Dict[str, object]) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def claim(self, worker: str, total: int, batch: int = 1) -> List[int]:
        """Atomically claim up to ``batch`` unclaimed indices below ``total``."""
        with self._lock:
            claimed = self.claims()
            free = [i for i in range(total) if i not in claimed][: max(1, batch)]
            if free:
                self._append({"worker": worker, "pid": os.getpid(), "indices": free})
            return free

    def release(self, worker: str, indices: Sequence[int]) -> None:
        """Hand ``indices`` (claimed by a dead ``worker``) back to the pool."""
        cleaned = sorted(int(index) for index in indices)
        if not cleaned:
            return
        with self._lock:
            self._append({"worker": worker, "release": cleaned})

    def mark_done(self, worker: str, index: int) -> None:
        """Record that ``worker`` finished searching ``index``."""
        with self._lock:
            self._append({"worker": worker, "done": [int(index)]})


# ---------------------------------------------------------------------------
# Heartbeats
# ---------------------------------------------------------------------------


def heartbeat_path(lease_path: str, worker: str) -> str:
    """Where ``worker`` stamps its liveness, beside the run's lease file."""
    return f"{os.fspath(lease_path)}.hb-{worker}.json"


def read_heartbeat(path: str) -> Optional[Dict[str, object]]:
    """The last stamp at ``path``, or None (missing/torn stamps read as
    absent — the stamp is written via ``os.replace`` so a torn read means
    the worker never stamped at all)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


class Heartbeat:
    """A worker's liveness stamp: ``{worker, pid, t, current, started}``.

    A background thread re-stamps every ``interval`` seconds; :meth:`begin`
    and :meth:`finish` stamp synchronously around each task so the
    supervisor can blame the exact index a corpse was searching.  Stamps are
    written to a temp file and ``os.replace``d, so readers never see a torn
    stamp.  Stamping is best-effort by design — a worker must never crash
    because its *liveness file* hit an I/O error; it just goes stale and the
    supervisor treats it as hung.
    """

    def __init__(self, path: str, worker: str, interval: float = 0.5) -> None:
        self.path = os.fspath(path)
        self.worker = worker
        self.interval = max(0.05, float(interval))
        self._lock = threading.Lock()
        self._current: Optional[int] = None
        self._started: float = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._safe_stamp()
        self._thread = threading.Thread(
            target=self._beat, name=f"heartbeat-{self.worker}", daemon=True
        )
        self._thread.start()

    def begin(self, index: int) -> None:
        """Stamp that the worker is now searching ``index``."""
        with self._lock:
            self._current = int(index)
            self._started = time.time()
        self._safe_stamp()

    def finish(self) -> None:
        """Stamp that the worker is between tasks (nothing to blame)."""
        with self._lock:
            self._current = None
        self._safe_stamp()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    def _beat(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self._stamp()
            except Exception:
                # A beat that cannot write looks stale to the supervisor,
                # which is the correct failure mode; don't spin on errors.
                break

    def _safe_stamp(self) -> None:
        try:
            self._stamp()
        except Exception:
            pass

    def _stamp(self) -> None:
        with self._lock:
            current, started = self._current, self._started
        faults.fire("worker.heartbeat", worker=self.worker, path=self.path)
        _metrics.count("workers.heartbeat_stamps")
        entry = {
            "worker": self.worker,
            "pid": os.getpid(),
            "t": time.time(),
            "current": current,
            "started": started,
        }
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        os.replace(tmp, self.path)


@dataclass
class WorkerReport:
    """What one worker process did, shipped back over the result queue."""

    worker: str
    task_indices: List[int]
    trials: int
    searches: int
    store_hits: int
    seconds: float
    store: StoreStats

    @property
    def tasks_done(self) -> int:
        return len(self.task_indices)


@dataclass
class DistributedReport:
    """The outcome of one :meth:`DistributedTuner.run`.

    ``completed`` comes from the lease file's ``done`` lines (authoritative:
    a crash can lose a worker's report but not its fsynced done markers);
    ``quarantined`` lists poison task indices the run gave up on after they
    crashed ``poison_threshold`` workers — their diagnostic records are in
    ``poison_records`` and persisted to ``poison.jsonl`` in the store root.
    """

    tasks: int
    elapsed_s: float
    workers: List[WorkerReport] = field(default_factory=list)
    completed: List[int] = field(default_factory=list)
    quarantined: List[int] = field(default_factory=list)
    crashes: int = 0
    worker_restarts: int = 0
    tasks_reclaimed: int = 0
    poison_records: List[Dict[str, object]] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return sum(w.trials for w in self.workers)

    @property
    def searches(self) -> int:
        return sum(w.searches for w in self.workers)

    def claimed_indices(self) -> List[int]:
        """Indices finished by surviving workers' reports (pre-PR-9 shape)."""
        return sorted(i for w in self.workers for i in w.task_indices)

    @property
    def complete(self) -> bool:
        """Every task either finished exactly once or quarantined."""
        finished = set(self.completed)
        poisoned = set(self.quarantined)
        if finished & poisoned:
            return False
        return sorted(finished | poisoned) == list(range(self.tasks))

    def store_stats(self) -> StoreStats:
        total = StoreStats()
        for report in self.workers:
            for key, value in report.store.as_dict().items():
                setattr(total, key, getattr(total, key) + value)
        return total

    def summary(self) -> str:
        stats = self.store_stats()
        healing = ""
        if self.crashes or self.worker_restarts or self.quarantined:
            healing = (
                f", {self.crashes} worker crashes healed "
                f"({self.worker_restarts} restarts, {self.tasks_reclaimed} "
                f"tasks reclaimed, {len(self.quarantined)} quarantined)"
            )
        return (
            f"DistributedTuner: {self.tasks} tasks over {len(self.workers)} workers "
            f"in {self.elapsed_s:.2f}s — {self.trials} trials, "
            f"{self.searches} searches, {stats.appends} store appends, "
            f"{stats.lock_contentions} lock contentions "
            f"({stats.lock_wait_seconds * 1e3:.1f} ms waiting)" + healing
        )


def _worker_main(
    worker_id: str,
    store_root: str,
    shards: int,
    tasks: Sequence[TuningTask],
    lease_path: str,
    batch: int,
    lock_timeout: float,
    queue,
    heartbeat_interval: float = 0.5,
) -> None:
    """Worker entry point (module-level so ``spawn`` contexts can pickle it)."""
    start = time.perf_counter()
    store = ShardedTuningStore(store_root, shards=shards, lock_timeout=lock_timeout)
    session = TuningSession(store=store)
    lease = LeaseFile(lease_path, timeout=lock_timeout)
    heartbeat = Heartbeat(
        heartbeat_path(lease_path, worker_id), worker_id, interval=heartbeat_interval
    )
    heartbeat.start()
    # A claim that loses the lease lock to a slow sibling is transient, not
    # a dead worker: retry it on a capped-exponential schedule (seeded by
    # pid, so colliding workers decorrelate) before giving up for real.
    claim_retry = RetryPolicy(
        max_attempts=3,
        base_delay_s=0.05,
        max_delay_s=1.0,
        transient=(LockTimeout,),
        seed=os.getpid(),
    )
    done: List[int] = []
    try:
        while True:
            indices = claim_retry.call(
                lambda: lease.claim(worker_id, len(tasks), batch=batch)
            )
            if not indices:
                break
            for index in indices:
                # Stamp before the search (and before the injection point):
                # if this task kills the process, the supervisor must find
                # the right index in the corpse's heartbeat.
                heartbeat.begin(index)
                faults.fire(
                    "worker.task", worker=worker_id, index=index, task=tasks[index]
                )
                run_task(tasks[index], session)
                # Done markers go through the lease file (fsynced) rather
                # than the report queue: the winner is already in the store,
                # so this must survive even if the worker dies right after.
                lease.mark_done(worker_id, index)
                heartbeat.finish()
                done.append(index)
    finally:
        # Persist this worker's buffered last-served stamps even on the
        # failure path: records published here must not look never-served
        # to a later `evict(max_idle=)` pass.
        store.flush_touches()
        heartbeat.stop()
    queue.put(
        WorkerReport(
            worker=worker_id,
            task_indices=done,
            trials=session.trials_run,
            searches=session.searches_run,
            store_hits=session.store_hits,
            seconds=time.perf_counter() - start,
            store=store.stats,
        )
    )


class _Supervisor:
    """One run's worker fleet: spawn, watch, reclaim, respawn, quarantine.

    Single-threaded — it lives on the caller's thread inside
    :meth:`DistributedTuner.run` and owns all fleet bookkeeping, so nothing
    here needs a lock.  Liveness decisions are only made after a result-queue
    poll came back empty: anything a dead worker managed to enqueue has been
    drained by then, so "exited abnormally without a report" really means
    the worker died mid-task.
    """

    def __init__(self, tuner: "DistributedTuner", tasks, lease: LeaseFile, ctx, queue):
        self.tuner = tuner
        self.tasks = tasks
        self.lease = lease
        self.ctx = ctx
        self.queue = queue
        self.reports: List[WorkerReport] = []
        self.procs: Dict[str, object] = {}
        self.slot_of: Dict[str, int] = {}
        self.spawned_at: Dict[str, float] = {}
        self.restarts: Dict[int, int] = {slot: 0 for slot in range(tuner.workers)}
        self.handled: Set[str] = set()
        self.kill_reasons: Dict[str, str] = {}
        self.crash_counts: Dict[int, int] = {}
        self.quarantined: List[int] = []
        self.poison_records: List[Dict[str, object]] = []
        self.crashes = 0
        self.worker_restarts = 0
        self.tasks_reclaimed = 0

    # -- fleet management -----------------------------------------------------

    def _spawn(self, slot: int) -> str:
        generation = self.restarts[slot]
        name = f"worker-{slot}" if generation == 0 else f"worker-{slot}r{generation}"
        tuner = self.tuner
        process = self.ctx.Process(
            target=_worker_main,
            name=name,
            args=(
                name,
                tuner.store.root,
                tuner.store.num_shards,
                self.tasks,
                self.lease.path,
                tuner.batch,
                tuner.store.lock_timeout,
                self.queue,
                tuner.heartbeat_interval,
            ),
        )
        self.procs[name] = process
        self.slot_of[name] = slot
        process.start()
        self.spawned_at[name] = time.time()
        return name

    def _respawn(self, slot: int) -> None:
        self.restarts[slot] += 1
        self.worker_restarts += 1
        _metrics.count("workers.restarts")
        _metrics.event("workers.restarts", f"slot{slot}")
        self._spawn(slot)

    # -- failure handling -----------------------------------------------------

    def _kill_hung_workers(self) -> None:
        """SIGKILL workers whose heartbeat went stale or whose task overran.

        The heartbeat thread keeps beating even when the worker's main
        thread is wedged inside a search, so the two checks are distinct:
        a stale stamp means the *process* is frozen (or its beat died), an
        overdue ``started`` means the *task* is stuck while the process
        still looks alive.  Either way the corpse is handled by the normal
        crash path on the next empty slice.
        """
        tuner = self.tuner
        if tuner.heartbeat_timeout is None and tuner.task_timeout is None:
            return
        now = time.time()
        for name, process in self.procs.items():
            if name in self.handled or not process.is_alive():
                continue
            stamp = read_heartbeat(heartbeat_path(self.lease.path, name))
            if stamp is None:
                # Never stamped: measure from spawn (startup is not a hang
                # until it has outlived the heartbeat budget).
                age = now - self.spawned_at[name]
                if tuner.heartbeat_timeout is not None and age > tuner.heartbeat_timeout:
                    self.kill_reasons[name] = (
                        f"no heartbeat within {tuner.heartbeat_timeout:g}s of spawn"
                    )
                    process.kill()
                continue
            stamped = float(stamp.get("t", 0.0))
            if tuner.heartbeat_timeout is not None and now - stamped > tuner.heartbeat_timeout:
                self.kill_reasons[name] = (
                    f"heartbeat stale for {now - stamped:.1f}s "
                    f"(timeout {tuner.heartbeat_timeout:g}s)"
                )
                process.kill()
                continue
            current = stamp.get("current")
            started = float(stamp.get("started", now) or now)
            if (
                tuner.task_timeout is not None
                and current is not None
                and now - started > tuner.task_timeout
            ):
                self.kill_reasons[name] = (
                    f"task {current} running for {now - started:.1f}s "
                    f"(task_timeout {tuner.task_timeout:g}s)"
                )
                process.kill()

    def _handle_exits(self) -> bool:
        """Process newly dead workers; True if any were handled."""
        progressed = False
        for name, process in list(self.procs.items()):
            if name in self.handled or process.exitcode in (0, None):
                continue
            self._handle_crash(name, process)
            progressed = True
        return progressed

    def _handle_crash(self, name: str, process) -> None:
        self.crashes += 1
        _metrics.count("workers.crashes")
        self.handled.add(name)
        reason = self.kill_reasons.get(name, f"exitcode {process.exitcode}")
        undone = self._undone_claims(name)
        blamed = self._blame(name, undone)
        if blamed is not None:
            count = self.crash_counts.get(blamed, 0) + 1
            self.crash_counts[blamed] = count
            if count >= self.tuner.poison_threshold:
                # Leave the poison index claimed by its corpse — an index
                # that is claimed but never done and never released is
                # invisible to sibling claims, which is exactly the
                # "never searched again" guarantee.
                self._quarantine(blamed, name, process.exitcode, reason)
                undone.remove(blamed)
        if undone:
            self.lease.release(name, undone)
            self.tasks_reclaimed += len(undone)
            _metrics.count("workers.tasks_reclaimed", len(undone))
        slot = self.slot_of[name]
        if self.restarts[slot] < self.tuner.max_restarts:
            self._respawn(slot)

    def _undone_claims(self, name: str) -> List[int]:
        done = self.lease.done()
        return sorted(
            index
            for index, worker in self.lease.claims().items()
            if worker == name and index not in done
        )

    def _blame(self, name: str, undone: List[int]) -> Optional[int]:
        """The index the corpse was searching, from its last heartbeat."""
        stamp = read_heartbeat(heartbeat_path(self.lease.path, name))
        if stamp is None:
            return None
        current = stamp.get("current")
        try:
            blamed = int(current)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None
        return blamed if blamed in undone else None

    def _quarantine(self, index: int, worker: str, exitcode, reason: str) -> None:
        self.quarantined.append(index)
        _metrics.count("workers.quarantined")
        record = {
            "index": index,
            "task": self.tasks[index].describe(),
            "crashes": self.crash_counts[index],
            "last_worker": worker,
            "exitcode": exitcode,
            "reason": reason,
            "quarantined_at": time.time(),
        }
        self.poison_records.append(record)
        path = os.path.join(self.tuner.store.root, POISON_FILENAME)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _respawn_for_orphans(self) -> bool:
        """Cover released-but-unclaimed tasks after the whole fleet exited.

        Rare but real: the last live worker crashes, its tasks are released,
        and nobody is left to claim them.  Spawn a sweeper on any slot with
        restart budget; with the budget exhausted the run must fail loudly
        rather than report an incomplete sweep.
        """
        claims = self.lease.claims()
        done = self.lease.done()
        pending = [
            index
            for index in range(len(self.tasks))
            if index not in claims and index not in done
        ]
        if not pending:
            return False
        tuner = self.tuner
        slot = next(
            (s for s in range(tuner.workers) if self.restarts[s] < tuner.max_restarts),
            None,
        )
        if slot is None:
            raise RuntimeError(
                f"tuning fleet lost: {len(pending)} task(s) unclaimed "
                f"(indices {pending}) and every worker slot has exhausted "
                f"its restart budget (max_restarts={tuner.max_restarts})"
            )
        self._respawn(slot)
        return True

    # -- main loop ------------------------------------------------------------

    def _all_handled(self) -> bool:
        """Every worker either reported or was handled as a crash, and died.

        A worker that exited cleanly but has not reported yet is *not*
        handled — its report is still in flight and the next queue poll will
        deliver it (or the join deadline will call the silence out).
        """
        return all(
            name in self.handled and process.exitcode is not None
            for name, process in self.procs.items()
        )

    def collect(self) -> List[WorkerReport]:
        """Run the fleet to completion, healing crashes along the way.

        Raises :class:`RuntimeError` only for unrecoverable states: no
        restart budget left for orphaned tasks, or no report progress within
        ``join_timeout`` (the deadline refreshes on every report and every
        healed crash — a fleet that is making progress is never killed).
        """
        import queue as queue_module

        for slot in range(self.tuner.workers):
            self._spawn(slot)
        deadline = time.monotonic() + self.tuner.join_timeout
        try:
            while True:
                try:
                    report = self.queue.get(timeout=0.2)
                except queue_module.Empty:
                    pass
                else:
                    self.reports.append(report)
                    self.handled.add(report.worker)
                    deadline = time.monotonic() + self.tuner.join_timeout
                    continue
                # The queue stayed empty for a slice: anything a dead worker
                # put is drained by now, so liveness checks are sound here.
                self._kill_hung_workers()
                if self._handle_exits():
                    deadline = time.monotonic() + self.tuner.join_timeout
                    continue
                if self._all_handled():
                    if self._respawn_for_orphans():
                        deadline = time.monotonic() + self.tuner.join_timeout
                        continue
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"tuning workers produced {len(self.reports)}/"
                        f"{len(self.procs)} reports within "
                        f"{self.tuner.join_timeout}s"
                    )
        except RuntimeError:
            for process in self.procs.values():
                if process.is_alive():
                    process.terminate()
            raise
        finally:
            for process in self.procs.values():
                process.join(timeout=self.tuner.join_timeout)
        return self.reports


class DistributedTuner:
    """A pool of tuning worker processes feeding one sharded store.

    Each worker searches through its own store-backed
    :class:`TuningSession`, so winners are bit-identical to a single-process
    sweep.  ``batch`` is how many tasks a worker leases at a time: 1
    maximises balance, larger batches reduce lease traffic.

    ``start_method`` picks the :mod:`multiprocessing` context (``"fork"`` on
    POSIX by default, ``"spawn"`` elsewhere — both are supported since the
    worker entry point is a module-level function fed picklable arguments).

    Self-healing knobs: ``max_restarts`` is the per-worker-slot respawn
    budget; ``poison_threshold`` is how many workers one task may crash
    before it is quarantined; ``heartbeat_interval``/``heartbeat_timeout``
    bound how stale a live worker's stamp may go before it is presumed
    frozen and killed; ``task_timeout`` (off by default) additionally caps
    how long a single search may run.
    """

    def __init__(
        self,
        store: ShardedTuningStore,
        workers: int = 4,
        batch: int = 1,
        start_method: Optional[str] = None,
        join_timeout: float = 300.0,
        max_restarts: int = 2,
        poison_threshold: int = 2,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: Optional[float] = 30.0,
        task_timeout: Optional[float] = None,
    ) -> None:
        if not isinstance(store, ShardedTuningStore):
            store = ShardedTuningStore(store)
        if workers < 1:
            raise ValueError("DistributedTuner needs at least one worker")
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if poison_threshold < 1:
            raise ValueError("poison_threshold must be at least 1")
        self.store = store
        self.workers = workers
        self.batch = batch
        self.start_method = start_method
        self.join_timeout = join_timeout
        self.max_restarts = max_restarts
        self.poison_threshold = poison_threshold
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.task_timeout = task_timeout
        self._runs = 0

    def _fresh_lease_path(self) -> str:
        """A lease path no previous run could have claimed into.

        A recycled PID (or a rerun after a crash) must not collide with a
        stale lease file lingering in a long-lived store directory — its
        claims would make every task look already taken.  Successful runs
        delete their lease; this probes past any crashed run's leftovers.
        """
        suffix = 0
        while True:
            name = f"leases-{os.getpid()}-{self._runs}"
            if suffix:
                name += f"-{suffix}"
            path = os.path.join(self.store.root, name + ".jsonl")
            if not os.path.exists(path) and not os.path.exists(path + ".lock"):
                return path
            suffix += 1

    def run(self, tasks: Sequence[TuningTask]) -> DistributedReport:
        """Tune every task across the worker pool; blocks until done.

        Worker crashes are *healed*, not fatal: the supervisor reclaims a
        corpse's unfinished lease indices, respawns up to ``max_restarts``
        per slot, and quarantines a task that crashes ``poison_threshold``
        workers (recorded in ``poison.jsonl``).  Raises
        :class:`RuntimeError` only when the run cannot complete: restart
        budget exhausted with tasks still orphaned, no progress within
        ``join_timeout``, or incomplete/overlapping lease coverage.  The
        lease and heartbeat files are removed after a successful run and
        kept for inspection after a failed one; ``poison.jsonl`` always
        persists.
        """
        tasks = list(tasks)
        if not tasks:
            raise ValueError("distributed tuning requires at least one task")
        self._runs += 1
        lease_path = self._fresh_lease_path()
        ctx = multiprocessing.get_context(self.start_method)
        queue = ctx.Queue()
        lease = LeaseFile(lease_path, timeout=self.store.lock_timeout)
        supervisor = _Supervisor(self, tasks, lease, ctx, queue)
        start = time.perf_counter()
        with _trace.span(
            "workers.run", tasks=len(tasks), workers=self.workers
        ) as run_span:
            reports = supervisor.collect()
            run_span.set(
                crashes=supervisor.crashes,
                worker_restarts=supervisor.worker_restarts,
                tasks_reclaimed=supervisor.tasks_reclaimed,
            )
        _metrics.count("workers.runs")
        _metrics.count(
            "workers.tasks_completed", len(lease.done()) - len(supervisor.quarantined)
        )
        report = DistributedReport(
            tasks=len(tasks),
            elapsed_s=time.perf_counter() - start,
            workers=sorted(reports, key=lambda r: r.worker),
            completed=sorted(lease.done()),
            quarantined=sorted(supervisor.quarantined),
            crashes=supervisor.crashes,
            worker_restarts=supervisor.worker_restarts,
            tasks_reclaimed=supervisor.tasks_reclaimed,
            poison_records=list(supervisor.poison_records),
        )
        _metrics.register_stats_gauges("workers.report", report)
        if not report.complete:
            raise RuntimeError(
                "lease coverage is incomplete or overlapping: "
                f"finished {report.completed} and quarantined "
                f"{report.quarantined} of {len(tasks)} tasks"
            )
        prefix = os.path.basename(lease_path)
        for name in os.listdir(self.store.root):
            if name.startswith(prefix):
                try:
                    os.unlink(os.path.join(self.store.root, name))
                except OSError:
                    pass
        return report
