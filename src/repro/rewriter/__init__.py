"""``repro.rewriter`` — code transformation (Section III-C).

Loop reorganization tiles and reorders the loops selected by the Inspector so
the innermost nest performs exactly the instruction's semantics; the
replacement pass swaps that nest for an :class:`~repro.tir.stmt.IntrinsicCall`
with explicit operand-generation bindings; the CPU and GPU tuners organise the
remaining loops for parallelism, unrolling and data reuse, and the tuning
driver profiles candidate configurations on the machine models.

Tuning cache
------------

Tuning outcomes are memoised so that identical (workload, instruction,
machine, search-space) problems are searched once.  Create one
:class:`TuningSession` and hand it to every runner (or experiment driver)
that should share records; ``session=`` is the one way to say where tuning
happens and where its records live::

    from repro.core import UnitCpuRunner, compile_model_batch
    from repro.rewriter import TuningSession

    session = TuningSession()                  # in-memory: shared per process
    runner = UnitCpuRunner(session=session)    # tunes through the session
    compile_model_batch(["resnet-18", "resnet-50"], session=session)

    session = TuningSession(store="tuning_store")   # ...and persistent:
    compile_model_batch(["resnet-18"], session=session)
    warm = TuningSession(store="tuning_store")      # later, or elsewhere
    # every lookup now hits a shard; zero tuning trials are performed.

A cache miss profiles every candidate (:func:`exhaustive_search`, the paper's
one loop) and keeps the best.  Hit/miss counters live on ``session.stats``;
``session.trials_run`` counts every profiled candidate, which is how tests
assert that a warm cache does no work.

Sharded store and tuning tasks
------------------------------

Records persist in exactly one format, a :class:`ShardedTuningStore`
(records partitioned across lock-protected append-only JSONL shards,
versioned by schema and cost-model fingerprint, safe for *concurrent*
writers — the tuning daemon and user processes share one directory);
:class:`TuningCache` is only the in-memory tier above it.

A :class:`TuningTask` names one tuning problem portably; it owns the
derivation of its :class:`TuningKey` (``task.key()``) and of its dedup
identity (``task.identity``), and :func:`task_from_key` inverts the former
so the daemon can rebuild a search from a key alone.
"""

from .cpu_tuner import (
    DEFAULT_PARALLEL_EXTENT,
    DEFAULT_UNROLL_LIMIT,
    CpuScheduleReport,
    CpuTuningConfig,
    apply_cpu_schedule,
    cpu_tuning_candidates,
)
from .gpu_tuner import (
    GpuScheduleReport,
    GpuTuningConfig,
    apply_gpu_schedule,
    gpu_tuning_candidates,
)
from .loop_reorg import TensorizeError, TensorizeSpec, reorganize_loops
from .records import (
    SCHEMA_VERSION,
    CacheStats,
    TuningCache,
    TuningKey,
    TuningRecord,
    cost_model_fingerprint,
    decode_record,
    decode_record_line,
    params_fingerprint,
    record_staleness,
    space_fingerprint,
)
from .replace import build_intrinsic_call, has_tensorize_pragma, replace_tensorize
from .session import TuningSession
from .store import FileLock, LockTimeout, ShardedTuningStore, StoreStats
from .tasks import TuningTask, task_from_key, tasks_from_graph
from .tuner import TuningResult, TuningTrial, exhaustive_search

__all__ = [
    "TensorizeError",
    "TensorizeSpec",
    "reorganize_loops",
    "build_intrinsic_call",
    "replace_tensorize",
    "has_tensorize_pragma",
    "CpuTuningConfig",
    "CpuScheduleReport",
    "apply_cpu_schedule",
    "cpu_tuning_candidates",
    "DEFAULT_PARALLEL_EXTENT",
    "DEFAULT_UNROLL_LIMIT",
    "GpuTuningConfig",
    "GpuScheduleReport",
    "apply_gpu_schedule",
    "gpu_tuning_candidates",
    "TuningResult",
    "TuningTrial",
    "exhaustive_search",
    "TuningKey",
    "TuningRecord",
    "TuningCache",
    "TuningSession",
    "CacheStats",
    "params_fingerprint",
    "space_fingerprint",
    "SCHEMA_VERSION",
    "cost_model_fingerprint",
    "record_staleness",
    "decode_record",
    "decode_record_line",
    "FileLock",
    "LockTimeout",
    "ShardedTuningStore",
    "StoreStats",
    "TuningTask",
    "task_from_key",
    "tasks_from_graph",
]
