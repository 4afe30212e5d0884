"""Persistent tuning records: the Rewriter's experiment store.

The paper's Rewriter profiles a small schedule space per tensorized operator.
Re-running that search for every runner instance is wasted work — the best
configuration for a (workload, instruction, machine, search-space) quadruple
never changes between runs.  This module provides the storage layer that lets
every runner, experiment and benchmark share one warm store:

* :class:`TuningKey` — the identity of one tuning problem;
* :class:`TuningRecord` — the outcome of solving it (best config, best cost,
  the full cost breakdown, and how many candidates were profiled);
* :class:`TuningCache` — the in-memory index with hit/miss accounting;
* :func:`decode_record` / :func:`decode_record_line` — the one gate every
  record passes on its way in from disk or the wire.

Records persist only through
:class:`~repro.rewriter.store.ShardedTuningStore`;
:class:`~repro.rewriter.session.TuningSession` puts the search driver on top
of both tiers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..hwsim.cost import CostBreakdown
from .cpu_tuner import CpuTuningConfig
from .gpu_tuner import GpuTuningConfig
from .tuner import TuningResult

__all__ = [
    "TuningKey",
    "TuningRecord",
    "TuningCache",
    "CacheStats",
    "params_fingerprint",
    "space_fingerprint",
    "SCHEMA_VERSION",
    "cost_model_fingerprint",
    "record_staleness",
    "decode_record",
    "decode_record_line",
]

# Version of the persisted record format.  Bump on any change to the JSON
# envelope so old stores are invalidated wholesale instead of misread.
SCHEMA_VERSION = 2

# The modules whose behaviour determines every stored cost: a record tuned
# under one cost model must not be served once the model changes.
_COST_MODEL_MODULES = ("cost", "cpu", "gpu", "machine")

_cost_model_fingerprint: Optional[str] = None


def cost_model_fingerprint(refresh: bool = False) -> str:
    """A digest of the ``hwsim`` cost-model sources, baked into every
    persisted record.

    Tuning records are only as good as the analytical machine models that
    produced them: editing ``hwsim/cost.py`` (or the CPU/GPU kernel models)
    silently changes every stored ``best_cost`` and possibly every winner.
    Loaders compare this fingerprint and drop records tuned under a
    different model instead of serving stale winners.
    """
    global _cost_model_fingerprint
    if _cost_model_fingerprint is None or refresh:
        from .. import hwsim

        digest = hashlib.md5()
        root = os.path.dirname(os.path.abspath(hwsim.__file__))
        for module in _COST_MODEL_MODULES:
            with open(os.path.join(root, module + ".py"), "rb") as handle:
                digest.update(handle.read())
        _cost_model_fingerprint = digest.hexdigest()[:12]
    return _cost_model_fingerprint


def record_staleness(data: Dict) -> Optional[str]:
    """Why a decoded record line must not be served, or ``None`` if current.

    A line is stale when it predates record versioning entirely, was written
    under a different schema version, or was tuned under a different cost
    model.  The reason string is for error messages.
    """
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        return f"schema version {schema!r} != {SCHEMA_VERSION}"
    fingerprint = data.get("cost_model")
    if fingerprint != cost_model_fingerprint():
        return f"cost model {fingerprint!r} != {cost_model_fingerprint()!r}"
    return None


def decode_record(data):
    """Decode one parsed record: ``(record, None)`` on success,
    ``(None, "corrupt")`` for anything that is not a well-formed record
    object (JSON-valid non-objects included), ``(None, "stale")`` for
    well-formed records from another schema version or cost model.

    The single definition of "servable record", shared by the shard files
    (:func:`decode_record_line`) and everything that takes records off the
    wire (the daemon's ``put`` and replication feed, the client), so disk
    and TCP always agree on what may be served.
    """
    try:
        if not isinstance(data, dict):
            return None, "corrupt"
        if record_staleness(data) is not None:
            return None, "stale"
        return TuningRecord.from_json(data), None
    except (ValueError, KeyError, TypeError):
        return None, "corrupt"


def decode_record_line(line: str):
    """:func:`decode_record` for one persisted JSONL line; undecodable bytes
    (torn tails, interleaved writes) are ``(None, "corrupt")`` too."""
    try:
        data = json.loads(line)
    except ValueError:
        return None, "corrupt"
    return decode_record(data)


def params_fingerprint(params) -> Tuple[Tuple[str, object], ...]:
    """A hashable, JSON-safe identity for a workload-parameter object.

    The ``name`` field is excluded on purpose: two layers with identical
    shapes tune identically regardless of what the model builder called them,
    and sharing their record is the whole point of the cache.  Fields are
    read directly (ints and strings): ``asdict`` deep-copies on every lookup.
    """
    if dataclasses.is_dataclass(params) and not isinstance(params, type):
        names = sorted([f.name for f in dataclasses.fields(params) if f.name != "name"])
        return tuple([(name, getattr(params, name)) for name in names])
    if isinstance(params, dict):
        return tuple(sorted((str(k), v) for k, v in params.items() if k != "name"))
    raise TypeError(f"cannot fingerprint workload params of type {type(params)!r}")


def space_fingerprint(label: str, candidates: Iterable[object]) -> str:
    """Identify a search space: a human-readable label plus a content digest.

    Two runners share records only when they explore the *same* candidate
    list; the digest guards against a custom candidate list colliding with
    the default one under the same label.
    """
    blob = ";".join(repr(c) for c in candidates)
    digest = hashlib.md5(blob.encode("utf-8")).hexdigest()[:8]
    return f"{label}@{digest}"


@dataclass(frozen=True)
class TuningKey:
    """The identity of one tuning problem."""

    kind: str  # workload kind: "conv2d", "conv3d", "dense", ...
    params: Tuple[Tuple[str, object], ...]  # params_fingerprint() of the workload
    intrinsic: str  # tensorized-instruction name ("" for library baselines)
    machine: str  # machine-spec name ("cascade-lake", "v100", ...)
    space: str  # space_fingerprint() of the candidate list, or "library:<name>"

    def to_json(self) -> Dict:
        return {
            "kind": self.kind,
            "params": [[k, v] for k, v in self.params],
            "intrinsic": self.intrinsic,
            "machine": self.machine,
            "space": self.space,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "TuningKey":
        return cls(
            kind=data["kind"],
            params=tuple((k, v) for k, v in data["params"]),
            intrinsic=data["intrinsic"],
            machine=data["machine"],
            space=data["space"],
        )


# -- config (de)serialisation -------------------------------------------------

_CONFIG_TYPES = {"cpu": CpuTuningConfig, "gpu": GpuTuningConfig}


def _encode_config(config) -> Optional[Dict]:
    if config is None:
        return None
    for tag, cls in _CONFIG_TYPES.items():
        if isinstance(config, cls):
            return {"type": tag, **dataclasses.asdict(config)}
    raise TypeError(f"cannot serialise tuning config of type {type(config)!r}")


def _decode_config(data: Optional[Dict]):
    if data is None:
        return None
    data = dict(data)
    cls = _CONFIG_TYPES[data.pop("type")]
    return cls(**data)


def _encode_breakdown(cost: CostBreakdown) -> Dict:
    return {
        "seconds": cost.seconds,
        "compute_seconds": cost.compute_seconds,
        "memory_seconds": cost.memory_seconds,
        "overhead_seconds": cost.overhead_seconds,
        "detail": dict(cost.detail),
    }


def _decode_breakdown(data: Dict) -> CostBreakdown:
    return CostBreakdown(
        seconds=data["seconds"],
        compute_seconds=data["compute_seconds"],
        memory_seconds=data["memory_seconds"],
        overhead_seconds=data["overhead_seconds"],
        detail=dict(data.get("detail", {})),
    )


@dataclass
class TuningRecord:
    """The stored outcome of one tuning problem.

    ``result`` holds the in-memory :class:`TuningResult` when this record was
    produced by a live search in the current process; it is *not* persisted
    (trial-by-trial data is cheap to regenerate and expensive to store).
    """

    key: TuningKey
    best_config: object  # CpuTuningConfig | GpuTuningConfig | None (memoised)
    best_cost: float  # seconds
    num_trials: int
    breakdown: CostBreakdown
    result: Optional[TuningResult] = field(default=None, repr=False, compare=False)

    def to_json(self) -> Dict:
        return {
            "schema": SCHEMA_VERSION,
            "cost_model": cost_model_fingerprint(),
            "key": self.key.to_json(),
            "config": _encode_config(self.best_config),
            "cost": self.best_cost,
            "trials": self.num_trials,
            "breakdown": _encode_breakdown(self.breakdown),
        }

    @classmethod
    def from_json(cls, data: Dict) -> "TuningRecord":
        return cls(
            key=TuningKey.from_json(data["key"]),
            best_config=_decode_config(data["config"]),
            best_cost=data["cost"],
            num_trials=data["trials"],
            breakdown=_decode_breakdown(data["breakdown"]),
        )


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`TuningCache`."""

    hits: int = 0
    misses: int = 0
    size: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class TuningCache:
    """The in-memory tier: an index of tuning records.

    Lookups count hits and misses; repeated lookups of the same key return the
    *same* record object, so downstream consumers keep the cheap identity
    semantics the per-runner dicts used to provide.
    """

    def __init__(self) -> None:
        self._records: Dict[TuningKey, TuningRecord] = {}
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: TuningKey) -> bool:
        return key in self._records

    def lookup(self, key: TuningKey) -> Optional[TuningRecord]:
        record = self._records.get(key)
        if record is None:
            self._misses += 1
        else:
            self._hits += 1
        return record

    def insert(self, record: TuningRecord) -> None:
        self._records[record.key] = record

    def discard(self, key: TuningKey) -> bool:
        """Drop the record for ``key`` if present; returns whether it was.

        The memory-side half of store GC: a long-running process backed by
        an evicted store must also forget the evicted keys, or its memory
        tier would keep serving records the store no longer vouches for.
        """
        return self._records.pop(key, None) is not None

    def records(self) -> List[TuningRecord]:
        return list(self._records.values())

    def clear(self) -> None:
        self._records.clear()
        self.reset_stats()

    def reset_stats(self) -> None:
        self._hits = 0
        self._misses = 0

    @property
    def stats(self) -> CacheStats:
        return CacheStats(hits=self._hits, misses=self._misses, size=len(self._records))
