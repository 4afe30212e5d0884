"""Tuning tasks: one tuning problem, named portably.

The paper's tuning loop (Section IV-C) searches one small schedule space per
distinct workload x instruction x machine.  A :class:`TuningTask` names one
such problem in plain terms (workload params + runner/machine/intrinsic/mode
names), so a peer that holds only a :class:`~repro.rewriter.records.TuningKey`
— the tuning daemon answering a ``tune`` request — can rebuild the search
(:func:`task_from_key`) and run it through a session (:func:`run_task`), and
a daemon warming a model sweep can list that model's problems
(:func:`tasks_from_graph`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .records import TuningKey, params_fingerprint
from .session import TuningSession

__all__ = [
    "TuningTask",
    "build_runner",
    "run_task",
    "tasks_from_graph",
    "task_from_key",
]

_TASK_METHODS = {
    "conv2d": "conv2d_latency",
    "conv3d": "conv3d_latency",
    "dense": "dense_latency",
}


@dataclass(frozen=True)
class TuningTask:
    """One tuning problem, described portably enough to rebuild anywhere.

    ``params`` is the workload-parameter dataclass; the rest are names
    resolved where the search runs (``machine`` via
    :func:`repro.hwsim.machine_by_name`).  ``tuning`` is the CPU runner's
    ``tuning=`` mode or the GPU runner's ``mode=``.
    """

    kind: str  # "conv2d" | "conv3d" | "dense"
    params: object
    runner: str = "cpu"  # "cpu" | "gpu"
    machine: str = "cascade-lake"
    intrinsic: str = "x86.avx512.vpdpbusd"
    tuning: str = "full"

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
    process already published and *publishes* a fresh search's winner.
    """
    if task.kind not in _TASK_METHODS:
        raise ValueError(f"unknown task kind {task.kind!r}")
    runner = build_runner(task, session)
    return getattr(runner, _TASK_METHODS[task.kind])(task.params)


def tasks_from_graph(
    graph, target: str = "x86", quantize: bool = True, fuse: bool = True
) -> List[TuningTask]:
    """The tuning problems ``compile_model(graph, target)`` would hit.

    Applies ``compile_model``'s own graph passes and target row, and collects
    one task per *distinct* tunable operator (convolutions and dense layers —
    the nodes the default UNIT runners search a schedule space for), so
    warming these tasks warms exactly the records the subsequent compile
    will look up.
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
