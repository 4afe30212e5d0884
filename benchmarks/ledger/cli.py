"""Command line of the ledger: one measured run, the manifest, or ``--aa``.

A measured run re-executes itself once with ``PYTHONHASHSEED=0`` and address
randomisation off (so call counts and set orders repeat) and ``TMPDIR`` pointing at a scratch
directory inside the checkout (native build dirs, sandbox work dirs and
daemon stores all land there), and removes that directory when it ends.
It prints one line per metric it measured and, as its last line, the result
object: ``--trace 0`` carries the end-to-end metrics, ``--trace 1`` the
per-layer ones.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import sys
from typing import Dict, List, Optional

from . import catalog
from .machine import cal_py

__all__ = ["main"]

_SCRATCH_ENV = "LEDGER_SCRATCH"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    parser.add_argument("--workload", choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every measured row as JSON here "
                        "(traced runs add OUT.spans.jsonl)")
    parser.add_argument("--record", metavar="DB", help="record the run in this telemetry results DB")
    parser.add_argument("--aa", type=int, nargs="?", const=5, metavar="N",
                        help="A/A mode: run every workload N times, twice over, and compare the sets")
    parser.add_argument("--report", help="with --aa: write the report here as markdown")
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json and exit")
    return parser


def _pin_address_space() -> None:
    """Switch address-space randomisation off for the image about to be exec'd.

    ``PYTHONHASHSEED=0`` fixes string hashes, but objects without ``__hash__``
    hash by address, and somewhere under ``src/`` the order of such a set
    decides how much work gets done: ``compile_kcalls`` took four values,
    0.1 % apart, across processes with randomisation on and one with it off.
    Best effort: where the call is refused the count wobbles inside its bound.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    libc.personality(0x0040000)  # ADDR_NO_RANDOMIZE, <sys/personality.h>


def main(argv: Optional[List[str]], root: str, entry: str, started: float) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    if args.manifest:
        print(json.dumps(catalog.manifest(), indent=2))
        return 0
    if args.aa is not None:
        from .aa import run_aa

        return run_aa(entry, root, args.aa, args.seconds, args.report)
    if args.workload is None:
        _parser().error("--workload is required")

    scratch = os.environ.get(_SCRATCH_ENV)
    if scratch is None or os.environ.get("PYTHONHASHSEED") != "0":
        scratch = os.path.join(root, ".ledger_scratch", f"run-{os.getpid():08d}")
        os.makedirs(scratch, exist_ok=True)
        source = os.path.join(root, "src")
        inherited = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONHASHSEED="0",
            TMPDIR=scratch,
            PYTHONPATH=source + (os.pathsep + inherited if inherited else ""),
            **{_SCRATCH_ENV: scratch},
        )
        sys.stdout.flush()
        _pin_address_space()
        os.execve(sys.executable, [sys.executable, entry, *argv], env)

    first_cal = cal_py()  # before the heavy imports, so set-up can be normalised
    try:
        return _measure(args, scratch, started, first_cal)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run's scratch directory is still there


def _measure(args, scratch: str, started: float, first_cal: float) -> int:
    from .harness import run_workload

    ctx = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), scratch, started, first_cal
    )
    wanted = catalog.per_layer() if args.trace else catalog.end_to_end()
    missing = [metric.name for metric in wanted if metric.name not in ctx.rows]
    if missing:
        print(f"ledger: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1

    print(f"# ledger workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={int(ctx.rows['window.rounds'].value)}")
    for name in sorted(ctx.rows):
        row = ctx.rows[name]
        spread = (
            f"  median={row.median:.6g} q1={row.q1:.6g} q3={row.q3:.6g}" if row.q1 is not None else ""
        )
        tail = f"  {row.tail}" if row.tail else ""
        print(f"{name:<36} {row.value:>14.6g} {row.unit:<7} n={row.n}{spread}{tail}")
    for failure in ctx.failures:
        print(f"# FAILED {failure}")

    metrics: Dict[str, dict] = {
        metric.name: {"value": ctx.rows[metric.name].value, "unit": metric.unit} for metric in wanted
    }
    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": args.workload, "seed": args.seed, "trace": args.trace,
                    **result,
                    "rows": {name: row.as_json() for name, row in ctx.rows.items()},
                    "samples": ctx.samples,
                    "log": ctx.clock.log,
                    "failures": ctx.failures,
                },
                handle, indent=1, sort_keys=True,
            )
        if ctx.recorder is not None:
            ctx.recorder.dump(args.out + ".spans.jsonl")
    if args.record:
        from repro.telemetry.resultsdb import record_bench

        record_bench(
            f"ledger.{args.workload}",
            {"seed": args.seed, "trace": args.trace, "attempted": ctx.attempted,
             "failed": ctx.failed, "metrics": {name: row.value for name, row in ctx.rows.items()}},
            db_path=args.record,
            label=f"seed={args.seed} trace={args.trace}",
        )
    print(json.dumps(result))
    return 0
