"""The tuning service CLI: ``python -m repro.service <command>``.

========  ====================================================================
serve      run the daemon in the foreground over a store directory; with
           ``--replicate-from HOST:PORT`` it runs as a read-write replica
           that incrementally pulls the primary's shard records
status     print the daemon's stats (requests, coalescing, store, caches)
health     print the daemon's failover probe (role, replication lag, load)
gc         run LRU store eviction on the daemon (``--max-records/--max-idle``)
warm       pre-tune a named sweep into the daemon's store (``table1``,
           ``table1:K`` for its first K layers, or a model-zoo name such as
           ``resnet-18``)
ping       liveness probe
fsck       audit a store directory *offline* (no daemon): quarantine torn
           shard lines, sweep leftover compaction temp files
shutdown   stop the daemon after in-flight requests drain
========  ====================================================================

Examples::

    python -m repro.service serve --root tuning_store --port 9461
    python -m repro.service serve --root replica_store --port 9462 \\
        --replicate-from 127.0.0.1:9461
    python -m repro.service warm --sweep table1 --port 9461
    python -m repro.service status --port 9461
    python -m repro.service health --port 9462
    python -m repro.service gc --max-records 500 --max-idle 86400 --port 9461
    python -m repro.service fsck --root tuning_store
    python -m repro.service shutdown --port 9461
"""

from __future__ import annotations

import argparse
import json
import sys

from .client import ServiceClient, ServiceError, ServiceUnavailable
from .server import TuningService

DEFAULT_PORT = 9461


def _add_endpoint(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="daemon host")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help=f"daemon port (default {DEFAULT_PORT})"
    )


def _client(args) -> ServiceClient:
    return ServiceClient((args.host, args.port))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Networked tuning service over a sharded tuning store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the tuning daemon in the foreground")
    _add_endpoint(serve)
    serve.add_argument("--root", default="tuning_store", help="store directory")
    serve.add_argument("--shards", type=int, default=8, help="shard count on creation")
    serve.add_argument(
        "--strategy",
        choices=("exhaustive",),
        default="exhaustive",
        help="fixed: exhaustive search is the only driver (still parsed "
        "because existing launch lines pass it)",
    )
    serve.add_argument(
        "--no-speculate",
        action="store_true",
        help="disable idle-time speculative tuning",
    )
    serve.add_argument(
        "--replicate-from",
        default=None,
        metavar="HOST:PORT",
        help="run as a replica of this primary daemon",
    )
    serve.add_argument(
        "--sync-interval",
        type=float,
        default=0.25,
        help="replica pull interval in seconds (default 0.25)",
    )

    status = sub.add_parser("status", help="print daemon stats as JSON")
    _add_endpoint(status)

    health = sub.add_parser(
        "health", help="print the daemon's failover probe (role, lag, load)"
    )
    _add_endpoint(health)

    fsck = sub.add_parser(
        "fsck", help="audit a store directory offline (quarantine torn lines)"
    )
    fsck.add_argument("--root", default="tuning_store", help="store directory")
    fsck.add_argument(
        "--check",
        action="store_true",
        help="report only (no quarantine/cleanup); exit 1 when not clean",
    )

    gc = sub.add_parser("gc", help="evict least-recently-served store records")
    _add_endpoint(gc)
    gc.add_argument("--max-records", type=int, default=None, help="LRU size cap")
    gc.add_argument(
        "--max-idle", type=float, default=None, help="drop records idle this many seconds"
    )

    warm = sub.add_parser("warm", help="pre-tune a named sweep into the store")
    _add_endpoint(warm)
    warm.add_argument(
        "--sweep",
        required=True,
        help="'table1', 'table1:K', or a model-zoo name (e.g. resnet-18)",
    )
    warm.add_argument(
        "--background",
        action="store_true",
        help="queue for idle-time tuning instead of blocking",
    )

    ping = sub.add_parser("ping", help="liveness probe")
    _add_endpoint(ping)

    shutdown = sub.add_parser("shutdown", help="stop the daemon")
    _add_endpoint(shutdown)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "fsck":
        from ..rewriter.store import ShardedTuningStore

        store = ShardedTuningStore(args.root)
        report = store.fsck(quarantine=not args.check)
        print(json.dumps(report, indent=2, sort_keys=True))
        if args.check and not report["clean"]:
            return 1
        return 0

    if args.command == "serve":
        service = TuningService(
            args.root,
            host=args.host,
            port=args.port,
            shards=args.shards,
            speculative=not args.no_speculate,
            replicate_from=args.replicate_from,
            sync_interval_s=args.sync_interval,
        )
        service.start()
        host, port = service.address
        role = "replica" if args.replicate_from else "primary"
        print(
            f"tuning service ({role}) listening on {host}:{port} over {args.root!r}",
            flush=True,
        )
        try:
            service.serve_until_stopped()
        finally:
            # Also reached after a shutdown RPC: stop() is idempotent and
            # blocks until the RPC's own stop (touch flush included) is
            # done, so the process never exits with unflushed GC stamps.
            service.stop()
        print(service.summary())
        return 0

    try:
        with _client(args) as client:
            if args.command == "status":
                response = client.stats()
            elif args.command == "health":
                response = client.health()
            elif args.command == "gc":
                if args.max_records is None and args.max_idle is None:
                    print("gc needs --max-records and/or --max-idle", file=sys.stderr)
                    return 2
                response = client.gc(max_records=args.max_records, max_idle=args.max_idle)
            elif args.command == "warm":
                response = client.warm(args.sweep, background=args.background)
            elif args.command == "ping":
                response = client.ping()
            else:  # shutdown
                response = client.shutdown()
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ServiceError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    response.pop("ok", None)
    response.pop("protocol", None)
    response.pop("schema", None)
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
