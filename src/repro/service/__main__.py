"""The tuning service CLI: ``python -m repro.service <command>``.

========  ====================================================================
serve      run the daemon in the foreground over a store directory
status     print the daemon's stats (requests, coalescing, store, caches)
warm       pre-tune a named sweep into the daemon's store (``table1``,
           ``table1:K`` for its first K layers, or a model-zoo name such as
           ``resnet-18``)
ping       liveness probe
fsck       audit a store directory *offline* (no daemon): quarantine torn
           shard lines, sweep leftover temp files of an interrupted repair
shutdown   stop the daemon after in-flight requests drain
========  ====================================================================

Examples::

    python -m repro.service serve --root tuning_store --port 9461
    python -m repro.service warm --sweep table1 --port 9461
    python -m repro.service status --port 9461
    python -m repro.service fsck --root tuning_store
    python -m repro.service shutdown --port 9461
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .client import ServiceClient, ServiceError, ServiceUnavailable
from .protocol import DEFAULT_PORT
from .server import TuningService


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
        help="ignored: the daemon does no idle-time work (still parsed "
        "because existing launch lines pass it)",
    )

    status = sub.add_parser("status", help="print daemon stats as JSON")
    _add_endpoint(status)

    fsck = sub.add_parser(
        "fsck", help="audit a store directory offline (quarantine torn lines)"
    )
    fsck.add_argument("--root", default="tuning_store", help="store directory")
    fsck.add_argument(
        "--check",
        action="store_true",
        help="report only (no quarantine/cleanup); exit 1 when not clean",
    )

    warm = sub.add_parser("warm", help="pre-tune a named sweep into the store")
    _add_endpoint(warm)
    warm.add_argument(
        "--sweep",
        required=True,
        help="'table1', 'table1:K', or a model-zoo name (e.g. resnet-18)",
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

        # Opening a store creates one: refuse a root that is not a store
        # yet, so a typo neither "passes" the audit nor leaves files behind.
        if not os.path.exists(os.path.join(args.root, ShardedTuningStore.META_NAME)):
            print(
                f"error: {args.root!r} is not a tuning store "
                f"(no {ShardedTuningStore.META_NAME})",
                file=sys.stderr,
            )
            return 2
        store = ShardedTuningStore(args.root)
        report = store.fsck(quarantine=not args.check)
        print(json.dumps(report, indent=2, sort_keys=True))
        if args.check and not report["clean"]:
            return 1
        return 0

    if args.command == "serve":
        service = TuningService(args.root, host=args.host, port=args.port)
        service.start()
        host, port = service.address
        print(f"tuning service listening on {host}:{port} over {args.root!r}", flush=True)
        try:
            service.serve_until_stopped()
        finally:
            # Also reached after a shutdown RPC: stop() is idempotent and
            # blocks until the RPC's own stop is done.
            service.stop()
        print(service.summary())
        return 0

    try:
        with _client(args) as client:
            if args.command == "status":
                response = client.stats()
            elif args.command == "warm":
                response = client.warm(args.sweep)
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
