"""The tuning service's wire protocol: versioned, length-prefixed JSON.

One message is a 4-byte big-endian length prefix followed by that many bytes
of UTF-8 JSON.  Every message — request or response — carries the protocol
version and the record schema version
(:data:`~repro.rewriter.records.SCHEMA_VERSION`), mirroring how the on-disk
store versions its lines: a client built against a different protocol or
record schema is *rejected cleanly* with a ``version_mismatch`` error
response instead of being half-understood.

Requests are ``{"op": <name>, ...}``; the operations are

========  ==================================================================
``ping``     liveness probe, echoes the server's versions
``get``      look up one :class:`~repro.rewriter.records.TuningKey`
``put``      publish one :class:`~repro.rewriter.records.TuningRecord`
``tune``     ensure a key is tuned *server-side* (concurrent requests coalesce)
``stats``    server / session / store / coalescing counters
``warm``     tune a named sweep (Table I slice or a model-zoo model) before
             answering ``{tasks, tuned, hits}``
``shutdown`` stop serving after the in-flight requests drain
========  ==================================================================

Responses are ``{"ok": true, ...}`` or ``{"ok": false, "error": msg,
"code": <machine-readable reason>}``.  Keys and records travel in their
existing JSON forms (``TuningKey.to_json`` / ``TuningRecord.to_json``), so
the wire format and the shard files agree on what a record is — including
the cost-model fingerprint check: a record tuned under a different cost
model is as unservable over TCP as it is from disk.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, Optional, Tuple

from ..rewriter.records import SCHEMA_VERSION
from ..testing import faults

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_PORT",
    "MAX_MESSAGE_BYTES",
    "ProtocolError",
    "ConnectionClosed",
    "send_message",
    "recv_message",
    "request",
    "ok_response",
    "error_response",
    "check_versions",
]

# Version of the framing + request/response envelope.  Bump on any change a
# peer from the previous release could misread.  2: ``warm`` always tunes
# its sweep before answering, and ``tune`` takes no sweep hint.  3: the
# ``stats`` reply has no ``telemetry`` key.  Dropping an op needs no bump: a
# peer that still sends it gets the coded ``unknown_op`` error.
PROTOCOL_VERSION = 3

# Where ``python -m repro.service serve`` listens, and where every CLI that
# talks to it (the service admin commands, ``python -m repro query
# service``) looks, unless told otherwise.
DEFAULT_PORT = 9461

# A frame larger than this is a corrupt length prefix or an abusive peer,
# not a tuning record; reject it before allocating the buffer.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")

OPS = ("ping", "get", "put", "tune", "stats", "warm", "shutdown")


class ProtocolError(RuntimeError):
    """A malformed, oversized or version-incompatible message."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (cleanly between frames, or torn)."""


def _versioned(payload: Dict) -> Dict:
    payload.setdefault("protocol", PROTOCOL_VERSION)
    payload.setdefault("schema", SCHEMA_VERSION)
    return payload


def request(op: str, **fields) -> Dict:
    """Build a versioned request envelope for ``op``."""
    if op not in OPS:
        raise ValueError(f"unknown op {op!r} (expected one of {OPS})")
    return _versioned({"op": op, **fields})


def ok_response(**fields) -> Dict:
    return _versioned({"ok": True, **fields})


def error_response(message: str, code: str = "error") -> Dict:
    return _versioned({"ok": False, "error": message, "code": code})


def check_versions(message: Dict) -> Optional[Tuple[str, str]]:
    """``(error message, code)`` when ``message`` is version-incompatible.

    The one definition of compatibility used by both peers: the protocol
    version gates the envelope, the record schema version gates the payloads
    (a ``put`` from a client with a different record schema would poison the
    store; a ``get`` response it couldn't decode would poison the client).
    """
    protocol = message.get("protocol")
    if protocol != PROTOCOL_VERSION:
        return (
            f"protocol version {protocol!r} is not {PROTOCOL_VERSION}",
            "version_mismatch",
        )
    schema = message.get("schema")
    if schema != SCHEMA_VERSION:
        return (
            f"record schema version {schema!r} is not {SCHEMA_VERSION}",
            "version_mismatch",
        )
    return None


# -- framing -------------------------------------------------------------------

def send_message(sock: socket.socket, message: Dict) -> None:
    """Write one length-prefixed JSON frame."""
    body = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {len(body)} bytes exceeds the frame limit")
    frame = _LENGTH.pack(len(body)) + body
    faults.fire("protocol.send", sock=sock, frame=frame, message=message)
    sock.sendall(frame)


def _recv_exact(sock: socket.socket, count: int, *, at_frame_start: bool) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if at_frame_start and remaining == count:
                raise ConnectionClosed("peer closed the connection")
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Dict:
    """Read one frame; raises :class:`ConnectionClosed` on clean EOF between
    frames and :class:`ProtocolError` on torn or malformed frames."""
    faults.fire("protocol.recv", sock=sock)
    header = _recv_exact(sock, _LENGTH.size, at_frame_start=True)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the frame limit")
    body = _recv_exact(sock, length, at_frame_start=False)
    try:
        message = json.loads(body.decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame is not an object: {type(message).__name__}")
    return message
