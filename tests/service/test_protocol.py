"""Tests for the length-prefixed, versioned wire protocol."""

import json
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rewriter.records import SCHEMA_VERSION
from repro.service import protocol
from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    check_versions,
    error_response,
    ok_response,
    recv_message,
    request,
    send_message,
)


def _pair():
    return socket.socketpair()


class TestFraming:
    def test_roundtrip(self):
        a, b = _pair()
        try:
            send_message(a, request("ping", extra=[1, 2, {"x": "y"}]))
            message = recv_message(b)
            assert message["op"] == "ping"
            assert message["extra"] == [1, 2, {"x": "y"}]
            assert message["protocol"] == PROTOCOL_VERSION
            assert message["schema"] == SCHEMA_VERSION
        finally:
            a.close()
            b.close()

    def test_many_frames_back_to_back(self):
        a, b = _pair()
        try:
            for index in range(20):
                send_message(a, ok_response(index=index))
            for index in range(20):
                assert recv_message(b)["index"] == index
        finally:
            a.close()
            b.close()

    def test_clean_eof_between_frames_is_connection_closed(self):
        a, b = _pair()
        try:
            send_message(a, request("ping"))
            recv_message(b)
            a.close()
            with pytest.raises(ConnectionClosed):
                recv_message(b)
        finally:
            b.close()

    def test_eof_mid_frame_is_protocol_error(self):
        a, b = _pair()
        try:
            body = json.dumps({"op": "ping"}).encode()
            a.sendall(struct.pack(">I", len(body)) + body[: len(body) // 2])
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_message(b)
        finally:
            b.close()

    def test_oversized_length_prefix_rejected_before_read(self):
        a, b = _pair()
        try:
            a.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
            with pytest.raises(ProtocolError, match="frame limit"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_undecodable_body_is_protocol_error(self):
        a, b = _pair()
        try:
            junk = b"\xff\x00 not json"
            a.sendall(struct.pack(">I", len(junk)) + junk)
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_non_object_frame_is_protocol_error(self):
        a, b = _pair()
        try:
            body = json.dumps([1, 2, 3]).encode()
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="not an object"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_large_frame_survives_chunked_transport(self):
        a, b = _pair()
        payload = {"op": "put", "blob": "x" * 500_000}
        received = {}

        def reader():
            received["message"] = recv_message(b)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            send_message(a, request(**payload))
            thread.join(timeout=10)
            assert received["message"]["blob"] == payload["blob"]
        finally:
            a.close()
            b.close()


class TestInjectedFaults:
    """The framing error taxonomy, reached through the fault registry
    instead of hand-rolled byte surgery — the same machinery the chaos
    suite drives, validated at the protocol layer."""

    def test_injected_torn_frame_is_protocol_error(self):
        from repro.testing.faults import FaultPlan, torn_frame

        a, b = _pair()
        try:
            with FaultPlan() as plan:
                plan.on("protocol.send", torn_frame(0.5))
                with pytest.raises(ConnectionResetError):
                    send_message(a, request("ping", payload="x" * 256))
            assert plan.fired("protocol.send") == 1
            a.close()  # the sender died mid-frame
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_message(b)
        finally:
            b.close()

    def test_injected_send_reset_leaves_peer_at_clean_eof(self):
        from repro.testing.faults import FaultPlan, reset_connection

        a, b = _pair()
        try:
            with FaultPlan() as plan:
                plan.on("protocol.send", reset_connection)
                with pytest.raises(ConnectionResetError):
                    send_message(a, request("ping"))
            assert plan.fired("protocol.send") == 1
            # The reset fired before any byte hit the wire: the peer sees a
            # clean close, not a torn frame.
            a.close()
            with pytest.raises(ConnectionClosed):
                recv_message(b)
        finally:
            b.close()

    def test_injected_recv_reset_surfaces_at_the_reader(self):
        from repro.testing.faults import FaultPlan, reset_connection

        a, b = _pair()
        try:
            send_message(a, request("ping"))
            with FaultPlan() as plan:
                plan.on("protocol.recv", reset_connection)
                with pytest.raises(ConnectionResetError):
                    recv_message(b)
            # Disarmed, the frame that was already on the wire still reads.
            assert recv_message(b)["op"] == "ping"
        finally:
            a.close()
            b.close()

    def test_oversized_frame_still_rejected_under_fault_plan(self):
        # An armed (but non-matching) plan must not perturb the framing
        # checks themselves.
        from repro.testing.faults import FaultPlan, delay

        a, b = _pair()
        try:
            with FaultPlan() as plan:
                plan.on("store.lock", delay(0.0))
                a.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
                with pytest.raises(ProtocolError, match="frame limit"):
                    recv_message(b)
            assert plan.fired() == 0
        finally:
            a.close()
            b.close()


def _frame(body: bytes, skew: int) -> bytes:
    """``body`` behind a length prefix that may lie by ``skew`` bytes."""
    return struct.pack(">I", max(0, len(body) + skew)) + body


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)

_BODIES = st.binary(max_size=48) | _JSON.map(lambda v: json.dumps(v).encode())

_WIRE = st.binary(max_size=256) | st.lists(
    st.builds(_frame, _BODIES, st.integers(-4, 4))
    | st.builds(lambda n: struct.pack(">I", n), st.integers(0, 2**32 - 1)),
    max_size=4,
).map(b"".join)


class TestFramingFuzz:
    @given(_WIRE)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_end_in_protocol_error_or_close(self, wire):
        """Whatever a peer sends and then closes, the reader gets objects and
        then ``ProtocolError`` or ``ConnectionClosed`` — nothing else."""
        a, b = _pair()
        try:
            a.sendall(wire)
            a.close()
            for _ in range(len(wire) + 1):
                try:
                    message = recv_message(b)
                except (ProtocolError, ConnectionClosed):
                    return
                assert isinstance(message, dict)
            pytest.fail("the reader kept decoding frames past the end of the bytes")
        finally:
            b.close()


class TestEnvelope:
    def test_request_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            request("explode")

    def test_every_documented_op_builds(self):
        for op in protocol.OPS:
            assert request(op)["op"] == op

    def test_version_check_accepts_current(self):
        assert check_versions(request("ping")) is None
        assert check_versions(ok_response()) is None

    def test_version_check_rejects_wrong_protocol(self):
        message = request("ping")
        message["protocol"] = PROTOCOL_VERSION + 1
        error, code = check_versions(message)
        assert code == "version_mismatch"
        assert str(PROTOCOL_VERSION + 1) in error

    def test_version_check_rejects_wrong_schema(self):
        message = request("ping")
        message["schema"] = SCHEMA_VERSION + 7
        error, code = check_versions(message)
        assert code == "version_mismatch"
        assert "schema" in error

    def test_version_check_rejects_missing_versions(self):
        assert check_versions({"op": "ping"}) is not None

    def test_error_response_shape(self):
        response = error_response("boom", "some_code")
        assert response["ok"] is False
        assert response["error"] == "boom"
        assert response["code"] == "some_code"
