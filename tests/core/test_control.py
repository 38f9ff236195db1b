"""Tests for the control protocol codec and the dispatcher."""

import io
import json

import pytest
from hypothesis import given, strategies as st

from repro.core import control
from repro.core.dispatch import SentinelDispatcher, StreamDispatcher
from repro.core.sentinel import Sentinel, SentinelContext
from repro.errors import (
    FrameError,
    ProtocolError,
    SentinelError,
    UnsupportedOperationError,
)
from repro.util.framing import write_frame


def wire(fields, payload=b""):
    """Send *fields* + *payload* the way a channel does, read them back."""
    head = control.encode_head_wire(fields) or control.encode_head(fields)
    stream = io.BytesIO()
    write_frame(stream, head, payload)
    stream.seek(0)
    return control.read_wire_message(stream)


def frame(body):
    """*body* as one length-prefixed frame, followed by a second frame
    so the reader's prefix read never runs dry."""
    stream = io.BytesIO()
    write_frame(stream, body)
    write_frame(stream, control.encode_head({}))
    return io.BytesIO(stream.getvalue())


class TestCodec:
    def test_roundtrip(self):
        fields, payload = wire({"cmd": "read", "n": 5}, b"payload")
        assert fields == {"cmd": "read", "n": 5}
        assert payload == b"payload"

    def test_empty_payload(self):
        assert wire({"a": 1}) == ({"a": 1}, b"")

    def test_unencodable_fields(self):
        with pytest.raises(FrameError):
            control.encode_head({"bad": object()})

    def test_decode_too_short(self):
        with pytest.raises(FrameError):
            control.read_wire_message(frame(b"\x00"))

    def test_decode_header_overruns(self):
        with pytest.raises(FrameError):
            control.read_wire_message(frame(b"\x00\x00\x00\xff{}"))

    def test_decode_header_not_json(self):
        with pytest.raises(FrameError):
            control.read_wire_message(
                frame((7).to_bytes(4, "big") + b"nopenop"))

    def test_decode_header_not_object(self):
        body = json.dumps([1, 2]).encode()
        with pytest.raises(FrameError):
            control.read_wire_message(
                frame(len(body).to_bytes(4, "big") + body))

    @given(st.dictionaries(st.text(min_size=1, max_size=8),
                           st.integers() | st.text(max_size=16), max_size=6),
           st.binary(max_size=256))
    def test_property_roundtrip(self, fields, payload):
        out_fields, out_payload = wire(fields, payload)
        assert out_fields == fields
        assert out_payload == payload


class TestResponses:
    def test_ok_response(self):
        fields, payload = wire({"ok": True, "x": 1}, b"d")
        assert (fields, payload) == ({"ok": True, "x": 1}, b"d")
        control.raise_for_response(fields)  # no raise

    def test_error_response_roundtrips_type(self):
        fields, _ = wire(control.error_fields(UnsupportedOperationError("nope")))
        with pytest.raises(UnsupportedOperationError, match="nope"):
            control.raise_for_response(fields)

    def test_unknown_error_type_becomes_sentinel_error(self):
        with pytest.raises(SentinelError, match="weird"):
            control.raise_for_response({"ok": False, "error": "weird",
                                        "error_type": "ValueError"})

    def test_every_library_error_survives_the_wire(self):
        # regression: the registry used to be a hand-written subset, so
        # e.g. ChannelClosedError degraded to SentinelError on round-trip
        from repro.errors import wire_error_registry

        registry = wire_error_registry()
        assert "ChannelClosedError" in registry
        assert "StrategyError" in registry
        assert "FrameError" in registry
        for name, exc_class in registry.items():
            fields, _ = wire({**control.error_fields(
                exc_class(f"boom via {name}")), "re": True, "rid": 1,
                "chan": 2})
            with pytest.raises(exc_class, match=f"boom via {name}"):
                control.raise_for_response(fields)


class CountingSentinel(Sentinel):
    def __init__(self, params=None):
        super().__init__(params)
        self.closes = 0

    def on_close(self, ctx):
        self.closes += 1

    def on_control(self, ctx, op, args, payload):
        if op == "sum":
            return {"total": sum(args.get("values", []))}, payload[::-1]
        return super().on_control(ctx, op, args, payload)


class TestDispatcher:
    @pytest.fixture
    def dispatcher(self):
        sentinel = CountingSentinel()
        ctx = SentinelContext()
        ctx.data.write_at(0, b"0123456789")
        return SentinelDispatcher(sentinel, ctx)

    def test_read(self, dispatcher):
        fields, payload = dispatcher.execute({"cmd": "read", "offset": 2,
                                              "size": 4}, b"")
        assert fields["ok"] and payload == b"2345"

    def test_write(self, dispatcher):
        fields, _ = dispatcher.execute({"cmd": "write", "offset": 0}, b"XY")
        assert fields["written"] == 2

    def test_size(self, dispatcher):
        fields, _ = dispatcher.execute({"cmd": "size"}, b"")
        assert fields["size"] == 10

    def test_truncate_and_flush(self, dispatcher):
        dispatcher.execute({"cmd": "truncate", "size": 3}, b"")
        fields, _ = dispatcher.execute({"cmd": "size"}, b"")
        assert fields["size"] == 3
        fields, _ = dispatcher.execute({"cmd": "flush"}, b"")
        assert fields["ok"]

    def test_custom_control(self, dispatcher):
        fields, payload = dispatcher.execute(
            {"cmd": "control", "op": "sum", "args": {"values": [1, 2, 3]}},
            b"abc",
        )
        assert fields["total"] == 6
        assert payload == b"cba"

    def test_unknown_control_op_is_failure_response(self, dispatcher):
        fields, _ = dispatcher.execute({"cmd": "control", "op": "nope",
                                        "args": {}}, b"")
        assert fields["ok"] is False
        assert fields["error_type"] == "UnsupportedOperationError"

    def test_unknown_command_is_failure_response(self, dispatcher):
        fields, _ = dispatcher.execute({"cmd": "zap"}, b"")
        assert fields["ok"] is False
        assert fields["error_type"] == "ProtocolError"

    def test_sentinel_exception_does_not_kill_loop(self, dispatcher):
        fields, _ = dispatcher.execute({"cmd": "read", "offset": "NaN",
                                        "size": 1}, b"")
        assert fields["ok"] is False
        # loop still serves afterwards
        fields, payload = dispatcher.execute({"cmd": "read", "offset": 0,
                                              "size": 2}, b"")
        assert payload == b"01"

    def test_close_is_idempotent(self, dispatcher):
        dispatcher.execute({"cmd": "close"}, b"")
        dispatcher.close()
        assert dispatcher.sentinel.closes == 1


class TestStreamDispatcher:
    """The stream plane shares the failure reply and close lifecycle."""

    class Recorder(Sentinel):
        def __init__(self, events):
            super().__init__()
            self.events = events

        def generate(self, ctx):
            try:
                yield b"abc"
                yield b"def"
            finally:
                self.events.append("generator")

        def on_close(self, ctx):
            self.events.append("on_close")

        def _fanout_release(self, ctx):
            self.events.append("fanout_release")

    @pytest.fixture
    def events(self):
        return []

    @pytest.fixture
    def dispatcher(self, events):
        ctx = SentinelContext()
        close_data = ctx.data.close

        def data_close():
            events.append("data_close")
            close_data()

        ctx.data.close = data_close
        dispatcher = StreamDispatcher(self.Recorder(events), ctx)
        dispatcher.open()
        return dispatcher

    def test_stream_commands(self, dispatcher):
        assert dispatcher.execute({"cmd": "rstream", "size": 4}, b"") \
            == ({"ok": True, "eof": False}, b"abcd")
        assert dispatcher.execute({"cmd": "rstream", "size": 9}, b"") \
            == ({"ok": True, "eof": True}, b"ef")
        fields, _ = dispatcher.execute({"cmd": "wstream"}, b"xy")
        assert fields == {"ok": True, "written": 2}

    def test_failure_reply_is_error_fields(self, dispatcher):
        fields, payload = dispatcher.execute({"cmd": "read", "offset": 0,
                                              "size": 1}, b"")
        assert fields == control.error_fields(
            ProtocolError("unknown stream command 'read'"))
        assert payload == b""

    def test_close_lifecycle_runs_once_in_order(self, dispatcher, events):
        dispatcher.execute({"cmd": "rstream", "size": 1}, b"")
        assert dispatcher.execute({"cmd": "close"}, b"") == ({"ok": True}, b"")
        dispatcher.close()
        assert events == ["generator", "on_close", "fanout_release",
                          "data_close"]
