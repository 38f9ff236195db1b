"""Adversarial fuzzing of the control protocol and dispatcher.

The dispatch loop must never die, whatever garbage arrives — one bad
operation cannot take the file down (and in the child-process runner, a
dead loop would strand the application)."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.channel import FIRST_SESSION_CHAN
from repro.core.control import encode_head, encode_head_wire, read_wire_message
from repro.core.dispatch import SentinelDispatcher
from repro.core.sentinel import Sentinel, SentinelContext
from repro.errors import ChannelClosedError, FrameError
from repro.util.framing import write_frame

from tests.core.test_channel import make_stream_pair

# arbitrary JSON-able field dictionaries
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**31, 2**31)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)
field_dicts = st.dictionaries(st.text(max_size=12), json_values, max_size=6)


class TestDispatcherNeverDies:
    @settings(max_examples=200, deadline=None)
    @given(fields=field_dicts, payload=st.binary(max_size=64))
    def test_arbitrary_commands_yield_responses(self, fields, payload):
        dispatcher = SentinelDispatcher(Sentinel(), SentinelContext())
        out_fields, out_payload = dispatcher.execute(fields, payload)
        assert isinstance(out_fields, dict)
        assert "ok" in out_fields
        assert isinstance(out_payload, bytes)
        # and the loop still works afterwards
        ok_fields, _ = dispatcher.execute({"cmd": "size"}, b"")
        assert ok_fields["ok"] is True

    @settings(max_examples=200, deadline=None)
    @given(cmd=st.sampled_from(["read", "write", "truncate", "size",
                                "flush", "control", "close", "zap"]),
           fields=field_dicts, payload=st.binary(max_size=64))
    def test_known_commands_with_garbage_arguments(self, cmd, fields,
                                                   payload):
        dispatcher = SentinelDispatcher(Sentinel(), SentinelContext())
        out_fields, _ = dispatcher.execute({**fields, "cmd": cmd}, payload)
        assert isinstance(out_fields.get("ok"), bool)

    def test_malformed_deadline_budget_fails_only_that_op(self):
        dispatcher = SentinelDispatcher(Sentinel(), SentinelContext())
        for bad in ("", [], {}, "soon"):
            out_fields, _ = dispatcher.execute({"cmd": "read", "dl": bad,
                                                "offset": 0, "size": 1}, b"")
            assert out_fields["ok"] is False
        ok_fields, _ = dispatcher.execute({"cmd": "size"}, b"")
        assert ok_fields["ok"] is True

    @pytest.mark.parametrize("bad", ["soon", "", [], {}])
    def test_malformed_deadline_budget_fails_only_that_request(self, bad):
        """A garbage ``dl`` budget on the wire is answered with a typed
        error for its rid alone; the serving connection keeps reading."""
        a, b = make_stream_pair()
        b.register(FIRST_SESSION_CHAN, lambda f, p: ({"ok": True}, p))
        a.start()
        b.start(serve=True)
        try:
            # No sender budget: the bad ``dl`` rides the JSON header.
            fields, _ = a.request_async(
                FIRST_SESSION_CHAN, {"cmd": "x", "dl": bad}).wait(2.0)
            assert fields["ok"] is False
            assert fields["error_type"] == "ProtocolError"
            fields, payload = a.request_async(
                FIRST_SESSION_CHAN, {"cmd": "x"}, b"next").wait(2.0)
            assert fields["ok"] is True and payload == b"next"
            assert not b.dead
        finally:
            a.close()
            b.close()


def wire_frame(head, payload=b""):
    """The bytes a channel writes for one message with header *head*."""
    stream = io.BytesIO()
    write_frame(stream, head, payload)
    return stream.getvalue()


def decode_or_fail_cleanly(blob):
    """Run the live decoder over *blob*; only the sanctioned failures —
    a malformed frame or EOF mid-frame — may escape."""
    try:
        fields, payload = read_wire_message(io.BytesIO(blob))
    except (FrameError, ChannelClosedError):
        return
    assert isinstance(fields, dict)
    assert isinstance(payload, bytes)


class TestCodecFuzz:
    """Fuzz :func:`read_wire_message`, the decoder every channel runs."""

    @settings(max_examples=300, deadline=None)
    @given(blob=st.binary(max_size=256))
    def test_decode_never_crashes_unexpectedly(self, blob):
        decode_or_fail_cleanly(blob)

    @settings(max_examples=200, deadline=None)
    @given(fields=field_dicts, payload=st.binary(max_size=128))
    def test_encode_decode_roundtrip_arbitrary_json(self, fields, payload):
        out_fields, out_payload = read_wire_message(
            io.BytesIO(wire_frame(encode_head(fields), payload)))
        assert out_fields == fields
        assert out_payload == payload

    @settings(max_examples=200, deadline=None)
    @given(blob=st.binary(min_size=1, max_size=128),
           flip=st.integers(0, 2**16), binary=st.booleans())
    def test_bitflipped_valid_frames_fail_cleanly(self, blob, flip, binary):
        fields = {"cmd": "read", "offset": 0, "size": 4, "rid": 7,
                  "chan": 2}
        head = encode_head_wire(fields) if binary else encode_head(fields)
        corrupted = bytearray(wire_frame(head, blob))
        corrupted[flip % len(corrupted)] ^= 0xFF
        decode_or_fail_cleanly(bytes(corrupted))
