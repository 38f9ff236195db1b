"""Tests for length-prefixed framing over byte streams."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.core.control import (
    encode_head,
    encode_head_wire,
    read_wire_message,
)
from repro.errors import ChannelClosedError, FrameError
from repro.util.framing import MAX_FRAME, read_exact, write_frame


class TestReadExact:
    def test_reads_exactly(self):
        stream = io.BytesIO(b"abcdef")
        assert read_exact(stream, 4) == b"abcd"
        assert read_exact(stream, 2) == b"ef"

    def test_eof_mid_read_raises(self):
        stream = io.BytesIO(b"ab")
        with pytest.raises(ChannelClosedError):
            read_exact(stream, 5)

    def test_zero_size(self):
        assert read_exact(io.BytesIO(b""), 0) == b""

    def test_assembles_across_short_reads(self):
        class Dribble(io.RawIOBase):
            def __init__(self, data):
                self.data = data
                self.pos = 0

            def read(self, size=-1):
                if self.pos >= len(self.data):
                    return b""
                chunk = self.data[self.pos:self.pos + 1]
                self.pos += 1
                return chunk

        assert read_exact(Dribble(b"hello"), 5) == b"hello"


def frame_bodies(stream, count):
    """Read *count* frame bodies back with the length word + read_exact."""
    bodies = []
    for _ in range(count):
        size = int.from_bytes(read_exact(stream, 4), "big")
        bodies.append(read_exact(stream, size))
    return bodies


def message_frame(fields, payload=b""):
    """One control message (JSON header + payload) as write_frame writes it."""
    stream = io.BytesIO()
    write_frame(stream, encode_head(fields), payload)
    return stream.getvalue()


def message_frame_wire(head, payload):
    """One message with an already encoded header, as a channel sends it."""
    stream = io.BytesIO()
    write_frame(stream, head, payload)
    return stream.getvalue()


class TestFrames:
    def test_roundtrip(self):
        stream = io.BytesIO()
        write_frame(stream, b"payload")
        stream.seek(0)
        assert frame_bodies(stream, 1) == [b"payload"]
        stream = io.BytesIO(message_frame({"cmd": "read"}, b"payload"))
        assert read_wire_message(stream) == ({"cmd": "read"}, b"payload")

    def test_empty_frame(self):
        stream = io.BytesIO()
        write_frame(stream, b"")
        stream.seek(0)
        assert frame_bodies(stream, 1) == [b""]
        assert stream.read() == b""

    def test_multiple_frames_in_order(self):
        stream = io.BytesIO()
        for body in (b"one", b"two", b"three"):
            write_frame(stream, encode_head({}), body)
        stream.seek(0)
        assert [read_wire_message(stream)[1] for _ in range(3)] \
            == [b"one", b"two", b"three"]

    def test_eof_at_boundary_raises_channel_closed(self):
        with pytest.raises(ChannelClosedError):
            read_wire_message(io.BytesIO(b""))

    def test_truncated_header_raises(self):
        with pytest.raises(ChannelClosedError):
            read_wire_message(io.BytesIO(b"\x00\x00"))

    def test_truncated_body_raises(self):
        blob = message_frame({"cmd": "write"}, b"abcdef")
        with pytest.raises(ChannelClosedError):
            read_wire_message(io.BytesIO(blob[:-3]))

    def test_oversize_outgoing_rejected(self):
        with pytest.raises(FrameError):
            write_frame(io.BytesIO(), b"x" * (MAX_FRAME + 1))

    def test_oversize_incoming_rejected(self):
        header = (MAX_FRAME + 1).to_bytes(4, "big") + bytes(4)
        with pytest.raises(FrameError):
            read_wire_message(io.BytesIO(header))

    @given(st.lists(st.binary(max_size=512), min_size=1, max_size=20))
    def test_property_roundtrip_sequences(self, bodies):
        stream = io.BytesIO()
        for body in bodies:
            write_frame(stream, body)
        stream.seek(0)
        assert frame_bodies(stream, len(bodies)) == bodies
        stream = io.BytesIO(b"".join(message_frame({"n": i}, body)
                                     for i, body in enumerate(bodies)))
        assert [read_wire_message(stream) for _ in bodies] \
            == [({"n": i}, body) for i, body in enumerate(bodies)]


class Trickle(io.RawIOBase):
    """A raw stream that takes at most *limit* bytes per write, as a
    blocking pipe does when a signal handler interrupts a write."""

    def __init__(self, limit):
        self.limit = limit
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        taken = bytes(memoryview(b)[:self.limit])
        self.data += taken
        return len(taken)


class TestShortWrites:
    """A write that takes part of its bytes is finished, never torn."""

    @pytest.mark.parametrize("limit", [1, 7, 65536])
    @pytest.mark.parametrize("sizes", [(3, 10), (100, 300000),
                                       (20, 70000, 70000)])
    def test_every_part_is_written_whole(self, limit, sizes):
        parts = [bytes([i + 1]) * size for i, size in enumerate(sizes)]
        stream = Trickle(limit)
        write_frame(stream, parts[0], *(memoryview(p) for p in parts[1:]))
        assert frame_bodies(io.BytesIO(bytes(stream.data)), 1) \
            == [b"".join(parts)]

    def test_frames_after_a_short_write_stay_aligned(self):
        stream = Trickle(4096)
        payloads = [b"a" * 100000, b"b" * 10, b"c" * 70000]
        for payload in payloads:
            write_frame(stream, encode_head({"n": len(payload)}), payload)
        replay = io.BytesIO(bytes(stream.data))
        assert [read_wire_message(replay) for _ in payloads] \
            == [({"n": len(p)}, p) for p in payloads]


class Counting(io.RawIOBase):
    """A raw stream that counts the read and write calls made on it."""

    def __init__(self, data=b""):
        self.buffer = io.BytesIO(data)
        self.reads = 0
        self.writes = 0

    def readable(self):
        return True

    def writable(self):
        return True

    def readinto(self, b):
        self.reads += 1
        return self.buffer.readinto(b)

    def write(self, b):
        self.writes += 1
        return self.buffer.write(b)


class TestCallsPerFrame:
    """The size thresholds count the payload, not the header beside it."""

    def test_a_16k_reply_is_read_in_two_calls(self):
        head = encode_head_wire({"ok": True}, 5, 1, reply=True)
        assert len(head) == 18
        payload = bytes(range(256)) * 64  # 16 KiB: a remote-cached read
        stream = Counting(message_frame_wire(head, payload))
        fields, body = read_wire_message(stream)
        assert stream.reads == 2
        assert fields == {"ok": True, "re": True, "rid": 5, "chan": 1}
        assert body == payload

    def test_a_window_reply_is_written_in_one_call(self):
        head = encode_head_wire(
            {"ok": True, "resp_ok": True, "resp_error": "",
             "resp_fields": {"version": 3, "eof": False}}, 9, 0,
            reply=True)
        assert len(head) == 27
        payload = bytes(range(256)) * 256  # 64 KiB: a read-ahead window
        stream = Counting()
        write_frame(stream, head, memoryview(payload))
        assert stream.writes == 1
        stream.buffer.seek(0)
        fields, body = read_wire_message(stream.buffer)
        assert fields["resp_fields"] == {"version": 3, "eof": False}
        assert body == payload

    @pytest.mark.parametrize("limit", [1, 4096, 65535])
    def test_a_window_reply_survives_short_writes(self, limit):
        head = encode_head({"n": 1})
        payload = bytes(range(256)) * 256
        stream = Trickle(limit)
        write_frame(stream, head, payload)
        assert read_wire_message(io.BytesIO(bytes(stream.data))) \
            == ({"n": 1}, payload)
