"""Tests for length-prefixed framing over byte streams."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.core.control import encode_head, read_wire_message
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
