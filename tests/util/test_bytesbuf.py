"""Unit and property tests for :mod:`repro.util.bytesbuf`."""

import pytest
from hypothesis import given, strategies as st

from repro.util.bytesbuf import ByteBuffer


class TestBasics:
    def test_empty(self):
        buf = ByteBuffer()
        assert len(buf) == 0
        assert buf.size == 0
        assert buf.getvalue() == b""

    def test_initial_contents(self):
        buf = ByteBuffer(b"hello")
        assert buf.getvalue() == b"hello"
        assert buf.size == 5

    def test_read_within(self):
        buf = ByteBuffer(b"hello world")
        assert buf.read_at(0, 5) == b"hello"
        assert buf.read_at(6, 5) == b"world"

    def test_read_past_end_is_short(self):
        buf = ByteBuffer(b"abc")
        assert buf.read_at(1, 100) == b"bc"
        assert buf.read_at(3, 10) == b""
        assert buf.read_at(50, 10) == b""

    def test_read_zero_bytes(self):
        assert ByteBuffer(b"abc").read_at(0, 0) == b""

    def test_write_overwrite(self):
        buf = ByteBuffer(b"hello world")
        assert buf.write_at(6, b"WORLD") == 5
        assert buf.getvalue() == b"hello WORLD"

    def test_write_extends(self):
        buf = ByteBuffer(b"ab")
        buf.write_at(1, b"xyz")
        assert buf.getvalue() == b"axyz"

    def test_write_past_end_zero_fills(self):
        buf = ByteBuffer(b"ab")
        buf.write_at(5, b"z")
        assert buf.getvalue() == b"ab\x00\x00\x00z"

    def test_append_returns_offset(self):
        buf = ByteBuffer(b"abc")
        assert buf.append(b"def") == 3
        assert buf.append(b"!") == 6
        assert buf.getvalue() == b"abcdef!"

    def test_truncate_shrinks(self):
        buf = ByteBuffer(b"abcdef")
        buf.truncate(2)
        assert buf.getvalue() == b"ab"

    def test_truncate_extends_with_zeros(self):
        buf = ByteBuffer(b"ab")
        buf.truncate(4)
        assert buf.getvalue() == b"ab\x00\x00"

    def test_truncate_to_zero_default(self):
        buf = ByteBuffer(b"abcdef")
        buf.truncate()
        assert buf.getvalue() == b""

    def test_setvalue_replaces(self):
        buf = ByteBuffer(b"old")
        buf.setvalue(b"brand new")
        assert buf.getvalue() == b"brand new"

    def test_equality(self):
        assert ByteBuffer(b"x") == ByteBuffer(b"x")
        assert ByteBuffer(b"x") == b"x"
        assert ByteBuffer(b"x") != ByteBuffer(b"y")

    @pytest.mark.parametrize("method,args", [
        ("read_at", (-1, 4)),
        ("read_at", (0, -4)),
        ("write_at", (-1, b"x")),
        ("truncate", (-1,)),
    ])
    def test_negative_arguments_rejected(self, method, args):
        buf = ByteBuffer(b"abc")
        with pytest.raises(ValueError):
            getattr(buf, method)(*args)


class TestProperties:
    @given(st.binary(max_size=256), st.integers(0, 300), st.binary(max_size=64))
    def test_write_then_read_roundtrip(self, initial, offset, data):
        buf = ByteBuffer(initial)
        buf.write_at(offset, data)
        assert buf.read_at(offset, len(data)) == data

    @given(st.binary(max_size=256), st.integers(0, 300),
           st.binary(max_size=64), st.booleans())
    def test_write_matches_a_plain_bytearray(self, initial, offset, data,
                                             as_view):
        """In-bounds, straddling and past-the-end writes, from bytes or
        a memoryview, land exactly as on a zero-filled bytearray."""
        buf = ByteBuffer(initial)
        model = bytearray(initial)
        if offset > len(model):
            model.extend(bytes(offset - len(model)))
        model[offset:offset + len(data)] = data
        source = memoryview(bytearray(data)) if as_view else data
        assert buf.write_at(offset, source) == len(data)
        assert buf.getvalue() == bytes(model)
        assert buf.read_at(0, len(model) + 8) == bytes(model)

    @given(st.binary(min_size=1, max_size=256), st.data())
    def test_write_straddling_the_end(self, initial, data):
        """A write that starts inside the buffer and runs past its end
        overwrites the tail and grows the buffer to its own end."""
        offset = data.draw(st.integers(0, len(initial) - 1))
        payload = data.draw(st.binary(
            min_size=len(initial) - offset + 1, max_size=300))
        buf = ByteBuffer(initial)
        buf.write_at(offset, memoryview(payload))
        assert buf.getvalue() == initial[:offset] + payload
        assert buf.size == offset + len(payload)

    @given(st.binary(max_size=256), st.integers(0, 300), st.integers(0, 300))
    def test_read_at_matches_slicing(self, initial, offset, size):
        value = ByteBuffer(initial).read_at(offset, size)
        assert type(value) is bytes
        assert value == initial[offset:offset + size]

    @given(st.binary(max_size=128), st.binary(max_size=128))
    def test_setvalue_from_a_memoryview(self, initial, data):
        buf = ByteBuffer(initial)
        buf.setvalue(memoryview(data))
        assert buf.getvalue() == data
        buf.write_at(len(data), b"!")
        assert buf.getvalue() == data + b"!"

    @given(st.binary(max_size=128), st.integers(0, 200), st.binary(max_size=64))
    def test_size_after_write(self, initial, offset, data):
        buf = ByteBuffer(initial)
        buf.write_at(offset, data)
        assert buf.size == max(len(initial), offset + len(data))

    @given(st.lists(st.binary(min_size=1, max_size=32), max_size=16))
    def test_appends_concatenate(self, chunks):
        buf = ByteBuffer()
        for chunk in chunks:
            buf.append(chunk)
        assert buf.getvalue() == b"".join(chunks)

    @given(st.binary(max_size=128), st.integers(0, 160))
    def test_truncate_then_size(self, initial, size):
        buf = ByteBuffer(initial)
        buf.truncate(size)
        assert buf.size == size

    @given(st.binary(max_size=128), st.integers(0, 140), st.integers(0, 140))
    def test_reads_never_mutate(self, initial, offset, size):
        buf = ByteBuffer(initial)
        before = buf.getvalue()
        buf.read_at(offset, size)
        assert buf.getvalue() == before
