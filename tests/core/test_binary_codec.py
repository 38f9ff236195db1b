"""The tagged binary header codec: exact round-trips, safe fallbacks.

The contract under test: every header `encode_head_wire` accepts decodes
back to the *identical* field dict (downstream code is encoding-blind);
everything else returns ``None`` so the JSON path carries it; and
garbage raises :class:`FrameError` rather than leaking struct errors.
"""

import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import control
from repro.errors import FrameError
from repro.util import framing

U64 = st.integers(0, 2**64 - 1)
U32 = st.integers(0, 2**32 - 1)


def roundtrip(fields):
    """Encode via the wire helper, decode via the frame reader."""
    wire = control.encode_head_wire(fields)
    assert wire is not None, f"binary codec rejected {fields!r}"
    word = struct.unpack(">I", wire[:4])[0]
    assert word & 0x80000000, "binary headers must carry the tag bit"
    return control.decode_binary_head(wire[4:])


def wire_message(head, payload=b""):
    """Frame *head* + *payload* and read it back with the wire reader."""
    buf = io.BytesIO()
    framing.write_frame(buf, head, payload)
    buf.seek(0)
    return control.read_wire_message(buf)


HOT_HEADERS = [
    {"cmd": "read", "offset": 0, "size": 4096, "rid": 1, "chan": 2},
    {"cmd": "read", "offset": 2**40, "size": 2**63, "rid": 2**64 - 1,
     "chan": 2**32 - 1},
    {"cmd": "write", "offset": 512, "rid": 7, "chan": 3},
    {"cmd": "readv", "extents": [[0, 100], [100, 200]], "rid": 9, "chan": 4},
    {"cmd": "writev", "extents": [[0, 65536]], "rid": 10, "chan": 4},
    {"cmd": "writev", "extents": [], "rid": 11, "chan": 4},
    {"ok": True, "re": True, "rid": 12, "chan": 5},
    {"ok": True, "written": 4096, "re": True, "rid": 13, "chan": 5},
    {"ok": True, "written": [1, 2, 3], "re": True, "rid": 14, "chan": 5},
    {"ok": True, "sizes": [100, 200], "re": True, "rid": 15, "chan": 5},
    {"ok": True, "sizes": [], "re": True, "rid": 16, "chan": 5},
    # Optional fields, alone and combined.
    {"cmd": "read", "offset": 1, "size": 2, "dl": 1.5, "rid": 1, "chan": 1},
    {"cmd": "read", "offset": 1, "size": 2,
     "shm_r": [3, 65536, 9], "rid": 1, "chan": 1},
    {"cmd": "write", "offset": 0, "shm": [0, 40000, 5, 12345],
     "rid": 1, "chan": 1},
    {"ok": True, "sl": 1234, "shm": [2, 1234, 8, 99], "re": True,
     "rid": 1, "chan": 1},
    {"cmd": "write", "offset": 8, "dl": 0.25,
     "shm": [1, 2, 3, 4], "rid": 6, "chan": 2},
    # GetFileSize: the bare probe and its reply.
    {"cmd": "size", "rid": 17, "chan": 5},
    {"ok": True, "size": 0, "re": True, "rid": 18, "chan": 5},
    {"ok": True, "size": 2**64 - 1, "re": True, "rid": 19, "chan": 5},
    {"cmd": "size", "dl": 30000.0, "rid": 20, "chan": 5},
]


class TestRoundTrip:
    @pytest.mark.parametrize("fields", HOT_HEADERS,
                             ids=[str(i) for i in range(len(HOT_HEADERS))])
    def test_hot_headers_roundtrip_exactly(self, fields):
        assert roundtrip(fields) == fields

    def test_wire_reader_dispatches_on_tag(self):
        """A full frame written with a binary header decodes end-to-end."""
        fields = {"cmd": "read", "offset": 10, "size": 20,
                  "rid": 3, "chan": 9}
        head = control.encode_head_wire(fields)
        assert wire_message(head, b"xyz") == (fields, b"xyz")

    @settings(max_examples=60, deadline=None)
    @given(size=U64, rid=U64, chan=U32,
           dl=st.one_of(st.none(), st.floats(0, 1e12)))
    def test_size_roundtrip_property(self, size, rid, chan, dl):
        """GetFileSize rides binary both ways: the bare ``size`` probe
        and its ``{"ok", "size"}`` reply."""
        probe = {"cmd": "size", "rid": rid, "chan": chan}
        if dl is not None:
            probe["dl"] = dl
        assert roundtrip(probe) == probe
        reply = {"ok": True, "size": size, "re": True, "rid": rid,
                 "chan": chan}
        assert roundtrip(reply) == reply

    def test_size_probe_with_extra_keys_falls_back(self):
        # ``truncate`` also carries ``size``; only the bare probe and
        # the size reply are binary shapes.
        assert control.encode_head_wire(
            {"cmd": "size", "offset": 1, "rid": 1, "chan": 1}) is None
        assert control.encode_head_wire(
            {"cmd": "truncate", "size": 1, "rid": 1, "chan": 1}) is None

    def test_decode_message_handles_both_encodings(self):
        fields = {"ok": True, "written": 5, "re": True, "rid": 1, "chan": 2}
        binary = control.encode_head_wire(fields)
        assert binary is not None
        for head in (binary, control.encode_head(fields)):
            assert wire_message(head, b"pp") == (fields, b"pp")

    @settings(max_examples=100, deadline=None)
    @given(offset=U64, size=U64, rid=U64, chan=U32,
           dl=st.one_of(st.none(), st.floats(0, 1e12)))
    def test_read_header_roundtrip_property(self, offset, size, rid, chan,
                                            dl):
        fields = {"cmd": "read", "offset": offset, "size": size,
                  "rid": rid, "chan": chan}
        if dl is not None:
            fields["dl"] = dl
        assert roundtrip(fields) == fields

    @settings(max_examples=60, deadline=None)
    @given(extents=st.lists(st.tuples(U64, U64), max_size=20),
           rid=U64, chan=U32, cmd=st.sampled_from(["readv", "writev"]))
    def test_vector_header_roundtrip_property(self, extents, rid, chan, cmd):
        fields = {"cmd": cmd, "extents": [list(e) for e in extents],
                  "rid": rid, "chan": chan}
        assert roundtrip(fields) == fields


class TestFallback:
    """Whatever the binary codec cannot express goes to JSON untouched."""

    COLD_HEADERS = [
        {"cmd": "open", "strategy": "process-control", "rid": 1, "chan": 0},
        {"cmd": "read", "offset": 1, "size": 2, "trace": {"id": "x"},
         "rid": 1, "chan": 1},                         # extra key
        {"cmd": "read", "offset": -1, "size": 2, "rid": 1, "chan": 1},
        {"cmd": "read", "offset": 1, "size": 2**64, "rid": 1, "chan": 1},
        {"cmd": "read", "offset": 1.5, "size": 2, "rid": 1, "chan": 1},
        {"cmd": "rstream", "size": 100, "rid": 1, "chan": 1},
        {"ok": False, "error": "boom", "error_type": "IOError",
         "re": True, "rid": 1, "chan": 1},             # failures stay JSON
        {"ok": True, "size": -10, "re": True, "rid": 1, "chan": 1},
        {"cmd": "read", "offset": 1, "size": 2},       # no envelope
        {"cmd": "read", "offset": 1, "size": 2, "rid": -1, "chan": 1},
        {"ok": True, "written": "ten", "re": True, "rid": 1, "chan": 1},
        {"cmd": "readv", "extents": [[1]], "rid": 1, "chan": 1},
        {"cmd": "readv", "extents": [[0, 1], [2, -3]], "rid": 1, "chan": 1},
    ]

    @pytest.mark.parametrize("fields", COLD_HEADERS,
                             ids=[str(i) for i in range(len(COLD_HEADERS))])
    def test_cold_headers_fall_back(self, fields):
        assert control.encode_head_wire(fields) is None
        # ...and the JSON path still carries them verbatim.
        assert wire_message(control.encode_head(fields)) == (fields, b"")

    def test_encode_never_mutates_its_input(self):
        fields = {"cmd": "read", "offset": 1, "size": 2, "rid": 1, "chan": 1,
                  "dl": 2.0, "shm_r": [0, 65536, 1]}
        snapshot = dict(fields)
        control.encode_head_wire(fields)
        assert fields == snapshot


class TestGarbage:
    """Malformed binary headers die as FrameError, never struct.error."""

    def test_truncated_base(self):
        with pytest.raises(FrameError):
            control.decode_binary_head(b"\x01\x00")

    def test_unknown_kind(self):
        head = struct.pack(">BBIQ", 99, 0, 1, 1)
        with pytest.raises(FrameError):
            control.decode_binary_head(head)

    def test_trailing_bytes_rejected(self):
        good = control.encode_head_wire(
            {"ok": True, "re": True, "rid": 1, "chan": 1})[4:]
        with pytest.raises(FrameError):
            control.decode_binary_head(good + b"\x00")

    def test_huge_extent_count_rejected(self):
        # A forged count must not allocate or loop unboundedly.
        head = struct.pack(">BBIQ", 3, 0, 1, 1) + struct.pack(">I", 2**31)
        with pytest.raises(FrameError):
            control.decode_binary_head(head)

    def test_truncated_optional_field(self):
        head = struct.pack(">BBIQ", 1, 1, 1, 1)  # dl flag, no dl bytes
        with pytest.raises(FrameError):
            control.decode_binary_head(head)

    @settings(max_examples=150, deadline=None)
    @given(blob=st.binary(max_size=64))
    def test_arbitrary_bytes_never_leak_struct_error(self, blob):
        try:
            control.decode_binary_head(blob)
        except FrameError:
            pass
