"""The control-channel protocol.

The process-plus-control strategy sends "all API requests from the
application ... to the sentinel process via the control channel and the
response of the sentinel process is read from the read pipe" (§4.2).
This module defines the wire encoding of those commands and responses:
a length-prefixed frame whose body is a header — struct-packed binary
for the hot data-plane shapes, JSON for everything else, told apart by
the high bit of the header-length word — followed by an opaque payload.
Senders encode with :func:`encode_head_wire` (falling back to
:func:`encode_head`) and :func:`repro.util.framing.write_frame`; the
one decoder is :func:`read_wire_message`.  Failures travel as
:func:`error_fields` and are re-raised by :func:`raise_for_response`.
The command vocabulary itself has one client,
:class:`~repro.core.strategies.common.CommandSession`, and one server
per plane in :mod:`repro.core.dispatch`.

On top of the bare codec sits the *multiplexing envelope*: every message
carried by a :class:`~repro.core.channel.Channel` is tagged with a
request id (``rid``), a logical channel id (``chan``) and a reply flag
(``re``).  The envelope is what lets one framed connection carry many
concurrent opens — each open is a ``chan``, each in-flight operation a
``rid`` — including the network-bridge traffic that rides the same
connection as channel 0 (see :mod:`repro.core.netproxy`).
"""

from __future__ import annotations

import json
import struct
from typing import Any

from repro.errors import (
    ChannelClosedError,
    FrameError,
    SentinelError,
    wire_error_registry,
)

__all__ = [
    "encode_head",
    "encode_head_wire",
    "decode_binary_head",
    "read_wire_message",
    "error_fields",
    "raise_for_response",
    "envelope",
    "split_envelope",
    "ENVELOPE_KEYS",
    "CONTROL_CHAN",
]

_JSON_LEN = struct.Struct(">I")

#: A frame's length word followed by its header-length word.
_PREFIX = struct.Struct(">II")

#: Frame bodies up to this size are read in one call and split by
#: slicing; the payload copy is cheaper than a second read(2).
_SMALL_BODY = 16 * 1024

#: Header fields reserved for the multiplexing envelope.
ENVELOPE_KEYS = ("rid", "chan", "re")

#: The reserved channel for connection control and bridge traffic;
#: sessions use channels 1 and up.
CONTROL_CHAN = 0

#: The envelope as a header carries it, ``dl`` budget included.
_INNER_ENVELOPE = ENVELOPE_KEYS + ("dl",)

#: Exception classes a sentinel failure may round-trip as.  Built from
#: :mod:`repro.errors` so every library exception survives the wire;
#: anything else degrades to :class:`SentinelError`.
_ERROR_TYPES: dict[str, type[Exception]] = wire_error_registry()


def encode_head(fields: dict[str, Any]) -> bytes:
    """Encode the length-prefixed JSON header of a message.

    Senders that keep the payload separate (to write it as its own
    frame part, copy-free) pair this with
    :func:`repro.util.framing.write_frame`'s multi-part body.
    """
    try:
        header = json.dumps(fields, separators=(",", ":"),
                            sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise FrameError(f"unencodable message fields: {exc}") from exc
    return _JSON_LEN.pack(len(header)) + header


def read_wire_message(stream: Any) -> tuple[dict[str, Any], bytes]:
    """Read one framed message off *stream* as ``(fields, payload)``.

    The protocol's one decoder, and the hot inbound path of
    :class:`~repro.core.channel.StreamChannel`, so it costs two stream
    reads for a small frame: the frame-length and header-length words
    together, then the whole body (header and payload split by
    slicing).  A large payload is read on its own and arrives in
    exactly one buffer — no frame-sized intermediate blob, no slice
    copy.  The header-length word carries the binary-header
    tag in its high bit (see :func:`encode_head_wire`).
    """
    from repro.util.framing import MAX_FRAME, read_exact
    head = stream.read(_PREFIX.size)
    if not head:
        raise ChannelClosedError("stream closed at frame boundary")
    if len(head) < _PREFIX.size:
        head += read_exact(stream, _PREFIX.size - len(head))
    frame_len, word = _PREFIX.unpack(head)
    if frame_len > MAX_FRAME:
        raise FrameError(f"incoming frame of {frame_len} bytes exceeds MAX_FRAME")
    if frame_len < _JSON_LEN.size:
        raise FrameError(f"message of {frame_len} bytes has no header")
    header_len = word & ~_BINARY_TAG
    body_len = frame_len - _JSON_LEN.size
    if header_len > body_len:
        raise FrameError("message header extends past frame body")
    if body_len <= _SMALL_BODY:
        body = read_exact(stream, body_len)
        header, payload = body[:header_len], body[header_len:]
    else:
        header = read_exact(stream, header_len)
        payload = read_exact(stream, body_len - header_len)
    if word & _BINARY_TAG:
        fields = decode_binary_head(header)
    else:
        fields = _decode_json_head(header)
    return fields, payload


def _decode_json_head(header: bytes) -> dict[str, Any]:
    try:
        fields = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"message header is not JSON: {exc}") from exc
    if not isinstance(fields, dict):
        raise FrameError(
            f"message header must be an object, got {type(fields).__name__}")
    return fields


# ---------------------------------------------------------------------------
# Binary hot-op headers
# ---------------------------------------------------------------------------
#
# The data-plane commands (read/write/readv/writev, and the size probe
# behind GetFileSize) and their replies dominate the frame stream, and for a cached 4 KiB read the
# ``json.dumps``/``json.loads`` round trip of the header costs more than
# the payload copy.  Those — and only those — headers therefore have a
# struct-packed encoding, tagged by the high bit of the in-body
# header-length word (legal because MAX_FRAME < 2**31 keeps that bit
# clear for JSON headers).  Everything else — errors, opens, control
# ops, traced frames (``tc``), piggybacked spans (``tsp``) — stays JSON,
# and the decoder accepts both forms forever, so the two encodings can
# coexist on one connection.

#: Marks a binary header in the header-length word's high bit.
_BINARY_TAG = 0x80000000

_B_BASE = struct.Struct(">BBIQ")    # kind, flags, chan, rid
_B_U32 = struct.Struct(">I")
_B_U64 = struct.Struct(">Q")
_B_U64x2 = struct.Struct(">QQ")
_B_F64 = struct.Struct(">d")
_B_SHM = struct.Struct(">QQQQ")     # slot, length, generation, crc32
_B_SHMR = struct.Struct(">QQQ")     # slot, capacity, generation

# Header kinds.
_K_READ, _K_WRITE, _K_READV, _K_WRITEV = 1, 2, 3, 4
_K_OK, _K_WRITTEN, _K_SIZES, _K_WRITTENV = 5, 6, 7, 8
_K_SIZE, _K_SIZED = 9, 10
_REPLY_KINDS = frozenset({_K_OK, _K_WRITTEN, _K_SIZES, _K_WRITTENV,
                          _K_SIZED})

# Optional-field flag bits.
_F_DL, _F_SHM, _F_SHMR, _F_SL = 1, 2, 4, 8


def _is_uints(value: Any, count: int | None = None) -> bool:
    if not isinstance(value, (list, tuple)):
        return False
    if count is not None and len(value) != count:
        return False
    return all(isinstance(x, int) and x >= 0 for x in value)


def _pack_u64s(values) -> bytes:
    return _B_U32.pack(len(values)) + b"".join(
        _B_U64.pack(v) for v in values)


def encode_head_wire(fields: dict[str, Any], rid: int | None = None,
                     chan: int | None = None, *, reply: bool = False,
                     dl: Any = None) -> bytes | None:
    """Binary-encode a hot-op header, length word included.

    The envelope either rides inside *fields* (a header as
    :func:`read_wire_message` returns it) or, when *rid* is given,
    beside it — *rid*, *chan*, the *reply* flag and a request's ``dl``
    budget — which is how a channel sends, so it never builds an
    enveloped copy of the fields.  Neither form is copied here.

    Returns ``None`` whenever the header is not exactly one of the known
    hot shapes — unknown keys, trace contexts, errors — telling the
    caller to fall back to :func:`encode_head`.  The fallback is what
    keeps this codec simple: it never needs to express the general case.
    """
    try:
        head = _encode_binary(fields, rid, chan, reply, dl)
    except (struct.error, TypeError, ValueError, OverflowError):
        return None
    if head is None:
        return None
    return _JSON_LEN.pack(len(head) | _BINARY_TAG) + head


def _encode_binary(fields: dict[str, Any], rid: Any, chan: Any,
                   reply: bool, dl: Any) -> bytes | None:
    # Keys of *fields* left to make up the hot shape itself.
    body = len(fields)
    if rid is None:  # the envelope rides inside *fields*
        rid = fields.get("rid")
        chan = fields.get("chan")
        reply = bool(fields.get("re", False))
        dl = fields.get("dl")
        body -= sum(1 for key in _INNER_ENVELOPE if key in fields)
    if not isinstance(rid, int) or not isinstance(chan, int) \
            or rid < 0 or chan < 0:
        return None
    flags = 0
    opt: list[bytes] = []
    if dl is not None:
        if not isinstance(dl, (int, float)):
            return None
        flags |= _F_DL
        opt.append(_B_F64.pack(float(dl)))
    get = fields.get
    shm = get("shm")
    if shm is not None:
        if not _is_uints(shm, 4):
            return None
        flags |= _F_SHM
        opt.append(_B_SHM.pack(*shm))
        body -= 1
    shm_r = get("shm_r")
    if shm_r is not None:
        if not _is_uints(shm_r, 3):
            return None
        flags |= _F_SHMR
        opt.append(_B_SHMR.pack(*shm_r))
        body -= 1
    sl = get("sl")
    if sl is not None:
        if not isinstance(sl, int) or sl < 0:
            return None
        flags |= _F_SL
        opt.append(_B_U32.pack(sl))
        body -= 1
    if reply:
        if get("ok") is not True:
            return None  # failure replies carry error text: JSON
        body -= 1
        if body == 0:
            kind, tail = _K_OK, b""
        elif body != 1:
            return None
        elif "written" in fields:
            written = fields["written"]
            if isinstance(written, int) and written >= 0:
                kind, tail = _K_WRITTEN, _B_U64.pack(written)
            elif _is_uints(written):
                kind, tail = _K_WRITTENV, _pack_u64s(written)
            else:
                return None
        elif "sizes" in fields and _is_uints(fields["sizes"]):
            kind, tail = _K_SIZES, _pack_u64s(fields["sizes"])
        elif "size" in fields and isinstance(fields["size"], int) \
                and fields["size"] >= 0:
            kind, tail = _K_SIZED, _B_U64.pack(fields["size"])
        else:
            return None
    else:
        cmd = get("cmd")
        body -= 1
        if cmd == "read" and body == 2 and "offset" in fields \
                and "size" in fields:
            kind, tail = _K_READ, _B_U64x2.pack(fields["offset"],
                                                fields["size"])
        elif cmd == "write" and body == 1 and "offset" in fields:
            kind, tail = _K_WRITE, _B_U64.pack(fields["offset"])
        elif cmd == "size" and body == 0:
            kind, tail = _K_SIZE, b""
        elif cmd in ("readv", "writev") and body == 1 \
                and "extents" in fields:
            extents = fields["extents"]
            parts = [_B_U32.pack(len(extents))]
            for extent in extents:
                if not _is_uints(extent, 2):
                    return None
                parts.append(_B_U64x2.pack(extent[0], extent[1]))
            kind, tail = (_K_READV if cmd == "readv" else _K_WRITEV), \
                b"".join(parts)
        else:
            return None
    return _B_BASE.pack(kind, flags, chan, rid) + b"".join(opt) + tail


def decode_binary_head(header: bytes) -> dict[str, Any]:
    """Decode a binary header back into the exact dict that produced it.

    Downstream code (envelope split, dispatch, fault matching) is
    encoding-blind: it sees the same field dicts either way.  Garbage
    raises :class:`FrameError`, like a malformed JSON header would.
    """
    try:
        kind, flags, chan, rid = _B_BASE.unpack_from(header, 0)
        pos = _B_BASE.size
        fields: dict[str, Any] = {}
        is_reply = kind in _REPLY_KINDS
        if is_reply:
            fields["ok"] = True
        if flags & _F_DL:
            (fields["dl"],) = _B_F64.unpack_from(header, pos)
            pos += _B_F64.size
        if flags & _F_SHM:
            fields["shm"] = list(_B_SHM.unpack_from(header, pos))
            pos += _B_SHM.size
        if flags & _F_SHMR:
            fields["shm_r"] = list(_B_SHMR.unpack_from(header, pos))
            pos += _B_SHMR.size
        if flags & _F_SL:
            (fields["sl"],) = _B_U32.unpack_from(header, pos)
            pos += _B_U32.size
        if kind == _K_READ:
            fields["cmd"] = "read"
            fields["offset"], fields["size"] = _B_U64x2.unpack_from(
                header, pos)
            pos += _B_U64x2.size
        elif kind == _K_WRITE:
            fields["cmd"] = "write"
            (fields["offset"],) = _B_U64.unpack_from(header, pos)
            pos += _B_U64.size
        elif kind == _K_SIZE:
            fields["cmd"] = "size"
        elif kind in (_K_READV, _K_WRITEV):
            fields["cmd"] = "readv" if kind == _K_READV else "writev"
            (count,) = _B_U32.unpack_from(header, pos)
            pos += _B_U32.size
            if pos + count * _B_U64x2.size > len(header):
                raise FrameError("binary header extent list is truncated")
            extents = []
            for _ in range(count):
                pair = _B_U64x2.unpack_from(header, pos)
                pos += _B_U64x2.size
                extents.append([pair[0], pair[1]])
            fields["extents"] = extents
        elif kind == _K_OK:
            pass
        elif kind in (_K_WRITTEN, _K_SIZED):
            key = "written" if kind == _K_WRITTEN else "size"
            (fields[key],) = _B_U64.unpack_from(header, pos)
            pos += _B_U64.size
        elif kind in (_K_SIZES, _K_WRITTENV):
            key = "sizes" if kind == _K_SIZES else "written"
            (count,) = _B_U32.unpack_from(header, pos)
            pos += _B_U32.size
            if pos + count * _B_U64.size > len(header):
                raise FrameError("binary header size list is truncated")
            values = []
            for _ in range(count):
                (value,) = _B_U64.unpack_from(header, pos)
                pos += _B_U64.size
                values.append(value)
            fields[key] = values
        else:
            raise FrameError(f"unknown binary header kind {kind}")
        if pos != len(header):
            raise FrameError(
                f"binary header carries {len(header) - pos} trailing bytes")
        if is_reply:
            fields["re"] = True
        fields["rid"] = rid
        fields["chan"] = chan
        return fields
    except struct.error as exc:
        raise FrameError(f"binary header is malformed: {exc}") from exc


def error_fields(exc: BaseException) -> dict[str, Any]:
    """The header dict describing *exc* as a failure response."""
    return {
        "ok": False,
        "error": str(exc),
        "error_type": type(exc).__name__,
    }


def raise_for_response(fields: dict[str, Any]) -> None:
    """If *fields* is a failure response, raise the matching exception."""
    if fields.get("ok", False):
        return
    error_type = fields.get("error_type", "")
    message = fields.get("error", "sentinel reported failure")
    exc_class = _ERROR_TYPES.get(error_type, SentinelError)
    raise exc_class(message)


# ---------------------------------------------------------------------------
# Multiplexing envelope
# ---------------------------------------------------------------------------

def envelope(fields: dict[str, Any], rid: int, chan: int,
             reply: bool = False, dl: Any = None,
             tc: Any = None) -> dict[str, Any]:
    """*fields* under their envelope, as one new header dict.

    The general (JSON) form of what :func:`encode_head_wire` encodes
    from the parts; ``dl`` and ``tc`` are set only when given.
    """
    head = {**fields, "rid": rid, "chan": chan}
    if reply:
        head["re"] = True
    if dl is not None:
        head["dl"] = dl
    if tc is not None:
        head["tc"] = tc
    return head


def split_envelope(fields: dict[str, Any]) -> tuple[int, int, bool,
                                                    dict[str, Any]]:
    """Pop the multiplexing envelope off a decoded header, in place.

    Returns ``(rid, chan, is_reply, rest)``, where *rest* is *fields*
    itself minus the envelope — a decoded header belongs to its reader,
    so nothing is copied.  Raises :class:`FrameError`, leaving *fields*
    as it was, if the header carries no valid envelope.
    """
    try:
        rid = int(fields["rid"])
        chan = int(fields["chan"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameError(f"message lacks a valid rid/chan envelope: {exc}") from exc
    del fields["rid"], fields["chan"]
    return rid, chan, bool(fields.pop("re", False)), fields
