"""Length-prefixed framing over byte streams.

The two process-based strategies talk to the sentinel child over OS
pipes.  Pipes are byte streams, so commands and payloads are delimited
with a 4-byte big-endian length prefix.  A maximum frame size guards the
receiver against a corrupt or adversarial peer allocating unbounded
memory.  Frames are read back by
:func:`repro.core.control.read_wire_message`, which parses the length
prefix together with the message header.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

from repro.errors import ChannelClosedError, FrameError

__all__ = ["read_exact", "write_frame", "payload_parts", "MAX_FRAME"]

_LEN = struct.Struct(">I")

#: Upper bound on a single frame body (16 MiB).  Large file operations are
#: chunked well below this by the strategies.
MAX_FRAME = 16 * 1024 * 1024

#: A frame whose payload (the parts after its header) is at most this
#: size is joined with the length prefix and header and written in one
#: call: a read-ahead window's reply (64 KiB of blocks) included.
_COALESCE_LIMIT = 64 * 1024


def read_exact(stream: BinaryIO, size: int) -> bytes:
    """Read exactly *size* bytes from *stream* or raise.

    Raises :class:`ChannelClosedError` if EOF arrives first — a half
    frame always means the peer died mid-message.
    """
    chunk = stream.read(size)
    if chunk is None:
        chunk = b""
    if len(chunk) == size:
        return chunk  # whole body in one read: no join, no copy
    if not chunk:
        raise ChannelClosedError(
            f"stream closed with {size} of {size} bytes outstanding")
    chunks = [chunk]
    remaining = size - len(chunk)
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            raise ChannelClosedError(
                f"stream closed with {remaining} of {size} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def payload_parts(payload) -> tuple:
    """A frame payload as the tuple of its buffer parts: one buffer
    (``bytes``/``bytearray``/``memoryview``), or a sequence of them."""
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return (payload,)
    return tuple(payload)


def write_frame(stream: BinaryIO, payload: bytes | memoryview,
                *extra: bytes | memoryview) -> None:
    """Write one length-prefixed frame and flush it.

    The frame body may be passed as several parts — ``bytes`` or
    ``memoryview`` alike; they are written back-to-back under one
    length prefix.  This lets callers prepend a small header to a large
    payload (or gather many extents) without concatenating, and
    therefore copying, the payload first.  A frame whose payload — the
    parts after the first, which is the header when there are several —
    fits :data:`_COALESCE_LIMIT` is coalesced into a single write, so it
    costs one syscall on an unbuffered pipe and never wakes the peer on
    a partial frame.
    """
    total = len(payload)
    for part in extra:
        total += len(part)
    if total > MAX_FRAME:
        raise FrameError(f"frame of {total} bytes exceeds MAX_FRAME")
    if (total - len(payload) if extra else total) <= _COALESCE_LIMIT:
        _write_all(stream, b"".join((_LEN.pack(total), payload, *extra)))
    else:
        _write_all(stream, _LEN.pack(total))
        _write_all(stream, payload)
        for part in extra:
            if part:
                _write_all(stream, part)
    # Only buffered streams need an explicit flush; on the raw fds of
    # the pipe transports (buffering=0) every write above already hit
    # the kernel and flush() is a no-op.
    stream.flush()


def _write_all(stream: BinaryIO, data: bytes | memoryview) -> None:
    """Write every byte of *data*, however many calls that takes.

    A raw stream may take only part of a write — a blocking pipe does
    when a signal with a Python handler interrupts it mid-write — and a
    frame left short would tear the stream for the peer.
    """
    written = stream.write(data)
    if written is None or written >= len(data):
        # The whole part in one call (the common case), or a stream
        # whose write reports no count.
        return
    view = memoryview(data).cast("B")
    while written < len(view):
        count = stream.write(view[written:])
        if count is None:
            raise BlockingIOError(
                f"stream took {written} of {len(view)} bytes and would block")
        written += count
