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

import io
import struct
from typing import BinaryIO

from repro.errors import ChannelClosedError, FrameError

__all__ = ["read_exact", "write_frame", "MAX_FRAME"]

_LEN = struct.Struct(">I")

#: Upper bound on a single frame body (16 MiB).  Large file operations are
#: chunked well below this by the strategies.
MAX_FRAME = 16 * 1024 * 1024

#: Frame bodies at or below this size are joined with the length prefix
#: and written in one call.
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


def write_frame(stream: BinaryIO, payload: bytes | memoryview,
                *extra: bytes | memoryview) -> None:
    """Write one length-prefixed frame and flush it.

    The frame body may be passed as several parts — ``bytes`` or
    ``memoryview`` alike; they are written back-to-back under one
    length prefix.  This lets callers prepend a small header to a large
    payload (or gather many extents) without concatenating, and
    therefore copying, the payload first.  Small frames are coalesced
    into a single write so a frame costs one syscall on an unbuffered
    pipe.
    """
    total = len(payload) + sum(len(part) for part in extra)
    if total > MAX_FRAME:
        raise FrameError(f"frame of {total} bytes exceeds MAX_FRAME")
    if total <= _COALESCE_LIMIT:
        stream.write(b"".join((_LEN.pack(total), payload, *extra)))
    else:
        stream.write(_LEN.pack(total))
        stream.write(payload)
        for part in extra:
            if part:
                stream.write(part)
    # Only buffered streams need (or benefit from) an explicit flush.
    # The pipe transports hand over raw fds (buffering=0): every write
    # above already hit the kernel, and flushing a raw stream would cost
    # a second no-op method call per frame.
    if isinstance(stream, io.BufferedIOBase):
        stream.flush()
