"""The simple process-based strategy (paper §4.1).

"The process-based implementation approach is the simple and intuitive
method, directly reflecting active file semantics": the sentinel runs in
a real child process, and the application sees only two sequential
byte streams — "it can only support a subset of the file operations.
Operations such as ReadFileScatter (or seek in Unix) and GetFileSize
cannot be implemented as there is no method of passing control
information between the user process and the sentinel process."

Accordingly :class:`ProcessSession` reports no random access and no
control support; attempts raise
:class:`~repro.errors.UnsupportedOperationError` (the paper's "dropped
with an appropriate return code").  The sequential planes now travel as
``rstream``/``wstream`` commands over the pooled host connection
(:mod:`repro.core.runner`) instead of dedicated raw pipes; the
application-visible vocabulary is unchanged.
"""

from __future__ import annotations

import threading

from repro.core.container import Container
from repro.core.runner import HOST_POOL
from repro.core.strategies.common import ChannelSession, byte_view
from repro.core.telemetry import TELEMETRY

__all__ = ["ProcessSession", "open_session"]


class ProcessSession(ChannelSession):
    """Sequential stream session to a sentinel behind the host channel."""

    strategy = "process"
    supports_random_access = False
    supports_control = False

    # SHM_CMDS stays empty: ``rstream``/``wstream`` carry implicit
    # cursor state, so a shm-rejected attempt could not be retried
    # without replaying the cursor.  Stream bodies stay on the frame.

    #: Stream transfers are chunked below the 16 MiB frame cap.
    READ_CHUNK = 4 * 1024 * 1024
    WRITE_CHUNK = 4 * 1024 * 1024

    def __init__(self, lease) -> None:
        super().__init__(lease)
        self._read_lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._read_eof = False

    # -- sequential plane ---------------------------------------------------------

    def read_stream(self, size: int) -> bytes:
        """Read up to *size* bytes; short only at end of stream."""
        if size <= 0:
            return b""
        chunks: list[bytes] = []
        with self._read_lock:
            if self._read_eof:
                return b""
            remaining = size
            while remaining:
                fields, chunk = self._op({
                    "cmd": "rstream",
                    "size": min(remaining, self.READ_CHUNK),
                })
                chunks.append(chunk)
                remaining -= len(chunk)
                if fields.get("eof", False):
                    self._read_eof = True
                    break
                if not chunk:
                    break
        return b"".join(chunks)

    def write_stream(self, data: bytes) -> int:
        if not data:
            return 0
        view = memoryview(byte_view(data))
        total = 0
        with self._write_lock:
            while total < len(view):
                chunk = view[total:total + self.WRITE_CHUNK]
                fields, _ = self._op({"cmd": "wstream"}, chunk)
                total += int(fields.get("written", len(chunk)))
        return total


def open_session(container: Container, network=None) -> ProcessSession:
    """Open *container* with the simple process strategy."""
    lease = HOST_POOL.lease(str(container.path), strategy="process",
                            network=network)
    lease.supervised = bool(container.meta.get("supervise", True))
    TELEMETRY.metrics.counter("sessions.opened.process",
                              scope=str(container.path)).inc()
    return ProcessSession(lease)
