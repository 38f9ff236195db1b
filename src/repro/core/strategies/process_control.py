"""The process-plus-control strategy (paper §4.2).

"This approach solves the problem of handshaking between the user and
sentinel processes by adding a control channel in addition to the two
pipes ... all API requests from the application are first transmitted to
the sentinel process via the control channel and the response of the
sentinel process is read from the read pipe."

Every operation still costs a command message to the sentinel process
and a response message back — the two protection-domain crossings per
call that the evaluation section attributes to this strategy.  The
transport, however, is now the pooled multiplexed host connection
(:mod:`repro.core.runner`): each open is one logical channel on the
shared framed link, so many opens of the same container share one child
interpreter and can keep multiple operations in flight concurrently.
"""

from __future__ import annotations

from repro.core.container import Container
from repro.core.runner import HOST_POOL
from repro.core.strategies.common import ChannelSession, CommandSession
from repro.core.telemetry import TELEMETRY

__all__ = ["ProcessControlSession", "open_session"]


class ProcessControlSession(ChannelSession, CommandSession):
    """Full-API session to a sentinel host over the multiplexed channel:
    the :class:`CommandSession` vocabulary on the supervised
    :class:`ChannelSession` transport."""

    strategy = "process-control"

    #: Bulk command bodies may ride the host's shared-memory segment.
    #: All four are absolute-offset and idempotent, so a rejected slot
    #: exchange retries inline without observable difference.
    SHM_CMDS = frozenset({"read", "write", "readv", "writev"})

    def read_at_into(self, offset: int, buffer) -> int:
        """Read straight into *buffer*: with the shm plane armed the
        sentinel fills the leased slot and the bytes make exactly one
        validated copy into the caller's memory."""
        view = memoryview(buffer)
        filled = 0
        while filled < len(view):
            step = min(len(view) - filled, self.READ_CHUNK)
            reply, _ = self._op({"cmd": "read", "offset": offset + filled,
                                 "size": step},
                                into=view[filled:filled + step])
            count = int(reply.get("sl") or 0)
            filled += count
            if count < step:
                break  # sentinel reported EOF
        return filled


def open_session(container: Container,
                 network=None) -> ProcessControlSession:
    """Open *container* with the process-plus-control strategy on the
    shared host pool (one host per container, many sessions)."""
    lease = HOST_POOL.lease(str(container.path), strategy="process-control",
                            network=network)
    lease.supervised = bool(container.meta.get("supervise", True))
    TELEMETRY.metrics.counter("sessions.opened.process-control",
                              scope=str(container.path)).inc()
    return ProcessControlSession(lease)
