"""The DLL-only strategy (paper §4.4).

File API calls are routed *directly* into sentinel routines — no second
process, no second thread, no context switch, no copy beyond the one the
sentinel itself performs: "The DLL-only implementation approach
eliminates this switch by directly routing file system API calls to
appropriate routines in the sentinel DLL."

As in the paper, only ``AF_ReadFile`` and ``AF_WriteFile`` go straight
to the sentinel's hooks: :meth:`InprocSession.read_at` and
:meth:`~InprocSession.write_at` call ``on_read``/``on_write`` in place,
and their scatter/gather forms call them once per extent.  Every other
operation is a command of the :class:`CommandSession` vocabulary,
served by calling the open's
:class:`~repro.core.dispatch.SentinelDispatcher` in place — the
``AF_Control`` routine — so the command-to-hook mapping and the close
lifecycle are the ones every channel strategy's sentinel runs.

This is the cheapest strategy and the one whose overhead the paper
measures as "negligible ... incurring the same costs as if the
application were directly accessing the information sources".  The cost
is convenience: the sentinel runs on the *application's* thread, so a
slow handler stalls the caller, and its exceptions propagate
synchronously instead of being marshalled through response frames.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.core.container import Container
from repro.core.dispatch import SentinelDispatcher
from repro.core.sentinel import make_context
from repro.core.strategies.common import CommandSession
from repro.core.telemetry import TELEMETRY

__all__ = ["InprocSession", "open_session"]


class InprocSession(CommandSession):
    """Direct-call session: the application thread runs the sentinel."""

    strategy = "inproc"

    def __init__(self, dispatcher: SentinelDispatcher) -> None:
        self._dispatcher = dispatcher
        self._sentinel = dispatcher.sentinel
        self._ctx = dispatcher.ctx
        self._close_lock = threading.Lock()

    # -- data plane: AF_ReadFile / AF_WriteFile -----------------------------------

    def read_at(self, offset: int, size: int) -> bytes:
        return self._sentinel.on_read(self._ctx, offset, size)

    def write_at(self, offset: int, data: bytes) -> int:
        if not isinstance(data, bytes):
            # Sentinels are written against bytes payloads (the wire
            # strategies deliver exactly that); honor the contract here
            # too instead of leaking caller buffers into sentinel code.
            data = bytes(data)
        return self._sentinel.on_write(self._ctx, offset, data)

    # Scatter/gather calls the hooks once per extent, in order, as the
    # dispatcher's ``readv``/``writev`` do, with no batch to build.

    def read_multi(self, extents: list[tuple[int, int]]) -> list[bytes]:
        return [self.read_at(int(offset), int(size))
                for offset, size in extents]

    def write_extents(self, extents: list[tuple[int, bytes]]) -> list[int]:
        return [self.write_at(int(offset), data) for offset, data in extents]

    # -- everything else: AF_Control ----------------------------------------------

    def _op(self, fields: dict[str, Any], payload: Any = b""
            ) -> tuple[dict[str, Any], bytes]:
        """Serve one command in place; a sentinel's exception propagates
        as raised (no error reply is marshalled)."""
        if not isinstance(payload, bytes):
            # Handlers receive immutable bytes: join gathered extents
            # and copy views, so the caller may reuse its buffers.
            payload = b"".join(payload if isinstance(payload, tuple)
                               else (payload,))
        return self._dispatcher._execute(fields["cmd"], fields, payload)

    def close(self) -> None:
        # No channel serializes this strategy's calls: two threads
        # closing at once must still run the close lifecycle once.
        with self._close_lock:
            self._dispatcher.close()


def open_session(container: Container, network=None) -> InprocSession:
    """Open *container* with the DLL-only strategy."""
    sentinel = container.spec.instantiate()
    ctx = make_context(container, network, strategy="inproc")
    dispatcher = SentinelDispatcher(sentinel, ctx)
    dispatcher.open()
    TELEMETRY.metrics.counter("sessions.opened.inproc",
                              scope=str(container.path)).inc()
    return InprocSession(dispatcher)
