"""The session interface every strategy implements.

A *session* is one application-side open of an active file: it owns the
transport to "its" sentinel (child process, injected thread, or inline
object) and translates file operations into that transport.  The file
object (:mod:`repro.core.fileobj`) and the Win32-style API veneer
(:mod:`repro.core.api`) are written purely against this interface.

Capability flags express the paper's strategy differences: the simple
process strategy "can only support a subset of the file operations"
because bare pipes carry no control information, so its session reports
``supports_random_access = False`` and offers the sequential stream
methods instead.
"""

from __future__ import annotations

from typing import Any

from repro.errors import UnsupportedOperationError

__all__ = ["Session"]


class Session:
    """One open of an active file, bound to one sentinel."""

    #: Canonical strategy name serving this session.
    strategy = ""

    #: Whether reads/writes may carry explicit offsets (seek support).
    supports_random_access = True

    #: Whether GetFileSize/truncate/flush/control round-trips exist.
    supports_control = True

    #: Transport counters (:class:`repro.core.channel.ChannelCounters`)
    #: for channel-backed sessions, ``None`` for inline strategies.
    counters = None

    # -- random-access plane ----------------------------------------------------

    def read_at(self, offset: int, size: int) -> bytes:
        raise UnsupportedOperationError(
            f"{self.strategy}: random-access read unsupported"
        )

    def write_at(self, offset: int, data: bytes) -> int:
        raise UnsupportedOperationError(
            f"{self.strategy}: random-access write unsupported"
        )

    def read_at_into(self, offset: int, buffer: memoryview) -> int:
        """Read up to ``len(buffer)`` bytes at *offset* into *buffer*.

        Returns the byte count.  The default goes through
        :meth:`read_at`; transports that can land bytes directly in the
        caller's buffer override this to avoid the intermediate copy.
        """
        data = self.read_at(offset, len(buffer))
        buffer[:len(data)] = data
        return len(data)

    def read_multi(self, extents: list[tuple[int, int]]) -> list[bytes]:
        """Read many ``(offset, size)`` extents; returns their bytes."""
        raise UnsupportedOperationError(
            f"{self.strategy}: vectored read unsupported"
        )

    def write_extents(self, extents: list[tuple[int, bytes]]) -> list[int]:
        """Write many ``(offset, data)`` extents; returns written counts."""
        raise UnsupportedOperationError(
            f"{self.strategy}: vectored write unsupported"
        )

    def size(self) -> int:
        raise UnsupportedOperationError(f"{self.strategy}: size unsupported")

    def truncate(self, size: int) -> None:
        raise UnsupportedOperationError(f"{self.strategy}: truncate unsupported")

    def flush(self) -> None:
        raise UnsupportedOperationError(f"{self.strategy}: flush unsupported")

    def control(self, op: str, args: dict[str, Any] | None = None,
                payload: bytes = b"") -> tuple[dict[str, Any], bytes]:
        raise UnsupportedOperationError(f"{self.strategy}: control unsupported")

    # -- fan-out plane (coherence domain) ------------------------------------------

    def publish(self, offset: int, data: bytes,
                meta: "dict[str, Any] | None" = None) -> tuple[int, int]:
        """Write *data* and fan it out to every peer open/subscriber of
        this container's coherence domain; returns ``(written, seq)``."""
        raise UnsupportedOperationError(
            f"{self.strategy}: publish unsupported"
        )

    def subscribe(self, max_pending: int | None = None) -> int:
        """Open a bounded pending-update queue; returns its id."""
        raise UnsupportedOperationError(
            f"{self.strategy}: subscribe unsupported"
        )

    def poll(self, sub: int, max_items: int = 64) -> "list[dict[str, Any]]":
        """Drain pending update records (oldest first)."""
        raise UnsupportedOperationError(f"{self.strategy}: poll unsupported")

    def unsubscribe(self, sub: int) -> None:
        raise UnsupportedOperationError(
            f"{self.strategy}: unsubscribe unsupported"
        )

    # -- sequential plane (simple process strategy) -------------------------------

    def read_stream(self, size: int) -> bytes:
        """Read up to *size* bytes from the sequential read pipe."""
        raise UnsupportedOperationError(
            f"{self.strategy}: stream read unsupported"
        )

    def write_stream(self, data: bytes) -> int:
        """Append *data* to the sequential write pipe."""
        raise UnsupportedOperationError(
            f"{self.strategy}: stream write unsupported"
        )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        raise NotImplementedError
