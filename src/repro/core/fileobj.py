"""The application-facing file object.

"From the user process' perspective, interactions with active files are
indistinguishable from interactions with ordinary (passive) files"
(§2.1).  :class:`ActiveFile` delivers that property for Python code: it
subclasses :class:`io.RawIOBase`, so everything that accepts a binary
file — ``io.TextIOWrapper``, ``io.BufferedReader``, ``shutil``,
``json.load`` — works on an active file unmodified.

The object owns the application-side cursor and translates positioned
reads/writes onto its strategy session.  Sessions without random access
(the simple process strategy) are driven through their sequential stream
plane instead, and ``seekable()`` honestly reports ``False``.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass
from typing import Any

from repro.core.strategies.base import Session
from repro.core.telemetry import NULL_SPAN, TELEMETRY
from repro.errors import ActiveFileError, UnsupportedOperationError
from repro.util.finalize import defer_close, ensure_reaper

__all__ = ["ActiveFile", "FileStats"]


@dataclass
class FileStats:
    """Per-open operation counters (monitoring hook).

    The paper motivates sentinels that "monitor how the application
    uses this file"; these counters are the application-side mirror,
    useful for tests, tuning, and the benchmark harness.
    """

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    seeks: int = 0
    controls: int = 0
    # Sentinel-side cache counters, populated by refresh_cache_stats()
    # for sentinels that answer the "cache-stats" control op.
    cache_hits: int = 0
    cache_misses: int = 0
    prefetch_issued: int = 0
    prefetch_used: int = 0
    coalesced_flushes: int = 0
    dirty_high_water: int = 0


class ActiveFile(io.RawIOBase):
    """A binary file object served by a sentinel."""

    def __init__(self, session: Session, name: str = "", *,
                 readable: bool = True, writable: bool = True,
                 append: bool = False) -> None:
        super().__init__()
        ensure_reaper()  # so a leaked open can be closed off the GC path
        self._session = session
        self.name = name
        self._readable = readable
        self._writable = writable
        self._session_closed = False
        self.stats = FileStats()
        self._pos = 0
        # Re-home this open's counters under telemetry.snapshot()["files"]
        # (weakly: the entry vanishes with the file object).
        TELEMETRY.register_collector("files", name or "<anonymous>",
                                     self.stats, asdict)
        # The per-open trace context (tentpole: "a per-open trace context
        # with trace/span IDs propagated through the framed channel
        # envelope").  Created only when tracing was on at open time; the
        # root span stays open until close().
        self._trace = None
        if TELEMETRY.tracing:
            self._trace = TELEMETRY.new_trace(
                "file", attrs={"path": name, "strategy": session.strategy})
        if append:
            if not session.supports_random_access:
                raise UnsupportedOperationError(
                    f"{session.strategy}: append mode needs the end-of-file "
                    "position, which requires random access (use the "
                    "process-control, thread, or inproc strategy)")
            self._pos = session.size()

    # -- io.RawIOBase surface ------------------------------------------------------

    def readable(self) -> bool:
        return self._readable

    def writable(self) -> bool:
        return self._writable

    def seekable(self) -> bool:
        return self._session.supports_random_access

    @property
    def session(self) -> Session:
        """The underlying strategy session (for introspection)."""
        return self._session

    @property
    def strategy(self) -> str:
        return self._session.strategy

    def transport_stats(self) -> dict[str, Any] | None:
        """Transport-level counters, when the strategy is channel-backed.

        A snapshot of the shared connection's
        :class:`~repro.core.channel.ChannelCounters` — per-op latency,
        byte totals, and the in-flight high-water mark that evidences
        pipelining.  ``None`` for inline strategies with no transport.
        """
        counters = self._session.counters
        return None if counters is None else counters.snapshot()

    def _span(self, name: str, **attrs: Any):
        """An app-call span in this file's trace (no-op when untraced)."""
        if self._trace is None or not TELEMETRY.tracing:
            return NULL_SPAN
        current = TELEMETRY.current()
        parent = current if current is not None \
            and current.trace == self._trace.id else self._trace.root
        return TELEMETRY.span(f"app.{name}", parent=parent,
                              attrs=attrs or None)

    def readinto(self, buffer) -> int:
        self._ensure_open()
        if not self._readable:
            raise UnsupportedOperationError(f"{self.name}: not open for reading")
        view = memoryview(buffer)
        with self._span("readinto", offset=self._pos, size=len(view)):
            if self._session.supports_random_access:
                # Fills the caller's buffer directly — no intermediate bytes.
                count = self._session.read_at_into(self._pos, view)
            else:
                data = self._session.read_stream(len(view))
                count = len(data)
                view[:count] = data
        self._pos += count
        self.stats.reads += 1
        self.stats.bytes_read += count
        return count

    def read(self, size: int = -1) -> bytes:
        """Read up to *size* bytes (all remaining if negative).

        Overrides :class:`io.RawIOBase`'s default, which allocates a
        bytearray, fills it via :meth:`readinto`, then copies it into
        the result — the session's bytes are returned as-is instead.
        """
        if size is None or size < 0:
            return self.readall()
        self._ensure_open()
        if not self._readable:
            raise UnsupportedOperationError(f"{self.name}: not open for reading")
        with self._span("read", offset=self._pos, size=size):
            if self._session.supports_random_access:
                data = self._session.read_at(self._pos, size)
            else:
                data = self._session.read_stream(size)
        self._pos += len(data)
        self.stats.reads += 1
        self.stats.bytes_read += len(data)
        return data

    def readall(self) -> bytes:
        """Read to end of file in progressively larger bounded chunks.

        Starts small so sentinels that meter *requested* bytes (e.g. a
        sandbox budget) are not overcharged for small files, and grows
        toward 1 MiB so large files don't pay a round trip per 8 KiB.
        """
        chunks = []
        step = 8 * 1024
        while True:
            chunk = self.read(step)
            if not chunk:
                break
            chunks.append(chunk)
            step = min(step * 2, 1024 * 1024)
        return b"".join(chunks)

    def read_scatter(self, sizes: list[int]) -> list[bytes]:
        """ReadFileScatter: fill many buffers from the cursor in one go.

        Equivalent to consecutive reads of each size, but the whole
        batch travels as one vectored exchange on channel strategies.
        A short extent ends the sequence (end of file).
        """
        self._ensure_open()
        if not self._readable:
            raise UnsupportedOperationError(f"{self.name}: not open for reading")
        if not self._session.supports_random_access:
            raise UnsupportedOperationError(
                f"{self._session.strategy}: scatter read requires random access")
        extents = []
        position = self._pos
        for size in sizes:
            extents.append((position, int(size)))
            position += int(size)
        with self._span("read_scatter", extents=len(extents)):
            results = self._session.read_multi(extents)
        out: list[bytes] = []
        eof = False
        for (wanted_offset, wanted), data in zip(extents, results):
            if eof:
                # Past end of file: consecutive reads would return b""
                # and leave the cursor parked at the short-read point.
                data = b""
            else:
                self._pos = wanted_offset + len(data)
            out.append(data)
            self.stats.reads += 1
            self.stats.bytes_read += len(data)
            if len(data) < wanted:
                eof = True
        return out

    def write_gather(self, buffers: list[bytes]) -> int:
        """WriteFileGather: write many buffers from the cursor in one go."""
        self._ensure_open()
        if not self._writable:
            raise UnsupportedOperationError(f"{self.name}: not open for writing")
        if not self._session.supports_random_access:
            raise UnsupportedOperationError(
                f"{self._session.strategy}: gather write requires random access")
        extents = []
        position = self._pos
        for data in buffers:
            data = data if isinstance(data, (bytes, bytearray)) else bytes(data)
            extents.append((position, data))
            position += len(data)
        with self._span("write_gather", extents=len(extents)):
            written = self._session.write_extents(extents)
        total = sum(written)
        self._pos += total
        self.stats.writes += len(written)
        self.stats.bytes_written += total
        return total

    def write(self, data) -> int:
        self._ensure_open()
        if not self._writable:
            raise UnsupportedOperationError(f"{self.name}: not open for writing")
        if not isinstance(data, (bytes, bytearray, memoryview)):
            data = bytes(data)
        with self._span("write", offset=self._pos, size=len(data)):
            if self._session.supports_random_access:
                written = self._session.write_at(self._pos, data)
            else:
                written = self._session.write_stream(data)
        self._pos += written
        self.stats.writes += 1
        self.stats.bytes_written += written
        return written

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        self._ensure_open()
        if not self._session.supports_random_access:
            raise UnsupportedOperationError(
                f"{self._session.strategy}: seek requires a control channel "
                "(use the process-control, thread, or inproc strategy)"
            )
        if whence == io.SEEK_SET:
            target = offset
        elif whence == io.SEEK_CUR:
            target = self._pos + offset
        elif whence == io.SEEK_END:
            target = self._session.size() + offset
        else:
            raise ValueError(f"bad whence: {whence}")
        if target < 0:
            raise ValueError(f"negative seek target: {target}")
        if self._trace is not None and TELEMETRY.tracing:
            with self._span("seek", target=target):
                pass
        self._pos = target
        self.stats.seeks += 1
        return self._pos

    def tell(self) -> int:
        return self._pos

    def truncate(self, size: int | None = None) -> int:
        self._ensure_open()
        target = self._pos if size is None else size
        with self._span("truncate", size=target):
            self._session.truncate(target)
        return target

    def flush(self) -> None:
        if self.closed or self._session_closed:
            return
        if self._session.supports_control:
            with self._span("flush"):
                self._session.flush()

    # -- beyond the passive-file surface ---------------------------------------------

    def getsize(self) -> int:
        """GetFileSize: ask the sentinel how big the file appears to be."""
        self._ensure_open()
        return self._session.size()

    def control(self, op: str, args: dict[str, Any] | None = None,
                payload: bytes = b"") -> tuple[dict[str, Any], bytes]:
        """Send a custom control operation to the sentinel.

        This is the programmability escape hatch: applications that *do*
        know they are holding an active file can steer the sentinel
        ("yielding control to the end application") without leaving the
        file abstraction.
        """
        self._ensure_open()
        self.stats.controls += 1
        with self._span("control", op=op):
            return self._session.control(op, args, payload)

    def publish(self, data: bytes, offset: int | None = None,
                meta: dict[str, Any] | None = None) -> int:
        """Write *data* at *offset* (default: the cursor) and fan it out
        to every peer open and subscriber of this container's coherence
        domain.  Returns the publish sequence number.

        The pub/sub face of the paper's "multiple synchronizing
        sentinels": one publish reaches every subscribed open without
        each paying its own origin round trip.
        """
        self._ensure_open()
        if not self._writable:
            raise UnsupportedOperationError(f"{self.name}: not open for writing")
        if not isinstance(data, (bytes, bytearray, memoryview)):
            data = bytes(data)
        position = self._pos if offset is None else int(offset)
        with self._span("publish", offset=position, size=len(data)):
            written, seq = self._session.publish(position, bytes(data), meta)
        if offset is None:
            self._pos += written
        self.stats.writes += 1
        self.stats.bytes_written += written
        return seq

    def subscribe(self, max_pending: int | None = None) -> int:
        """Open a bounded update queue on the coherence domain."""
        self._ensure_open()
        with self._span("subscribe"):
            return self._session.subscribe(max_pending)

    def poll(self, sub: int, max_items: int = 64) -> list[dict[str, Any]]:
        """Drain pending update records for subscription *sub*.

        Raises :class:`~repro.errors.SubscriberEvictedError` (once) if
        the queue overflowed and the subscription was evicted.
        """
        self._ensure_open()
        with self._span("poll"):
            return self._session.poll(sub, max_items)

    def unsubscribe(self, sub: int) -> None:
        self._ensure_open()
        with self._span("unsubscribe"):
            self._session.unsubscribe(sub)

    def cache_stats(self) -> dict[str, Any]:
        """The sentinel's cache counters, via the ``cache-stats`` control op.

        Also folds the counters into :attr:`stats`, so one call gives
        tests and benchmarks hit ratios alongside the operation counts.
        Raises :class:`UnsupportedOperationError` for sentinels without
        a cache-stats control handler.
        """
        fields, _ = self.control("cache-stats")
        snapshot = dict(fields)
        for key, attr in (("hits", "cache_hits"), ("misses", "cache_misses"),
                          ("prefetch_issued", "prefetch_issued"),
                          ("prefetch_used", "prefetch_used"),
                          ("coalesced_flushes", "coalesced_flushes"),
                          ("dirty_high_water", "dirty_high_water")):
            if key in snapshot:
                setattr(self.stats, attr, int(snapshot[key]))
        return snapshot

    def trace(self) -> dict[str, Any] | None:
        """This open's span tree (nested dicts), or ``None`` when the
        file was opened with tracing disabled."""
        if self._trace is None:
            return None
        return TELEMETRY.trace_tree(self._trace.id,
                                    extra=(self._trace.root,))

    def telemetry(self) -> dict[str, Any]:
        """Everything observable about this open, under one roof.

        ``{"file": FileStats dict, "transport": channel counters or
        None, "cache": sentinel cache-stats or None, "trace": span tree
        or None}`` — the unified surface over :attr:`stats`,
        :meth:`transport_stats`, :meth:`cache_stats` and :meth:`trace`.
        """
        cache = None
        if (not self.closed and not self._session_closed
                and self._session.supports_control):
            try:
                cache = self.cache_stats()
            except (ActiveFileError, ValueError):
                pass  # sentinel has no cache-stats handler
        return {
            "file": asdict(self.stats),
            "transport": self.transport_stats(),
            "cache": cache,
            "trace": self.trace(),
        }

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        try:
            if not self._session_closed:
                with self._span("close"):
                    self._session.close()
                self._session_closed = True
        finally:
            super().close()
            if self._trace is not None:
                TELEMETRY.finish(self._trace.root)

    def _ensure_open(self) -> None:
        if self.closed:
            raise ValueError("I/O operation on closed active file")

    def __del__(self) -> None:
        # io.IOBase's finalizer would call close() right here, inside the
        # garbage collector — where the session's transport work can
        # deadlock against a lock held by the interrupted thread.
        # Resurrect the leaked file into the reaper thread instead.
        if not self.closed:
            defer_close(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else f"pos={self._pos}"
        return (f"ActiveFile(name={self.name!r}, "
                f"strategy={self._session.strategy!r}, {state})")
