"""Concurrent intelligent logging sentinel (paper §3).

"Assume that several processes log events using the same log file.  As
the sentinel receives each log record, it locks the file, writes the
record and unlocks the file.  The processes generating the logs do not
need to know about log file locking.  Moreover, the sentinel can
perform a variety of functions in the background such as cleaning up
the logs."

Every write is treated as one log record: the sentinel takes the
container's cross-process lock, reloads the data part (so records
appended by *other* sentinels — possibly in other OS processes — are
not lost), appends the record with a sequence number, and persists
before releasing.  Compaction ("cleaning up") is exposed as a control
operation.
"""

from __future__ import annotations

import threading

from repro.core.datapart import ContainerDataPart
from repro.core.sentinel import Sentinel, SentinelContext

__all__ = ["ConcurrentLogSentinel"]


class ConcurrentLogSentinel(Sentinel):
    """Append-only, multi-writer-safe log file.

    Params: ``max_records`` (compaction threshold; when exceeded at
    append time, oldest records are dropped to ``keep_records``),
    ``keep_records`` (default ``max_records``), ``stamp`` (bool,
    default True: prefix each record with ``<seq> ``).
    """

    def __init__(self, params=None) -> None:
        super().__init__(params)
        max_records = self.params.get("max_records")
        self.max_records = None if max_records is None else int(max_records)
        self.keep_records = int(self.params.get("keep_records",
                                                self.max_records or 0)) or None
        self.stamp = bool(self.params.get("stamp", True))
        #: Serializes the records of this open's threads on a data part
        #: no other open shares (a memory data part is built per open).
        self._lock = threading.Lock()

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _records(data: bytes) -> list[bytes]:
        return data.split(b"\n")[:-1] if data else []

    @staticmethod
    def _next_seq(records: list[bytes]) -> int:
        for record in reversed(records):
            head, _, _ = record.partition(b" ")
            try:
                return int(head) + 1
            except ValueError:
                continue
        return 0

    def _locked(self, ctx: SentinelContext):
        """The lock a record is appended under."""
        if isinstance(ctx.data, ContainerDataPart):
            return ctx.data._lock  # advisory cross-process lock
        return self._lock

    # -- sentinel interface ---------------------------------------------------------

    def on_write(self, ctx: SentinelContext, offset: int, data: bytes) -> int:
        """Append one record (the offset is ignored: logs only append)."""
        record = data.rstrip(b"\n")
        with self._locked(ctx):
            if isinstance(ctx.data, ContainerDataPart):
                ctx.data.reload()
            body = ctx.data.read_at(0, ctx.data.size)
            records = self._records(body)
            if self.stamp:
                record = b"%06d %s" % (self._next_seq(records), record)
            records.append(record)
            if self.max_records is not None and len(records) > self.max_records:
                records = records[-(self.keep_records or self.max_records):]
            new_body = b"\n".join(records) + b"\n"
            ctx.data.truncate(0)
            ctx.data.write_at(0, new_body)
            ctx.data.flush()
        return len(data)

    def on_truncate(self, ctx: SentinelContext, size: int) -> None:
        with self._locked(ctx):
            if isinstance(ctx.data, ContainerDataPart):
                ctx.data.reload()
            ctx.data.truncate(size)
            ctx.data.flush()

    def on_read(self, ctx: SentinelContext, offset: int, size: int) -> bytes:
        with self._locked(ctx):
            if isinstance(ctx.data, ContainerDataPart):
                ctx.data.reload()
            return ctx.data.read_at(offset, size)

    def on_size(self, ctx: SentinelContext) -> int:
        with self._locked(ctx):
            if isinstance(ctx.data, ContainerDataPart):
                ctx.data.reload()
            return ctx.data.size

    def on_control(self, ctx: SentinelContext, op, args, payload):
        if op == "compact":
            keep = int(args.get("keep", self.keep_records or 0))
            with self._locked(ctx):
                if isinstance(ctx.data, ContainerDataPart):
                    ctx.data.reload()
                records = self._records(ctx.data.read_at(0, ctx.data.size))
                dropped = max(0, len(records) - keep)
                kept = records[-keep:] if keep else []
                body = b"\n".join(kept) + b"\n" if kept else b""
                ctx.data.truncate(0)
                if body:
                    ctx.data.write_at(0, body)
                ctx.data.flush()
            return {"dropped": dropped, "kept": len(kept)}, b""
        if op == "stats":
            with self._locked(ctx):
                if isinstance(ctx.data, ContainerDataPart):
                    ctx.data.reload()
                records = self._records(ctx.data.read_at(0, ctx.data.size))
            return {"records": len(records), "bytes": ctx.data.size}, b""
        return super().on_control(ctx, op, args, payload)
