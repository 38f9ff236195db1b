"""Command dispatch shared by every strategy.

The paper's §4.2/§5.2 sentinel "typically blocks on a read on the
control channel.  Upon receiving a command from the application, the
thread wakes up and performs the operation".  This module is that
dispatch loop, factored out once: the process-plus-control runner drives
it from pipe frames (encoded), the thread strategy drives it from the
shared-memory channel (raw dicts — no serialization, which is exactly
why that strategy is cheaper), the DLL-only strategy calls it in place
for every op but reads and writes (its ``AF_Control``), and tests drive
it directly.
"""

from __future__ import annotations

from typing import Any

from repro.core import control
from repro.core.policy import Deadline
from repro.core.sentinel import Sentinel, SentinelContext
from repro.errors import ProtocolError

__all__ = ["SentinelDispatcher", "StreamDispatcher",
           "CONTROL_OP_ALIASES", "canonical_control_op"]

#: Historical spellings of control ops, folded to one canonical name
#: before any sentinel sees them.  Sentinels therefore match a single
#: spelling; both forms on the wire hit the same handler.
CONTROL_OP_ALIASES = {
    "cache_stats": "cache-stats",
}


def canonical_control_op(op: str) -> str:
    """The canonical spelling of a (possibly aliased) control op name."""
    return CONTROL_OP_ALIASES.get(op, op)


class SentinelDispatcher:
    """Executes decoded control commands against one sentinel instance."""

    def __init__(self, sentinel: Sentinel, ctx: SentinelContext) -> None:
        self.sentinel = sentinel
        self.ctx = ctx
        self.closed = False

    def open(self) -> None:
        self.sentinel.on_open(self.ctx)

    def execute(self, fields: dict[str, Any], payload: bytes,
                reply_into: memoryview | None = None
                ) -> tuple[dict[str, Any], bytes]:
        """Serve one command; returns (response fields, response payload).

        Sentinel exceptions become failure responses rather than killing
        the dispatch loop — one bad operation must not tear down the
        file.  The caller's remaining deadline budget (the ``dl``
        field, when the command travelled a wire) is published on the
        context so sentinels inherit it for their own remote exchanges.

        *reply_into* (the shared-memory fast path) offers a buffer the
        read commands fill directly; when used, the response fields
        carry ``sl`` (bytes filled) and the returned payload is empty.
        """
        cmd = fields.get("cmd", "")
        budget_ms = fields.get("dl")
        try:
            # Inside the try: a malformed budget fails this op, not the loop.
            self.ctx.deadline = Deadline.from_ms(budget_ms) \
                if budget_ms is not None else None
            return self._execute(cmd, fields, payload, reply_into)
        except Exception as exc:
            return control.error_fields(exc), b""

    def _execute(self, cmd: str, fields: dict[str, Any], payload: bytes,
                 reply_into: memoryview | None = None
                 ) -> tuple[dict[str, Any], bytes]:
        if cmd == "read":
            size = int(fields["size"])
            if reply_into is not None and size <= len(reply_into):
                # Fill the offered (shared-memory) buffer directly: the
                # bytes never exist as an intermediate payload object.
                filled = self.sentinel.on_read_into(
                    self.ctx, int(fields["offset"]), size, reply_into)
                return {"ok": True, "sl": int(filled)}, b""
            data = self.sentinel.on_read(self.ctx,
                                         int(fields["offset"]),
                                         int(fields["size"]))
            return {"ok": True}, data
        if cmd == "write":
            written = self.sentinel.on_write(self.ctx,
                                             int(fields["offset"]), payload)
            return {"ok": True, "written": written}, b""
        if cmd == "readv":
            # Vectored read: one round trip serves many extents.  The
            # reply payload is the extents' data back-to-back; "sizes"
            # tells the caller where each (possibly short) one ends.
            if reply_into is not None:
                cursor = 0
                sizes = []
                for offset, size in fields["extents"]:
                    size = int(size)
                    if cursor + size > len(reply_into):
                        break  # cannot fit: fall back to inline below
                    filled = self.sentinel.on_read_into(
                        self.ctx, int(offset), size,
                        reply_into[cursor:cursor + size])
                    cursor += filled
                    sizes.append(filled)
                else:
                    return {"ok": True, "sizes": sizes,
                            "sl": cursor}, b""
            chunks = []
            sizes = []
            for offset, size in fields["extents"]:
                data = self.sentinel.on_read(self.ctx, int(offset), int(size))
                chunks.append(data)
                sizes.append(len(data))
            return {"ok": True, "sizes": sizes}, b"".join(chunks)
        if cmd == "writev":
            # Vectored write: the payload carries the extents' data
            # back-to-back, split according to the (offset, size) list.
            view = memoryview(payload)
            cursor = 0
            written = []
            for offset, size in fields["extents"]:
                size = int(size)
                chunk = view[cursor:cursor + size]
                cursor += size
                written.append(
                    self.sentinel.on_write(self.ctx, int(offset),
                                           bytes(chunk)))
            return {"ok": True, "written": written}, b""
        if cmd == "size":
            return {"ok": True, "size": self.sentinel.on_size(self.ctx)}, b""
        if cmd == "truncate":
            self.sentinel.on_truncate(self.ctx, int(fields["size"]))
            return {"ok": True}, b""
        if cmd == "flush":
            self.sentinel.on_flush(self.ctx)
            return {"ok": True}, b""
        if cmd == "control":
            out_fields, out_payload = self.sentinel.on_control(
                self.ctx, canonical_control_op(str(fields.get("op", ""))),
                fields.get("args") or {}, payload
            )
            return {"ok": True, **(out_fields or {})}, out_payload
        if cmd == "publish":
            # Fan-out plane: apply the payload as a write and multicast
            # it to every peer open and subscriber of this container's
            # coherence domain.
            out = self.sentinel.on_publish(
                self.ctx, int(fields.get("offset", 0)), payload,
                fields.get("meta") or {})
            return {"ok": True, **(out or {})}, b""
        if cmd == "subscribe":
            out = self.sentinel.on_subscribe(self.ctx,
                                             fields.get("args") or {})
            return {"ok": True, **(out or {})}, b""
        if cmd == "poll":
            out_fields, out_payload = self.sentinel.on_poll(
                self.ctx, fields.get("args") or {})
            return {"ok": True, **(out_fields or {})}, out_payload
        if cmd == "unsubscribe":
            out = self.sentinel.on_unsubscribe(self.ctx,
                                               fields.get("args") or {})
            return {"ok": True, **(out or {})}, b""
        if cmd == "close":
            self.close()
            return {"ok": True}, b""
        raise ProtocolError(f"unknown command {cmd!r}")

    def close(self) -> None:
        """Run close-side lifecycle exactly once."""
        if self.closed:
            return
        self.closed = True
        try:
            self.sentinel.on_close(self.ctx)
        finally:
            try:
                release = getattr(self.sentinel, "_fanout_release", None)
                if release is not None:
                    release(self.ctx)
            finally:
                self.ctx.data.close()


class StreamDispatcher(SentinelDispatcher):
    """The simple process strategy (§4.1) served as channel commands.

    Instead of two free-running pump threads pushing raw bytes through
    dedicated pipes, the sequential planes become a pull protocol over
    the multiplexed transport: ``rstream`` pulls the next chunk of the
    sentinel's generated stream, ``wstream`` feeds the sentinel's
    consumed stream.  Semantics are unchanged — reads are sequential,
    writes are sequential, no random access — but the transport is the
    same framed Channel every other strategy uses.  Failure replies and
    the close lifecycle are the :class:`SentinelDispatcher`'s.
    """

    def __init__(self, sentinel: Sentinel, ctx: SentinelContext) -> None:
        super().__init__(sentinel, ctx)
        self._generator = None
        self._buffer = bytearray()
        self._generated_eof = False
        self._write_offset = 0

    def open(self) -> None:
        super().open()
        self._generator = self.sentinel.generate(self.ctx)

    def _execute(self, cmd: str, fields: dict[str, Any], payload: bytes,
                 reply_into: memoryview | None = None
                 ) -> tuple[dict[str, Any], bytes]:
        # ``reply_into`` is never offered: the stream commands carry
        # cursor state, so they never travel the shared-memory fast
        # path (see strategies/process.py).
        if cmd == "rstream":
            size = int(fields.get("size", 0))
            while len(self._buffer) < size and not self._generated_eof:
                try:
                    self._buffer += next(self._generator)
                except StopIteration:
                    self._generated_eof = True
            chunk = bytes(self._buffer[:size])
            del self._buffer[:size]
            eof = self._generated_eof and not self._buffer
            return {"ok": True, "eof": eof}, chunk
        if cmd == "wstream":
            self._write_offset += self.sentinel.consume(
                self.ctx, payload, self._write_offset)
            return {"ok": True, "written": len(payload)}, b""
        if cmd == "close":
            self.close()
            return {"ok": True}, b""
        raise ProtocolError(f"unknown stream command {cmd!r}")

    def close(self) -> None:
        """Stop the generated stream, then run the close lifecycle."""
        generator, self._generator = self._generator, None
        try:
            if generator is not None:
                generator.close()
        finally:
            super().close()
