"""Shared helpers for the strategy implementations.

The command vocabulary every channel strategy speaks
(:class:`CommandSession`), and the supervised transport of the
strategies whose sentinel lives behind a pooled host connection
(:class:`ChannelSession`).
"""

from __future__ import annotations

from typing import Any

from repro.core import policy
from repro.core import shm as shmplane
from repro.core.control import raise_for_response
from repro.core.policy import Deadline
from repro.core.strategies.base import Session
from repro.core.telemetry import TELEMETRY
from repro.errors import (
    ChannelClosedError,
    DeadlineExceededError,
    FlushError,
    HostOverloadedError,
    SentinelCrashError,
    ShmError,
)

__all__ = ["overload_backoff", "CommandSession", "ChannelSession",
           "IDEMPOTENT_CMDS"]

#: Commands safe to re-issue after a crash or a lost frame: every one is
#: expressed in absolute offsets (or touches no state), so executing it
#: twice — or against a freshly respawned sentinel after the journal is
#: replayed — is observationally equal to executing it once.  ``rstream``
#: and ``wstream`` carry implicit cursor state and are excluded;
#: ``control`` ops have sentinel-defined semantics and are excluded;
#: ``close`` runs lifecycle hooks and is handled specially.
IDEMPOTENT_CMDS = frozenset({"read", "readv", "write", "writev", "size",
                             "truncate", "flush", "ping"})

#: Failures meaning "the transport under this session died".
_TRANSPORT_FAILURES = (ChannelClosedError, SentinelCrashError, OSError,
                       ValueError)


def overload_backoff(deadline: Deadline, cmd: str) -> None:
    """Wait out an admission fast-reject before re-submitting *cmd*.

    The host never queued or executed the op, so a retry is safe for
    *every* command, not just the idempotent set: back off briefly,
    within *deadline* (raising once it has passed).
    """
    deadline.check(f"{cmd!r} on an overloaded host")
    deadline.sleep(policy.OVERLOAD_RETRY_S)


class CommandSession(Session):
    """The command vocabulary of the control channel (paper §4.2).

    Every file operation becomes one or more ``(fields, payload)``
    commands — ``read``, ``write``, ``readv``, ``size`` and the rest —
    sent through :meth:`_op`.  This class is the single client of that
    vocabulary; a subclass supplies only the transport by implementing
    :meth:`_op`: the supervised host lease of :class:`ChannelSession`
    (process-plus-control), the in-process loopback channel of the
    thread strategy, or the in-place dispatcher call of the DLL-only
    strategy.
    """

    #: Transfers larger than this are split into several commands:
    #: payloads travel one frame each, and the frame codec caps bodies
    #: at 16 MiB.
    READ_CHUNK = 4 * 1024 * 1024
    WRITE_CHUNK = 4 * 1024 * 1024

    #: A vectored batch is split so one exchange never exceeds this
    #: many payload bytes.
    VECTOR_CHUNK = 4 * 1024 * 1024

    def _op(self, fields: dict[str, Any], payload: Any = b""
            ) -> tuple[dict[str, Any], bytes]:
        """One command round trip; raises the reply's typed error."""
        raise NotImplementedError

    # -- data plane ---------------------------------------------------------------

    def read_at(self, offset: int, size: int) -> bytes:
        pieces: list[bytes] = []
        remaining = size
        position = offset
        while remaining > 0:
            step = min(remaining, self.READ_CHUNK)
            _, payload = self._op({"cmd": "read", "offset": position,
                                   "size": step})
            pieces.append(payload)
            position += len(payload)
            remaining -= step
            if len(payload) < step:
                break  # sentinel reported EOF
        return b"".join(pieces)

    def write_at(self, offset: int, data: bytes) -> int:
        if len(data) <= self.WRITE_CHUNK:
            fields, _ = self._op({"cmd": "write", "offset": offset}, data)
            return int(fields["written"])
        view = memoryview(data)
        total = 0
        while total < len(data):
            chunk = view[total:total + self.WRITE_CHUNK]
            fields, _ = self._op({"cmd": "write", "offset": offset + total},
                                 chunk)
            written = int(fields["written"])
            total += written
            if written < len(chunk):
                break  # sentinel accepted a partial write
        return total

    def size(self) -> int:
        fields, _ = self._op({"cmd": "size"})
        return int(fields["size"])

    def truncate(self, size: int) -> None:
        self._op({"cmd": "truncate", "size": size})

    def flush(self) -> None:
        self._op({"cmd": "flush"})

    def control(self, op: str, args: dict[str, Any] | None = None,
                payload: bytes = b"") -> tuple[dict[str, Any], bytes]:
        fields, out_payload = self._op(
            {"cmd": "control", "op": op, "args": args or {}}, payload
        )
        fields.pop("ok", None)
        return fields, out_payload

    # -- vectored plane ------------------------------------------------------------

    def read_multi(self, extents: list[tuple[int, int]]) -> list[bytes]:
        """Fetch many extents per exchange with the ``readv`` command."""
        out: list[bytes] = []
        batch: list[list[int]] = []
        pending = 0

        def drain() -> None:
            nonlocal pending
            if not batch:
                return
            fields, payload = self._op({"cmd": "readv", "extents": batch})
            sizes = fields["sizes"]
            if len(sizes) == 1:
                out.append(payload)  # the payload IS the extent: no copy
            else:
                view = memoryview(payload)
                cursor = 0
                for n in sizes:
                    out.append(bytes(view[cursor:cursor + int(n)]))
                    cursor += int(n)
            batch.clear()
            pending = 0

        for offset, size in extents:
            size = int(size)
            if size > self.VECTOR_CHUNK:
                drain()
                out.append(self.read_at(int(offset), size))
                continue
            if pending + size > self.VECTOR_CHUNK:
                drain()
            batch.append([int(offset), size])
            pending += size
        drain()
        return out

    def write_extents(self, extents: list[tuple[int, bytes]]) -> list[int]:
        """Push many extents per exchange with the ``writev`` command.

        The extents' buffers are gathered straight onto the wire (each
        is its own frame part) — a coalesced write-behind flush costs
        one exchange and zero client-side concatenation.
        """
        out: list[int] = []
        batch: list[tuple[int, Any]] = []
        pending = 0

        def drain() -> None:
            nonlocal pending
            if not batch:
                return
            fields, _ = self._op(
                {"cmd": "writev",
                 "extents": [[offset, len(data)] for offset, data in batch]},
                tuple(data for _, data in batch))
            out.extend(int(n) for n in fields["written"])
            batch.clear()
            pending = 0

        for offset, data in extents:
            if len(data) > self.VECTOR_CHUNK:
                drain()
                out.append(self.write_at(int(offset), data))
                continue
            if pending + len(data) > self.VECTOR_CHUNK:
                drain()
            batch.append((int(offset), data))
            pending += len(data)
        drain()
        return out

    # -- fan-out plane -------------------------------------------------------------

    def publish(self, offset: int, data: bytes,
                meta: "dict[str, Any] | None" = None) -> tuple[int, int]:
        """Write *data* and fan it out to every peer open/subscriber.

        Returns ``(written, seq)``.  Not idempotent (a replayed publish
        would double-deliver to subscriber queues), so it is deliberately
        outside the supervised-retry command set.
        """
        fields, _ = self._op({"cmd": "publish", "offset": int(offset),
                              "meta": meta or {}}, bytes(data))
        return int(fields["written"]), int(fields["seq"])

    def subscribe(self, max_pending: int | None = None) -> int:
        """Open a bounded update queue on the coherence domain."""
        args: dict[str, Any] = {}
        if max_pending is not None:
            args["max_pending"] = int(max_pending)
        fields, _ = self._op({"cmd": "subscribe", "args": args})
        return int(fields["sub"])

    def poll(self, sub: int, max_items: int = 64) -> list[dict[str, Any]]:
        """Drain pending update records (oldest first) for *sub*."""
        fields, _ = self._op({"cmd": "poll",
                              "args": {"sub": int(sub),
                                       "max_items": int(max_items)}})
        return list(fields.get("updates") or [])

    def unsubscribe(self, sub: int) -> None:
        self._op({"cmd": "unsubscribe", "args": {"sub": int(sub)}})


class ChannelSession(Session):
    """Transport for sessions that drive one logical channel on a host lease.

    It supplies the supervised :meth:`_op`, shared-memory staging, the
    write journal and :meth:`close`; the command vocabulary itself comes
    from :class:`CommandSession` (process-plus-control) or, for the
    simple process strategy, is the stream plane alone.

    Operations are *pipelinable*: there is deliberately no per-session
    operation lock.  Ordering within the session is guaranteed by the
    host's per-channel worker; operations from distinct sessions of the
    same container interleave freely over the shared connection.

    **Supervision.**  Every operation runs under a
    :class:`~repro.core.policy.Deadline` split into per-wire attempts:
    a lost frame is detected after
    :data:`~repro.core.policy.ATTEMPT_TIMEOUT` and the (idempotent)
    request re-sent.  A host crash triggers transparent recovery: the
    lease respawns onto a fresh host, the session's **write journal** —
    every acknowledged mutation, recorded by reference — is replayed so
    the new sentinel instance observes the same mutation history, and
    the failed operation retries.  Sessions whose containers declare
    ``meta={"supervise": False}``, non-idempotent commands, and sessions
    whose journal outgrew :data:`~repro.core.policy.JOURNAL_LIMIT_BYTES`
    surface the crash instead — recovery must never silently lose
    writes.
    """

    #: Backoff schedule for crash-respawn-retry cycles.
    RETRY = policy.RetryPolicy()

    #: Commands whose bulk bytes may ride the host's shared-memory
    #: segment instead of the pipe.  Empty by default: only sessions
    #: whose commands are expressed in absolute offsets (no cursor
    #: state) opt in, and only for commands that are idempotent — a
    #: shm-rejected attempt is retried inline.
    SHM_CMDS: frozenset = frozenset()

    def __init__(self, lease) -> None:
        self._lease = lease
        self._closed = False
        #: Acknowledged mutations, for replay against a respawned host.
        self._journal: list[tuple[dict[str, Any], Any]] = []
        self._journal_bytes = 0
        self._journal_poisoned = False

    @property
    def host(self):
        """The pooled :class:`~repro.core.runner.SentinelHost` serving us."""
        return self._lease.host

    @property
    def channel(self):
        return self._lease.channel

    @property
    def counters(self):
        """Shared transport counters of the host connection."""
        return self._lease.channel.counters

    def _op(self, fields: dict[str, Any], payload: Any = b"",
            timeout: "float | Deadline | None" = None,
            into: "memoryview | None" = None
            ) -> tuple[dict[str, Any], bytes]:
        """One supervised command round trip.

        Retries lost frames and crashed hosts for idempotent commands
        within the operation's deadline; unrecoverable failures surface
        as a typed :class:`SentinelCrashError`.

        Eligible bulk payloads (see :attr:`SHM_CMDS`) travel through
        the host's shared-memory segment: the wire frame carries a slot
        descriptor instead of the bytes.  Substitution is per-attempt —
        the journal records the original inline form, and any shm-layer
        rejection (stale generation, corrupt slot, unattached peer)
        falls back to an inline retry, trading speed, never
        correctness.  With *into*, a reply payload lands directly in
        the caller's buffer (``reply["sl"]`` carries the byte count and
        the returned payload is empty).
        """
        deadline = Deadline.coerce(timeout, policy.DEFAULT_OP_TIMEOUT)
        cmd = str(fields.get("cmd") or "")
        recoverable = (cmd in IDEMPOTENT_CMDS and self._lease.supervised
                       and not self._journal_poisoned)
        delays = self.RETRY.delays()
        attempt = 0
        use_shm = cmd in self.SHM_CMDS
        while True:
            attempt += 1
            span = None
            if TELEMETRY.tracing and TELEMETRY.current() is not None:
                attrs: dict[str, Any] = {"attempt": attempt}
                if attempt > 1:
                    attrs["cause"] = "retry"
                span = TELEMETRY.begin(f"op.{cmd}", attrs=attrs, push=True)
            status = "error"
            plane = send_lease = reply_lease = None
            try:
                wire_fields, wire_payload = fields, payload
                if use_shm:
                    plane = self._shm_plane()
                    if plane is not None:
                        (wire_fields, wire_payload, send_lease,
                         reply_lease) = self._shm_stage(
                            plane, cmd, fields, payload, into)
                try:
                    try:
                        reply, out_payload = self._lease.request(
                            wire_fields, wire_payload,
                            timeout=deadline.capped(policy.ATTEMPT_TIMEOUT))
                    except DeadlineExceededError:
                        # Attempt expired: the rid is withdrawn, so a
                        # straggler reply is ignored and a re-send is safe.
                        # Any slots of the attempt stay parked until a
                        # later reply on this channel proves (per-chan
                        # FIFO) the straggler is done with them.
                        if plane is not None:
                            plane.park(self._lease.chan,
                                       send_lease, reply_lease)
                            send_lease = reply_lease = None
                        deadline.check(f"{cmd!r} on {self.strategy} session")
                        if not recoverable:
                            raise
                        status = "timeout"
                        continue
                except _TRANSPORT_FAILURES as exc:
                    # A dead host takes its segment (and every lease on
                    # it) down with it; nothing to release.
                    send_lease = reply_lease = None
                    crash = exc if isinstance(exc, SentinelCrashError) \
                        else self._lease.crash_error(exc)
                    if not recoverable:
                        raise crash from exc
                    status = "crashed"
                    # Recovery runs inside the failed attempt's span, so
                    # the respawn (and its journal replay) appear as its
                    # children in the trace.
                    if not self._recover(delays, deadline):
                        raise crash from exc
                    continue
                # A settled reply on this channel proves any parked
                # straggler slots are finished with (per-chan FIFO).
                if plane is not None:
                    plane.settle(self._lease.chan)
                try:
                    raise_for_response(reply)
                    out_payload = self._shm_finish(
                        reply, reply_lease, into, out_payload)
                except DeadlineExceededError:
                    # The host ran out of this attempt's budget (a
                    # bridge wait it bounded by it, say): the same as
                    # the attempt expiring here.
                    deadline.check(f"{cmd!r} on {self.strategy} session")
                    if not recoverable:
                        raise
                    status = "timeout"
                    continue
                except HostOverloadedError:
                    status = "overloaded"
                    overload_backoff(deadline, cmd)
                    continue
                except ShmError:
                    # The slot exchange was rejected (stale generation,
                    # corrupt bytes, unattached peer) — the command did
                    # not take effect.  Retry the attempt inline.
                    use_shm = False
                    shmplane.FALLBACK_INLINE.inc()
                    status = "shm-fallback"
                    continue
                status = "ok"
                self._journal_record(cmd, fields, payload)
                return reply, out_payload
            finally:
                # Runs after any return value is computed, so a reply
                # lease is released only once its bytes are copied out.
                if plane is not None:
                    plane.release(send_lease)
                    plane.release(reply_lease)
                if span is not None:
                    TELEMETRY.finish(span, status=status)

    # -- shared-memory staging -----------------------------------------------------

    def _shm_plane(self):
        """The host's armed shm plane, or ``None`` (stay inline)."""
        host = getattr(self._lease, "host", None)
        if host is None or not getattr(host, "shm_ready", False):
            return None
        plane = host.shm
        if plane is None or plane.destroyed:
            return None
        return plane

    def _shm_stage(self, plane, cmd: str, fields: dict[str, Any],
                   payload: Any, into: "memoryview | None"):
        """Swap eligible bulk bytes for slot descriptors.

        A payload rides shm exactly when it is at least
        ``SHM_MIN_BYTES``: such request payloads are staged into leased
        slots (``shm`` descriptor replaces the frame body), such replies
        are offered a pre-leased landing slot (``shm_r``).  Returns the
        wire form plus the leases the caller must release/park.  An
        exhausted slab keeps the attempt inline.
        """
        send_lease = reply_lease = None
        wire_fields, wire_payload = fields, payload
        if cmd in ("write", "writev"):
            parts = payload if isinstance(payload, (tuple, list)) \
                else (payload,)
            nbytes = sum(len(p) for p in parts)
            if nbytes >= shmplane.SHM_MIN_BYTES:
                send_lease = plane.lease(nbytes)
                if send_lease is None:
                    shmplane.FALLBACK_INLINE.inc()
                else:
                    desc = send_lease.stage(parts)
                    self._shm_inject_faults(fields, send_lease, staged=True)
                    wire_fields = {**fields, "shm": desc}
                    wire_payload = b""
        else:  # read / readv: offer a landing slot for the reply
            if cmd == "read":
                expect = int(fields.get("size") or 0)
            else:
                expect = sum(int(s) for _, s in (fields.get("extents") or ()))
            if into is not None:
                expect = min(expect, len(into)) if expect else len(into)
            if expect >= shmplane.SHM_MIN_BYTES:
                reply_lease = plane.lease(expect)
                if reply_lease is None:
                    shmplane.FALLBACK_INLINE.inc()
                else:
                    desc = reply_lease.reply_desc()
                    self._shm_inject_faults(fields, reply_lease, staged=False)
                    wire_fields = {**fields, "shm_r": desc}
        return wire_fields, wire_payload, send_lease, reply_lease

    def _shm_inject_faults(self, fields: dict[str, Any], lease,
                           staged: bool) -> None:
        """Apply a scheduled shm fault to *lease* (deterministic tests).

        ``corrupt`` flips a staged byte after the descriptor's CRC was
        computed; ``stale-generation`` bumps the slot's generation so
        the descriptor no longer matches.  Both are applied sender-side
        so a schedule replays identically regardless of host timing.
        """
        faults = getattr(self.channel, "faults", None)
        if faults is None:
            return
        rule = faults.on_shm(fields)
        if rule is None:
            return
        if rule.action == "shm-corrupt" and staged:
            lease.scribble()
        elif rule.action == "shm-stale-generation":
            lease.invalidate()

    def _shm_finish(self, reply: dict[str, Any], reply_lease,
                    into: "memoryview | None", out_payload: bytes) -> bytes:
        """Materialise a reply's bulk bytes, whichever way they came.

        A sealed ``shm`` descriptor in the reply is validated (CRC +
        generation, re-checked after the copy) and drained from the
        slot; raises :class:`ShmError` on mismatch so the caller can
        retry inline.  With *into*, bytes land in the caller's buffer
        and ``reply["sl"]`` reports the count.
        """
        desc = reply.pop("shm", None) if reply_lease is not None else None
        if into is not None:
            if desc is not None:
                count = reply_lease.take_into(
                    into, int(desc[1]), int(desc[3]))
            else:
                count = len(out_payload)
                into[:count] = out_payload
            reply["sl"] = count
            return b""
        if desc is not None:
            return reply_lease.take(int(desc[1]), int(desc[3]))
        return out_payload

    # -- crash recovery ------------------------------------------------------------

    def _recover(self, delays, deadline: Deadline) -> bool:
        """Backoff, respawn the lease, and replay the journal.

        Consumes delays from the retry schedule; returns ``False`` when
        the schedule (or the deadline) is exhausted, telling the caller
        to surface the crash.
        """
        while True:
            delay = next(delays, None)
            if delay is None or deadline.expired():
                return False
            deadline.sleep(delay)
            span = None
            if TELEMETRY.tracing and TELEMETRY.current() is not None:
                span = TELEMETRY.begin(
                    "respawn", attrs={"cause": "crash",
                                      "backoff_s": round(delay, 4)},
                    push=True)
            try:
                self._lease.respawn(deadline)
                self._journal_replay(deadline)
                if span is not None:
                    TELEMETRY.finish(span)
                return True
            except (*_TRANSPORT_FAILURES, DeadlineExceededError):
                if span is not None:
                    TELEMETRY.finish(span, status="error")
                continue  # the replacement died too; try again

    def _journal_record(self, cmd: str, fields: dict[str, Any],
                        payload: Any) -> None:
        """Remember one acknowledged mutation for post-respawn replay.

        Entries are kept by reference — no copies — and the journal is
        bounded: past :data:`~repro.core.policy.JOURNAL_LIMIT_BYTES` it
        poisons itself, which disables transparent respawn (replaying a
        truncated history would silently lose writes) and frees the
        buffered memory.
        """
        if self._journal_poisoned:
            return
        if cmd == "write" or cmd == "writev":
            nbytes = sum(len(p) for p in payload) \
                if isinstance(payload, (tuple, list)) else len(payload)
        elif cmd == "truncate":
            nbytes = 0
        else:
            return
        self._journal.append((fields, payload))
        self._journal_bytes += nbytes
        if self._journal_bytes > policy.JOURNAL_LIMIT_BYTES:
            self._journal_poisoned = True
            self._journal.clear()
            self._journal_bytes = 0

    def _journal_replay(self, deadline: Deadline) -> None:
        """Re-apply the mutation history to a freshly respawned sentinel."""
        if not self._journal:
            return
        if TELEMETRY.tracing and TELEMETRY.current() is not None:
            with TELEMETRY.span("journal.replay",
                                attrs={"ops": len(self._journal)}):
                self._replay_journal_ops(deadline)
        else:
            self._replay_journal_ops(deadline)

    def _replay_journal_ops(self, deadline: Deadline) -> None:
        for fields, payload in self._journal:
            reply, _ = self._lease.request(
                fields, payload,
                timeout=deadline.capped(policy.ATTEMPT_TIMEOUT))
            raise_for_response(reply)

    def close(self) -> None:
        """Close the session without silently losing writes.

        A crash during the close handshake is recoverable when no
        mutation is at risk (clean journal: release quietly, recording
        the close error on the transport counters) or when the journal
        can be replayed onto a respawned host and closed there.  A
        poisoned journal means buffered history was discarded, so the
        failure surfaces as a typed :class:`FlushError`; unsupervised
        sessions surface the crash directly.
        """
        if self._closed:
            return
        self._closed = True
        try:
            try:
                self._op({"cmd": "close"})
                return
            except SentinelCrashError as exc:
                if not self._lease.supervised:
                    raise
                if self._journal_poisoned:
                    raise FlushError(
                        "sentinel crashed at close with an over-limit write "
                        "journal; buffered mutations could not be replayed"
                    ) from exc
                if not self._journal:
                    # Nothing at risk: a clean-read session losing its
                    # close handshake is a non-event.  Record it so the
                    # transport counters keep the evidence.
                    self.counters.record_close_error(
                        f"close handshake lost: {exc}")
                    return
                # Dirty journal: replay it onto a fresh host, then close
                # for real so the mutations reach the data part.
                deadline = Deadline.after(policy.CLOSE_TIMEOUT)
                if not self._recover(self.RETRY.delays(), deadline):
                    raise FlushError(
                        f"sentinel crashed at close with "
                        f"{self._journal_bytes} journaled bytes and could "
                        f"not be respawned to replay them") from exc
                self._op({"cmd": "close"}, timeout=deadline)
        finally:
            self._lease.release()

