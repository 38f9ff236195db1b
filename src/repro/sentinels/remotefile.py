"""Seamless remote-file proxy sentinel (paper §3, "Aggregation").

"An example of active-file based aggregation is seamless access to
remote files that are not accessible via network-mapped shares.  The
sentinel accesses the remote file using a standard protocol (e.g., FTP
or HTTP), creates a local copy, and makes the copy available to the
client application ... Similar transparent access to remote files can
also be provided without ever making a local copy.  The sentinel
directly reads data from and writes data to a network connection."

The three cache configurations are the critical paths of Figure 5:

* ``cache="none"``  — every operation is a remote exchange (path 1);
* ``cache="disk"``  — the data part holds the cached blocks (path 2);
* ``cache="memory"`` — a private in-memory block store (path 3).

Consistency: with ``validate=True`` the sentinel stats the origin
before each read and drops the cache when the remote version moved —
"the cache can be kept consistent with any updates performed to its
contents at any of the remote sources."
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from repro.core import policy
from repro.core.cache import CACHE_PATHS, BlockCache
from repro.core.datapart import MemoryDataPart
from repro.core.policy import Deadline, RetryPolicy
from repro.core.sentinel import Sentinel, SentinelContext
from repro.core.telemetry import TELEMETRY
from repro.errors import (
    AddressError,
    DeadlineExceededError,
    FlushError,
    NetworkError,
    RemoteFileNotFound,
    SentinelError,
    ServiceError,
)

if TYPE_CHECKING:
    from repro.net.message import Response

__all__ = ["RemoteFileSentinel", "FileServerOrigin", "HttpOrigin", "FtpOrigin"]


class FileServerOrigin:
    """Adapter for :class:`repro.net.FileServer` (ranged native protocol)."""

    def __init__(self, ctx: SentinelContext, params: dict[str, Any]) -> None:
        self._connection = ctx.connect(str(params["address"]))
        self.path = str(params["path"])

    def read(self, offset: int, size: int,
             deadline: "Deadline | None" = None) -> bytes:
        response = self._connection.expect("read", path=self.path,
                                           offset=offset, size=size,
                                           deadline=deadline)
        return response.payload

    def read_window(self, offset: int, size: int,
                    deadline: "Deadline | None" = None):
        """Start one ranged read; returns a resolver for its bytes.

        On the bridge (sentinel child) the request is genuinely in
        flight when this returns — the cache's prefetch windows overlap
        with whatever the application does next.  Resolving waits at
        most until *deadline*.
        """
        resolve = self._connection.call_async("read", path=self.path,
                                              offset=offset, size=size,
                                              deadline=deadline)

        def result() -> bytes:
            response = resolve()
            if not response.ok:
                raise RemoteFileNotFound(response.error)
            return response.payload
        return result

    def write(self, offset: int, data: bytes,
              deadline: "Deadline | None" = None) -> int:
        response = self._connection.expect("write", data, path=self.path,
                                           offset=offset, deadline=deadline)
        return int(response.fields["written"])

    def write_extents(self, extents: list[tuple[int, bytes]],
                      deadline: "Deadline | None" = None) -> list[int]:
        """Vectored push: one ``writev`` exchange for the whole batch."""
        response = self._connection.expect(
            "writev", b"".join(bytes(data) for _, data in extents),
            path=self.path,
            extents=[[int(offset), len(data)] for offset, data in extents],
            deadline=deadline)
        return [int(n) for n in response.fields["written"]]

    def stat(self, deadline: "Deadline | None" = None) -> tuple[int, Any]:
        response = self._connection.call("stat", path=self.path,
                                         deadline=deadline)
        if not response.ok:
            raise RemoteFileNotFound(response.error)
        return int(response.fields["size"]), response.fields["version"]

    def truncate(self, size: int, deadline: "Deadline | None" = None) -> None:
        self._connection.expect("truncate", path=self.path, size=size,
                                deadline=deadline)


def _splice(current: Response, offset: int, data: bytes) -> bytes:
    """A whole entity with *data* written at *offset*.

    *current* is the read of the entity as it stands; a refused read
    counts as an empty one.  A gap before *offset* is zero-filled.
    """
    body = bytearray(current.payload if current.ok else b"")
    if offset > len(body):
        body.extend(bytes(offset - len(body)))
    body[offset:offset + len(data)] = data
    return bytes(body)


class HttpOrigin:
    """Adapter for :class:`repro.net.HttpServer` (range GET, whole PUT)."""

    def __init__(self, ctx: SentinelContext, params: dict[str, Any]) -> None:
        self._connection = ctx.connect(str(params["address"]))
        self.path = str(params["path"])

    def read(self, offset: int, size: int,
             deadline: "Deadline | None" = None) -> bytes:
        response = self._connection.call("GET", path=self.path,
                                         range_start=offset,
                                         range_end=offset + size,
                                         deadline=deadline)
        if not response.ok:
            raise RemoteFileNotFound(response.error)
        return response.payload

    def write(self, offset: int, data: bytes,
              deadline: "Deadline | None" = None) -> int:
        # HTTP has no ranged PUT: read-modify-write the entity.
        body = _splice(self._connection.call("GET", path=self.path,
                                             deadline=deadline),
                       offset, data)
        self._connection.expect("PUT", body, path=self.path,
                                deadline=deadline)
        return len(data)

    def stat(self, deadline: "Deadline | None" = None) -> tuple[int, Any]:
        response = self._connection.call("HEAD", path=self.path,
                                         deadline=deadline)
        if not response.ok:
            raise RemoteFileNotFound(response.error)
        return int(response.fields["length"]), response.fields["etag"]

    def truncate(self, size: int, deadline: "Deadline | None" = None) -> None:
        response = self._connection.call("GET", path=self.path,
                                         deadline=deadline)
        body = response.payload if response.ok else b""
        body = body[:size].ljust(size, b"\x00")
        self._connection.expect("PUT", body, path=self.path,
                                deadline=deadline)


class FtpOrigin:
    """Adapter for :class:`repro.net.FtpServer` (authenticated sessions)."""

    def __init__(self, ctx: SentinelContext, params: dict[str, Any]) -> None:
        self._connection = ctx.connect(str(params["address"]))
        self.path = str(params["path"])
        response = self._connection.expect(
            "LOGIN",
            user=str(params.get("user", "anonymous")),
            password=str(params.get("password", "")),
        )
        self._session = response.fields["session"]

    def read(self, offset: int, size: int,
             deadline: "Deadline | None" = None) -> bytes:
        response = self._connection.call("RETR", session=self._session,
                                         path=self.path, offset=offset,
                                         size=size, deadline=deadline)
        if not response.ok:
            raise RemoteFileNotFound(response.error)
        return response.payload

    def write(self, offset: int, data: bytes,
              deadline: "Deadline | None" = None) -> int:
        body = _splice(self._connection.call("RETR", session=self._session,
                                             path=self.path,
                                             deadline=deadline),
                       offset, data)
        self._connection.expect("STOR", body, session=self._session,
                                path=self.path, deadline=deadline)
        return len(data)

    def stat(self, deadline: "Deadline | None" = None) -> tuple[int, Any]:
        response = self._connection.call("SIZE", session=self._session,
                                         path=self.path, deadline=deadline)
        if not response.ok:
            raise RemoteFileNotFound(response.error)
        # FTP has no cheap version token; use the size as a weak one.
        return int(response.fields["size"]), response.fields["size"]

    def truncate(self, size: int, deadline: "Deadline | None" = None) -> None:
        body = self.read(0, size, deadline).ljust(size, b"\x00")
        self._connection.expect("STOR", body, session=self._session,
                                path=self.path, deadline=deadline)


_ORIGINS = {
    "fileserver": FileServerOrigin,
    "http": HttpOrigin,
    "ftp": FtpOrigin,
}


def _transient(exc: BaseException) -> bool:
    """Is *exc* a failure that retrying (or waiting out) may fix?

    Transport-level network failures — partitions, injected faults,
    bridge loss — are transient; a service that *answered* with an error
    (:class:`ServiceError` and friends) or an unbound address is not.
    """
    return isinstance(exc, NetworkError) \
        and not isinstance(exc, (ServiceError, AddressError))


class RemoteFileSentinel(Sentinel):
    """A local file that is a logical proxy for one remote file.

    Params: ``address`` (service address string), ``path`` (remote
    path), ``protocol`` ("fileserver" | "http" | "ftp", default
    "fileserver"), ``cache`` ("none" | "disk" | "memory", default
    "none"), ``block_size`` (default 4096), ``max_blocks`` (optional
    LRU bound), ``readahead`` (max prefetch window in blocks, 0 = off;
    each read-ahead origin exchange fetches one window, and up to two
    windows run ahead of the reader),
    ``writeback`` (buffer writes and push coalesced extents; default
    False, i.e. paper-faithful write-through), ``writeback_bytes``
    (dirty-byte auto-flush threshold), ``validate`` (bool: revalidate
    version before reads), ``user``/``password`` (ftp).

    Fault-tolerance params: ``op_timeout`` (seconds of deadline budget
    per origin operation), ``retries`` (attempts per origin exchange for
    transient network failures), ``retry_seed`` (seeds the backoff
    jitter — deterministic schedules for tests), ``stale_reads`` (serve
    already-cached bytes during a partition instead of failing
    revalidation), ``queue_writes`` (implies ``writeback``; transient
    flush failures keep the bytes buffered and re-flush with backoff
    once the origin heals — close still surfaces a typed
    :class:`FlushError` if they never made it).
    """

    def __init__(self, params=None) -> None:
        super().__init__(params)
        for required in ("address", "path"):
            if required not in self.params:
                raise SentinelError(f"remote-file sentinel requires {required!r}")
        protocol = str(self.params.get("protocol", "fileserver"))
        if protocol not in _ORIGINS:
            raise SentinelError(f"unknown protocol {protocol!r}; "
                                f"known: {sorted(_ORIGINS)}")
        self.protocol = protocol
        cache = str(self.params.get("cache", "none"))
        if cache not in CACHE_PATHS:
            raise SentinelError(f"unknown cache path {cache!r}; "
                                f"known: {CACHE_PATHS}")
        self.cache_path = cache
        self.block_size = int(self.params.get("block_size", 4096))
        max_blocks = self.params.get("max_blocks")
        self.max_blocks = None if max_blocks is None else int(max_blocks)
        self.readahead = int(self.params.get("readahead", 0))
        self.queue_writes = bool(self.params.get("queue_writes", False))
        self.writeback = bool(self.params.get("writeback", False)) \
            or self.queue_writes
        self.writeback_bytes = int(self.params.get("writeback_bytes",
                                                   256 * 1024))
        if cache == "none" and (self.readahead or self.writeback):
            raise SentinelError(
                "readahead/writeback require a cache path "
                "(cache='disk' or cache='memory', not 'none')")
        self.validate = bool(self.params.get("validate", False))
        self.coherent = bool(self.params.get("coherent", False))
        if self.coherent and cache == "none":
            raise SentinelError(
                "coherent mode needs a cache to keep leased bytes in "
                "(cache='disk' or cache='memory', not 'none')")
        self.op_timeout = float(self.params.get("op_timeout",
                                                policy.DEFAULT_OP_TIMEOUT))
        self.stale_reads = bool(self.params.get("stale_reads", False))
        #: Whether anything reads the origin version and size a push
        #: leaves behind: revalidation (``validate``, ``coherent``) and
        #: the coherent publish read the version, the leased size and
        #: the ``stale_reads`` fallback read the size.
        self._tracks_version = self.validate or self.coherent \
            or self.stale_reads
        retry_seed = self.params.get("retry_seed")
        self.retry = RetryPolicy(
            attempts=int(self.params.get("retries", 3)),
            seed=None if retry_seed is None else int(retry_seed))
        self._origin = None
        self._cache: BlockCache | None = None
        self._last_version: Any = None
        self._last_size: int | None = None
        #: Coherence-domain wiring (``coherent=True`` on a domain-backed
        #: strategy): the domain and this open's member id.
        self._domain = None
        self._member: int | None = None
        self._op_deadline: Deadline | None = None
        #: Next opportunistic re-flush time for queued writes (monotonic).
        self._queue_retry_at = 0.0
        self._queue_backoff = self.retry.base_delay

    # -- wiring ---------------------------------------------------------------------

    def on_open(self, ctx: SentinelContext) -> None:
        self._origin = _ORIGINS[self.protocol](ctx, self.params)
        if self.cache_path == "none":
            return
        if self.coherent:
            # Join the container's consistency domain.  Degrades
            # gracefully: a strategy without a domain (the simple
            # process strategy) serves this open like validate=True.
            self._domain = ctx.coherence
        store = ctx.data if self.cache_path == "disk" else MemoryDataPart()
        self._cache = BlockCache(
            fetch=self._fetch, push=self._push,
            store=store, block_size=self.block_size,
            max_blocks=self.max_blocks,
            readahead=self.readahead, writeback=self.writeback,
            writeback_bytes=self.writeback_bytes,
            fetch_window=self._fetch_window
            if getattr(self._origin, "read_window", None) is not None
            else None,
            push_extents=self._push_extents,
            coherence=self._domain,
        )
        if self._domain is not None:
            self._member = self._domain.register(
                invalidate=self._peer_invalidated,
                install=self._install_published)
            # The base dispatcher releases this membership at close.
            self._fanout_member_id = self._member
        self._refresh_version()
        if self._member is not None and self._last_version is not None:
            # The opening stat doubles as the first revalidation: reads
            # are origin-free until a peer write revokes the lease.
            self._domain.grant(self._member)

    # -- coherence-domain callbacks (run on the publisher's thread) -------------------

    def _install_published(self, offset: int, data: bytes,
                           total: "int | None", version: Any) -> None:
        """A peer published bytes: land them in this open's cache so the
        read lease survives the remote write."""
        if self._cache is not None:
            self._cache.install_published(offset, data, total_size=total)
        if version is not None:
            self._last_version = version
        if total is not None:
            self._last_size = int(total)

    def _peer_invalidated(self, offset: "int | None",
                          size: "int | None") -> None:
        """A peer invalidated without shipping bytes (e.g. truncate)."""
        if self._cache is not None:
            if offset is None:
                self._cache.invalidate()
            else:
                self._cache.invalidate(offset, size)

    # -- retried origin exchanges -----------------------------------------------------

    def _deadline(self) -> Deadline:
        """The serving command's remaining budget (``op_timeout`` when
        the command carried none)."""
        return Deadline.coerce(self._op_deadline, self.op_timeout)

    def _remote(self, fn):
        """Run one origin exchange under the retry policy and deadline.

        *fn* takes the deadline, and every attempt waits on the origin
        (across the bridge too) at most until it: a lost bridge frame
        costs the command its own budget, not the bridge's.  Transient
        network failures (partitions, dropped bridges) retry with
        seeded backoff inside that budget; service-level rejections
        surface immediately.
        """
        deadline = self._deadline()
        return self.retry.run(lambda: fn(deadline), retryable=_transient,
                              deadline=deadline, on_retry=self._note_retry)

    @staticmethod
    def _note_retry(exc: BaseException, delay: float) -> None:
        """Stamp a traced command's span tree with each origin retry."""
        if TELEMETRY.tracing and TELEMETRY.current() is not None:
            TELEMETRY.event("origin.retry", attrs={
                "cause": "transient", "error": type(exc).__name__,
                "backoff_s": round(delay, 4)})

    def _fetch(self, offset: int, size: int) -> bytes:
        """Cache miss path: a retried ranged origin read."""
        return self._remote(
            lambda deadline: self._origin.read(offset, size, deadline))

    def _fetch_window(self, offset: int, size: int):
        """Prefetch path: async origin read, degrading to a retried
        synchronous one if the in-flight exchange fails transiently or
        its reply is not back by the issuing command's deadline (the
        window may be consumed by a later command, whose own budget
        then bounds the re-read)."""
        resolve = self._origin.read_window(offset, size, self._deadline())

        def result() -> bytes:
            try:
                return resolve()
            except DeadlineExceededError:
                pass  # the reply was lost or is late
            except NetworkError as exc:
                if not _transient(exc):
                    raise
            return self._fetch(offset, size)
        return result

    def _refresh_version(self) -> None:
        try:
            size, self._last_version = self._remote(self._origin.stat)
            self._last_size = size
        except RemoteFileNotFound:
            self._last_version = None
        except NetworkError as exc:
            # A push succeeded but the follow-up stat could not reach the
            # origin: keep the previous version token rather than failing
            # an operation whose real work already happened.
            if not _transient(exc):
                raise

    def _push(self, offset: int, data: bytes) -> int:
        """Write-through push: one origin write, then track its version.

        Refreshing here (not in on_write) keeps the version current for
        *every* path that touches the origin, including flush-on-evict.
        The refresh costs an origin ``stat``, so it runs only when
        something reads its result (:attr:`_tracks_version`).
        """
        written = self._remote(
            lambda deadline: self._origin.write(offset, data, deadline))
        if self._tracks_version:
            self._refresh_version()
        return written

    def _push_extents(self, extents) -> None:
        """Coalesced flush: vectored when the origin protocol has one."""
        vectored = getattr(self._origin, "write_extents", None)
        if vectored is not None:
            self._remote(lambda deadline: vectored(extents, deadline))
        else:
            for offset, data in extents:
                self._remote(lambda deadline, o=offset, d=data:
                             self._origin.write(o, d, deadline))
        if self._tracks_version:
            self._refresh_version()

    def _revalidate(self) -> None:
        if self._cache is None:
            return
        leased = self._member is not None
        if leased:
            # Leased read path: while this open's lease is valid, reads
            # cost ZERO origin round trips — peer writes either
            # push-install their bytes (lease survives) or revoke the
            # lease, in which case the next read re-stats the origin.
            if self._domain.lease_valid(self._member):
                return
        elif not self.validate:
            return
        try:
            size, version = self._remote(self._origin.stat)
        except RemoteFileNotFound:
            size, version = None, None
        except NetworkError as exc:
            if self.stale_reads and _transient(exc):
                # Partition tolerance, opt-in: the origin is unreachable
                # but the cached bytes are intact — serve them stale
                # (and grant no lease) rather than failing the read.
                return
            raise
        if version != self._last_version:
            self._cache.invalidate()
            self._last_version = version
        if leased:
            if size is not None:
                self._last_size = size
            self._domain.grant(self._member)

    # -- graceful degradation ----------------------------------------------------------

    def _enter(self, ctx: SentinelContext) -> None:
        """Per-command entry: inherit the caller's deadline budget and
        opportunistically re-flush writes queued behind a partition."""
        self._op_deadline = getattr(ctx, "deadline", None)
        self._maybe_flush_queued()

    def _queue_flush_failed(self) -> None:
        """Push the next opportunistic re-flush out with backoff."""
        self._queue_backoff = min(self._queue_backoff * self.retry.multiplier,
                                  self.retry.max_delay)
        self._queue_retry_at = time.monotonic() + self._queue_backoff

    def _maybe_flush_queued(self) -> None:
        """Retry queued writes once the backoff window has elapsed.

        Called on every command, so a healed partition drains the queue
        from whatever the application does next — no timer thread.
        """
        if not self.queue_writes or self._cache is None:
            return
        if self._cache.dirty_bytes == 0 \
                or time.monotonic() < self._queue_retry_at:
            return
        try:
            self._cache.flush()
        except NetworkError as exc:
            if not _transient(exc):
                raise
            self._queue_flush_failed()
        else:
            self._queue_backoff = self.retry.base_delay

    # -- sentinel interface ------------------------------------------------------------

    def on_read(self, ctx: SentinelContext, offset: int, size: int) -> bytes:
        self._enter(ctx)
        if self._cache is None:
            return self._fetch(offset, size)
        self._revalidate()
        return self._cache.read(offset, size)

    def on_read_into(self, ctx: SentinelContext, offset: int, size: int,
                     buffer: memoryview) -> int:
        """Cache-hit reads land straight in the offered (shm) buffer."""
        self._enter(ctx)
        if self._cache is None:
            data = self._fetch(offset, size)
            buffer[:len(data)] = data
            return len(data)
        self._revalidate()
        return self._cache.read_into(offset, buffer[:size])

    def on_write(self, ctx: SentinelContext, offset: int, data: bytes) -> int:
        self._enter(ctx)
        if self._cache is None:
            return self._push(offset, data)
        if self._member is not None:
            # Serialize conflicting writes per extent across the domain,
            # then push-install the bytes into every peer cache so their
            # leases survive this write instead of being revoked.
            with self._domain.write_fence(self._member, offset, len(data)):
                written = self._cache.write(offset, data)
                self._domain.publish(self._member, offset, bytes(data),
                                     total=self._last_size,
                                     version=self._last_version)
                return written
        # Write-through pushes refresh the version via _push; buffered
        # write-behind writes leave the origin (and version) untouched
        # until the coalesced flush.
        try:
            return self._cache.write(offset, data)
        except NetworkError as exc:
            if self.queue_writes and _transient(exc):
                # The bytes are buffered locally and still marked dirty
                # (the cache re-marks on flush failure); they will be
                # re-pushed once the origin heals.
                self._queue_flush_failed()
                return len(data)
            raise

    def on_size(self, ctx: SentinelContext) -> int:
        self._enter(ctx)
        if self._member is not None and self._last_size is not None \
                and self._domain.lease_valid(self._member):
            # Leased size: peer writes keep _last_size current through
            # the install callback, so no origin stat is needed.
            size = self._last_size
            if self._cache is not None:
                size = max(size, self._cache.dirty_end)
            return size
        try:
            size, _ = self._remote(self._origin.stat)
            self._last_size = size
        except NetworkError as exc:
            if not (self.stale_reads and _transient(exc)
                    and self._last_size is not None):
                raise
            size = self._last_size  # partition: last-known origin size
        if self._cache is not None:
            # Buffered writes may extend the file past what the origin
            # has seen; the logical size includes them.
            size = max(size, self._cache.dirty_end)
        return size

    def on_truncate(self, ctx: SentinelContext, size: int) -> None:
        self._enter(ctx)
        if self._cache is not None:
            # Flush first: dirty bytes surviving past the truncate would
            # re-extend the file at the next flush.
            self._cache.flush()
        self._remote(
            lambda deadline: self._origin.truncate(size, deadline))
        if self._cache is not None:
            self._cache.invalidate()
            self._refresh_version()
        if self._member is not None:
            # No bytes to ship — peers must drop their windows and
            # re-stat the origin on their next read.
            self._domain.invalidate_peers(self._member)

    def on_flush(self, ctx: SentinelContext) -> None:
        self._enter(ctx)
        if self._cache is not None:
            try:
                self._cache.flush()
            except NetworkError as exc:
                if not (self.queue_writes and _transient(exc)):
                    raise
                # Opt-in degradation: the bytes stay buffered (and
                # dirty); they re-flush with backoff once the origin
                # heals.  Close still refuses to lose them.
                self._queue_flush_failed()
        super().on_flush(ctx)

    def on_close(self, ctx: SentinelContext) -> None:
        # Push any remaining dirty bytes; a failure here propagates as a
        # typed error reporting exactly the unflushed state — queued or
        # not, buffered writes never silently vanish.
        self._enter(ctx)
        if self._cache is not None:
            try:
                self._cache.flush()
            except NetworkError as exc:
                if not _transient(exc):
                    raise
                raise FlushError(
                    f"origin unreachable at close with "
                    f"{self._cache.dirty_bytes} buffered bytes unflushed"
                ) from exc

    def on_control(self, ctx: SentinelContext, op, args, payload):
        if op == "invalidate":
            if self._cache is not None:
                self._cache.invalidate()
            return {"invalidated": self._cache is not None}, b""
        # The canonical spelling only: the dispatcher folds the legacy
        # "cache_stats" alias before this handler ever sees the op.
        if op == "cache-stats":
            if self._cache is None:
                return {"cache": "none"}, b""
            return {"cache": self.cache_path, **self._cache.stats()}, b""
        if op == "coherence-stats":
            # Domain counters live wherever the sentinel runs (the host
            # child for process strategies); this op hauls them back to
            # the application for benchmarks and tests.
            if self._domain is None:
                return {"coherent": False}, b""
            return {"coherent": True, "member": self._member,
                    **self._domain.stats()}, b""
        return super().on_control(ctx, op, args, payload)
