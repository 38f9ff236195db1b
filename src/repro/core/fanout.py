"""Per-container coherence domain + pub/sub fan-out plane.

The paper's §2 contract — "multiple sentinels are created, which
synchronize amongst themselves" — previously stopped at a FileLock and a
shared dict.  This module is the synchronization fabric proper: every
open of one container joins a :class:`CoherenceDomain`, which provides

* **read leases** — a member whose lease is valid may serve reads from
  its private cache with *zero* origin round trips; a remote write
  either push-installs the new bytes (lease stays valid) or revokes the
  lease (next read revalidates);
* **write fences** — per-extent serialization, so two writers of
  overlapping ranges never race each other's origin pushes;
* **single-flight fills** — concurrent cache misses for the same window
  from different opens collapse onto one origin fetch;
* **pub/sub fan-out** — one published update is staged once and
  multicast to every subscriber's bounded queue, with slow consumers
  evicted rather than allowed to wedge the publisher.

The domain is process-local by design: the pooled sentinel host runs
every open of a container in one child process, so the host child *is*
the consistency domain for the process strategies, exactly as the
application process is for the thread/inproc strategies.

Telemetry: the ``lease.*`` and ``fanout.*`` counter families mirror the
domain's own integer counters into the process-wide metrics registry,
so evidence bundles (and the doctor's ``fanout-slow-consumer`` /
``lease-invalidation-storm`` checks) see them without new plumbing.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable

from repro.core.telemetry import TELEMETRY
from repro.errors import FanoutError, SubscriberEvictedError

__all__ = ["CoherenceDomain", "domain_for", "DEFAULT_MAX_PENDING"]

#: Default bound of a subscriber's pending-update queue.
DEFAULT_MAX_PENDING = 64

#: Fan-out and lease counters, process-wide (every domain feeds them).
_PUBLISHED = TELEMETRY.metrics.counter("fanout.published")
_DELIVERED = TELEMETRY.metrics.counter("fanout.delivered")
_DROPPED = TELEMETRY.metrics.counter("fanout.dropped")
_EVICTED = TELEMETRY.metrics.counter("fanout.evicted")
_SUBSCRIBERS = TELEMETRY.metrics.gauge("fanout.subscribers")
_GRANTED = TELEMETRY.metrics.counter("lease.granted")
_INVALIDATED = TELEMETRY.metrics.counter("lease.invalidated")
_FILL_COALESCED = TELEMETRY.metrics.counter("lease.fill_coalesced")
_WRITE_WAITS = TELEMETRY.metrics.counter("lease.write_waits")


class _Member:
    """One open's callbacks into its private cache/view."""

    __slots__ = ("invalidate", "install")

    def __init__(self, invalidate: Callable[[Any, Any], None] | None,
                 install: Callable[[int, bytes, Any, Any], None] | None
                 ) -> None:
        self.invalidate = invalidate
        self.install = install


class _Subscriber:
    """A bounded pending-update queue owned by one member."""

    __slots__ = ("member", "max_pending", "queue", "evicted")

    def __init__(self, member: int, max_pending: int) -> None:
        self.member = member
        self.max_pending = max_pending
        self.queue: deque[dict[str, Any]] = deque()
        self.evicted = False


class _FillEntry:
    """One single-flight origin fill, joinable across members.

    The *start* factory (typically ``fetch_window``) is run once by the
    registering member — so exactly one origin request goes out — and
    the resolver it returns is claimed by whichever member demands the
    bytes first.  Joiners wait on that outcome; if the claimer's
    resolver raises, everyone sees the error and the entry is dropped
    so the next miss retries afresh.
    """

    __slots__ = ("epoch", "done", "_ready", "_resolver", "_issue_error",
                 "_event", "_claim", "_data", "_error")

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.done = False
        self._ready = threading.Event()
        self._resolver: Callable[[], bytes] | None = None
        self._issue_error: BaseException | None = None
        self._event = threading.Event()
        self._claim = threading.Lock()
        self._data = b""
        self._error: BaseException | None = None

    def arm(self, resolver: Callable[[], bytes]) -> None:
        self._resolver = resolver
        self._ready.set()

    def poison(self, exc: BaseException) -> None:
        self._issue_error = exc
        self._ready.set()

    def result(self) -> bytes:
        self._ready.wait()
        if self._issue_error is not None:
            raise self._issue_error
        claimed = self._claim.acquire(blocking=False)
        if claimed and not self._event.is_set():
            try:
                self._data = self._resolver()
            except BaseException as exc:
                self._error = exc
            finally:
                self._event.set()
        else:
            self._event.wait()
        if self._error is not None:
            raise self._error
        return self._data


class CoherenceDomain:
    """The consistency domain shared by every open of one container."""

    def __init__(self, scope: str = "") -> None:
        self.scope = scope
        self._lock = threading.RLock()
        self._fence_freed = threading.Condition(self._lock)
        self._members: dict[int, _Member] = {}
        self._next_member = 1
        #: member -> lease validity (True = reads need no revalidation).
        self._leases: dict[int, bool] = {}
        #: Active write fences: [start, end, member] byte extents.
        self._fences: list[list[int]] = []
        #: Bumped on every fence/publish/invalidate; fills from older
        #: epochs are never joined (a post-write miss must see the
        #: post-write origin, not a pre-write in-flight fetch).
        self._epoch = 0
        self._seq = 0
        #: member -> seq of its latest publish (lets the generic
        #: publish handler detect a write path that already published).
        self._last_pub: dict[int, int] = {}
        self._fills: dict[Any, _FillEntry] = {}
        self._subs: dict[int, _Subscriber] = {}
        self._next_sub = 1
        # Plain-int mirrors of the lease.*/fanout.* registry counters,
        # queryable in-process via stats() (the registry counters live
        # in whichever process the domain does; a benchmark in the app
        # process reads these through a control op instead).
        self.published = 0
        self.delivered = 0
        self.dropped = 0
        self.evicted = 0
        self.lease_granted = 0
        self.lease_invalidated = 0
        self.fill_coalesced = 0
        self.write_waits = 0

    # -- membership ----------------------------------------------------------------

    def register(self,
                 invalidate: Callable[[Any, Any], None] | None = None,
                 install: Callable[[int, bytes, Any, Any], None] | None = None
                 ) -> int:
        """Join the domain; returns this open's member id.

        ``invalidate(offset, size)`` (offset ``None`` = everything)
        drops the member's cached range after a remote write it was not
        given bytes for; ``install(offset, data, total, version)``
        push-installs published bytes so the member's lease can stay
        valid across the update.
        """
        with self._lock:
            member = self._next_member
            self._next_member += 1
            self._members[member] = _Member(invalidate, install)
            self._leases[member] = False
            return member

    def unregister(self, member: int) -> None:
        with self._lock:
            self._members.pop(member, None)
            self._leases.pop(member, None)
            self._last_pub.pop(member, None)
            dead = [sid for sid, sub in self._subs.items()
                    if sub.member == member]
            for sid in dead:
                del self._subs[sid]
            self._fences = [f for f in self._fences if f[2] != member]
            self._fence_freed.notify_all()
            self._sub_gauge()

    @property
    def members(self) -> int:
        with self._lock:
            return len(self._members)

    @property
    def seq(self) -> int:
        return self._seq

    def last_published(self, member: int) -> int:
        """Seq of *member*'s most recent publish (0 if none).

        A member's operations are serial, so comparing this before and
        after an ``on_write`` call tells exactly whether that write path
        published on its own behalf.
        """
        with self._lock:
            return self._last_pub.get(member, 0)

    # -- read leases ---------------------------------------------------------------

    def lease_valid(self, member: int) -> bool:
        with self._lock:
            return self._leases.get(member, False)

    def grant(self, member: int) -> None:
        """Record a successful revalidation: reads are origin-free
        until a peer write revokes the lease."""
        with self._lock:
            if member not in self._members:
                return
            self._leases[member] = True
            self.lease_granted += 1
        _GRANTED.inc()

    # -- write serialization -------------------------------------------------------

    @contextmanager
    def write_fence(self, member: int, offset: int, size: int):
        """Serialize writers per extent: overlapping fences queue.

        Entering and leaving the fence both bump the fill epoch, so a
        single-flight fill started before the write can never be joined
        after it.
        """
        end = offset + max(int(size), 1)
        token = [int(offset), end, member]
        with self._fence_freed:
            waited = False
            while any(s < end and e > offset and owner != member
                      for s, e, owner in self._fences):
                waited = True
                self._fence_freed.wait(timeout=5.0)
            if waited:
                self.write_waits += 1
                _WRITE_WAITS.inc()
            self._fences.append(token)
            self._bump_epoch_locked()
        try:
            yield
        finally:
            with self._fence_freed:
                if token in self._fences:
                    self._fences.remove(token)
                self._bump_epoch_locked()
                self._fence_freed.notify_all()

    def _bump_epoch_locked(self) -> None:
        self._epoch += 1
        self._fills.clear()

    # -- fan-out -------------------------------------------------------------------

    def publish(self, member: int, offset: int, data: bytes, *,
                total: int | None = None, version: Any = None,
                fields: dict[str, Any] | None = None) -> int:
        """Fan one update out to every other member and subscriber.

        Peers with an ``install`` callback get the bytes pushed into
        their caches and keep their leases; peers with only an
        ``invalidate`` callback lose the covered range and their lease.
        Every live subscriber (except the publisher's own) gets one
        bounded-queue record; a queue past its bound evicts its
        subscriber instead of blocking the publisher.  Returns the
        publish sequence number.
        """
        data = bytes(data)
        with self._lock:
            self._bump_epoch_locked()
            self._seq += 1
            seq = self._seq
            self._last_pub[member] = seq
            peers = [(mid, m) for mid, m in self._members.items()
                     if mid != member]
            subs = list(self._subs.items())
            self.published += 1
        _PUBLISHED.inc()
        revoked: list[int] = []
        for mid, peer in peers:
            if peer.install is not None:
                peer.install(offset, data, total, version)
            else:
                if peer.invalidate is not None:
                    if data:
                        peer.invalidate(offset, len(data))
                    else:
                        peer.invalidate(None, None)
                revoked.append(mid)
        if revoked:
            self._revoke(revoked)
        record = {"seq": seq, "offset": int(offset), "size": len(data)}
        if total is not None:
            record["total"] = int(total)
        if fields:
            record.update(fields)
        self._enqueue(record, skip_member=member)
        return seq

    def invalidate_peers(self, member: int, offset: int | None = None,
                         size: int | None = None) -> None:
        """Revoke every other member's lease (and cached range).

        The heavyweight consistency action — truncation, or an update
        whose bytes are not worth shipping; peers revalidate against
        the origin on their next read.
        """
        with self._lock:
            self._bump_epoch_locked()
            peers = [(mid, m) for mid, m in self._members.items()
                     if mid != member]
        for mid, peer in peers:
            if peer.invalidate is not None:
                peer.invalidate(offset, size)
        self._revoke([mid for mid, _ in peers])

    def _revoke(self, members: list[int]) -> None:
        revoked = 0
        with self._lock:
            for mid in members:
                if self._leases.get(mid):
                    self._leases[mid] = False
                    revoked += 1
            self.lease_invalidated += revoked
        if revoked:
            _INVALIDATED.inc(revoked)

    def _enqueue(self, record: dict[str, Any], *, skip_member: int) -> None:
        delivered = dropped = newly_evicted = 0
        with self._lock:
            for sub in self._subs.values():
                if sub.member == skip_member or sub.evicted:
                    continue
                if len(sub.queue) >= sub.max_pending:
                    # Slow consumer: drop its backlog and evict it —
                    # the publisher never blocks on a dead reader.
                    dropped += len(sub.queue) + 1
                    sub.queue.clear()
                    sub.evicted = True
                    newly_evicted += 1
                    continue
                sub.queue.append(dict(record))
                delivered += 1
            self.delivered += delivered
            self.dropped += dropped
            self.evicted += newly_evicted
            if newly_evicted:
                self._sub_gauge()
        if delivered:
            _DELIVERED.inc(delivered)
        if dropped:
            _DROPPED.inc(dropped)
        if newly_evicted:
            _EVICTED.inc(newly_evicted)

    # -- single-flight fills -------------------------------------------------------

    def fill(self, key: Any, start: Callable[[], Callable[[], bytes]]
             ) -> Callable[[], bytes]:
        """Collapse concurrent misses for *key* onto one origin fetch.

        *start* issues the origin request and returns its resolver; it
        runs only for the first member to miss.  Members missing while
        that fetch is *in flight* (same epoch — no intervening write)
        get a joining resolver instead and are counted as
        ``lease.fill_coalesced``; once a fill completes it is dropped,
        so a later miss (e.g. a fresh open) fetches afresh.
        """
        with self._lock:
            entry = self._fills.get(key)
            if entry is not None and entry.epoch == self._epoch \
                    and not entry.done:
                self.fill_coalesced += 1
                join = True
            else:
                if len(self._fills) > 512:
                    self._fills.clear()
                entry = _FillEntry(self._epoch)
                self._fills[key] = entry
                join = False
        if join:
            _FILL_COALESCED.inc()
            return lambda: self._run_fill(key, entry)
        try:
            resolver = start()
        except BaseException as exc:
            with self._lock:
                if self._fills.get(key) is entry:
                    del self._fills[key]
            entry.poison(exc)
            raise
        entry.arm(resolver)
        return lambda: self._run_fill(key, entry)

    def _run_fill(self, key: Any, entry: _FillEntry) -> bytes:
        try:
            return entry.result()
        except BaseException:
            # A failed fill must not be sticky: drop the entry so the
            # next miss (e.g. after a partition heals) goes to origin.
            with self._lock:
                if self._fills.get(key) is entry:
                    del self._fills[key]
            raise
        finally:
            # Completed fills stop accepting joiners: coalescing is for
            # concurrent misses, never for serving stale re-fetches.
            entry.done = True
            with self._lock:
                if self._fills.get(key) is entry:
                    del self._fills[key]

    # -- pub/sub -------------------------------------------------------------------

    def subscribe(self, member: int,
                  max_pending: int = DEFAULT_MAX_PENDING) -> int:
        """Open a bounded update queue for *member*; returns its id."""
        max_pending = int(max_pending)
        if max_pending <= 0:
            raise FanoutError(
                f"max_pending must be positive, got {max_pending}")
        with self._lock:
            sub_id = self._next_sub
            self._next_sub += 1
            self._subs[sub_id] = _Subscriber(member, max_pending)
            self._sub_gauge()
        return sub_id

    def poll(self, sub_id: int, max_items: int = DEFAULT_MAX_PENDING
             ) -> list[dict[str, Any]]:
        """Drain up to *max_items* pending updates (oldest first).

        An evicted subscription raises :class:`SubscriberEvictedError`
        exactly once (and is removed): updates were dropped, so the
        caller must resubscribe and re-read for a fresh view.
        """
        with self._lock:
            sub = self._subs.get(sub_id)
            if sub is None:
                raise FanoutError(f"unknown subscription id {sub_id}")
            if sub.evicted:
                del self._subs[sub_id]
                self._sub_gauge()
                raise SubscriberEvictedError(
                    f"subscription {sub_id} evicted as a slow consumer "
                    f"(bound {sub.max_pending}); resubscribe for a fresh "
                    f"view")
            out = []
            while sub.queue and len(out) < int(max_items):
                out.append(sub.queue.popleft())
            return out

    def unsubscribe(self, sub_id: int) -> None:
        with self._lock:
            self._subs.pop(sub_id, None)
            self._sub_gauge()

    def _sub_gauge(self) -> None:
        """Live subscriber count for this domain (lock held)."""
        _SUBSCRIBERS.set(float(len(self._subs)))

    # -- observability --------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "members": len(self._members),
                "subscribers": len(self._subs),
                "leases_valid": sum(1 for v in self._leases.values() if v),
                "seq": self._seq,
                "published": self.published,
                "delivered": self.delivered,
                "dropped": self.dropped,
                "evicted": self.evicted,
                "lease_granted": self.lease_granted,
                "lease_invalidated": self.lease_invalidated,
                "fill_coalesced": self.fill_coalesced,
                "write_waits": self.write_waits,
            }


_registry_lock = threading.Lock()
_registry: dict[str, CoherenceDomain] = {}


def domain_for(path: "str | os.PathLike") -> CoherenceDomain:
    """The per-container coherence domain (process-global registry).

    Keyed by realpath: in the application process this joins thread/inproc opens, and in a
    pooled host child — which serves exactly one container — it joins
    every channel session of that container.
    """
    key = str(os.path.realpath(os.fspath(path)))
    with _registry_lock:
        domain = _registry.get(key)
        if domain is None:
            domain = CoherenceDomain(scope=key)
            _registry[key] = domain
        return domain
