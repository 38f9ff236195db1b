"""Sentinel-side caching — the three critical paths of Figure 5, pipelined.

The paper's evaluation distinguishes three sentinel configurations:

* **path 1, no cache** — every application operation becomes a remote
  exchange;
* **path 2, on-disk cache** — "the sentinel interacts with its local
  file rather than contacting the remote service", i.e. the data part
  holds the cached bytes;
* **path 3, in-memory cache** — "the cache resides in the sentinel's
  memory rather than on disk".

:class:`BlockCache` implements paths 2 and 3 over any
:class:`~repro.core.datapart.DataPart` store (container-backed = disk,
:class:`MemoryDataPart` = memory); path 1 is simply the absence of a
cache.  Reads fault missing fixed-size blocks in from the origin ("
caching only the most frequently accessed contents" — an LRU bound is
supported); :meth:`invalidate` supports the paper's consistency story:
"the cache can be kept consistent with any updates performed to its
contents at any of the remote sources."

On top of the paper-faithful synchronous core sit two pipelined tiers
that exploit a multiplexed transport (:mod:`repro.core.channel`):

* **adaptive sequential read-ahead** — when reads run sequentially, the
  cache issues prefetch *windows* (contiguous multi-block spans) as
  in-flight fetches via ``fetch_window``; the window doubles on
  confirmed sequentiality up to ``readahead`` blocks and collapses on a
  seek.  Each origin exchange carries at least one full window, and up
  to two windows stay in flight ahead of the reader, so the next window
  is already on the wire while the current one is consumed.  Every
  in-flight span is registered per block (single-flight), so
  concurrent readers never fetch the same block twice, and each fetch
  is stamped with the cache generation so an :meth:`invalidate` racing
  a pending fetch can never reinstall stale bytes.
* **write-behind with coalescing** — with ``writeback=True``, writes
  land in the store and accumulate as merged dirty byte extents; the
  buffer flushes as batched contiguous extents (via ``push_extents``
  when the origin supports a vectored push) once ``writeback_bytes``
  of data is dirty, on :meth:`flush`, and before a dirty block may be
  evicted.  The default remains write-through — the paper-faithful
  Figure 5 behaviour.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import OrderedDict
from typing import Any, Callable

from repro.core.datapart import DataPart
from repro.core.telemetry import TELEMETRY
from repro.errors import CacheError

__all__ = ["BlockCache", "CACHE_PATHS", "CACHE_STAT_KEYS"]

#: The paper's cache-path names, as accepted by the remote-file sentinel.
CACHE_PATHS = ("none", "disk", "memory")

#: The keys of :meth:`BlockCache.stats` (a snapshot's ``cache`` section).
CACHE_STAT_KEYS = ("hits", "misses", "prefetch_issued", "prefetch_used",
                   "coalesced_flushes", "dirty_high_water", "dirty_bytes",
                   "blocks", "inflight_blocks", "window", "writeback")

#: Failed write-behind flushes, process-wide.  A registry counter, not
#: a :meth:`BlockCache.stats` key: it outlives the cache, so evidence
#: bundles exported after close still carry the failure.
_FLUSH_FAILURES = TELEMETRY.metrics.counter("cache.flush_failures")

#: First window issued once sequentiality is confirmed (blocks).
MIN_WINDOW = 2


class _WindowFetch:
    """One in-flight contiguous fetch covering one or more blocks.

    The resolver is run by the *first* consumer that needs a covered
    block; later consumers wait for that result (single-flight).  The
    fetch remembers the cache generation it was issued under, so stale
    results are discarded rather than installed (see
    :meth:`BlockCache.invalidate`).
    """

    __slots__ = ("start", "nblocks", "generation", "epoch", "resolver",
                 "_event", "_claim", "_data", "_error")

    def __init__(self, start: int, nblocks: int, generation: int,
                 epoch: int, resolver: Callable[[], bytes]) -> None:
        self.start = start
        self.nblocks = nblocks
        self.generation = generation
        self.epoch = epoch
        self.resolver = resolver
        self._event = threading.Event()
        self._claim = threading.Lock()
        self._data = b""
        self._error: BaseException | None = None

    @property
    def blocks(self) -> range:
        return range(self.start, self.start + self.nblocks)

    def result(self) -> bytes:
        """Run the resolver once; everyone gets the same outcome."""
        claimed = self._claim.acquire(blocking=False)
        if claimed and not self._event.is_set():
            try:
                self._data = self.resolver()
            except BaseException as exc:
                self._error = exc
            finally:
                self._event.set()
        else:
            self._event.wait()
        if self._error is not None:
            raise self._error
        return self._data


class BlockCache:
    """A block cache in front of a remote origin.

    Required plumbing: ``fetch(offset, size) -> bytes`` and
    ``push(offset, data) -> int`` against the origin, plus the local
    *store*.  Optional pipelining plumbing:

    * ``fetch_window(offset, size) -> resolver`` — start one contiguous
      fetch and return a zero-argument callable producing its bytes.
      When the transport underneath can pipeline (a multiplexed
      channel), the fetch is genuinely in flight while the application
      keeps issuing operations; when it cannot, the resolver simply
      batches many blocks into one origin round trip.
    * ``push_extents(extents) -> None`` — write a batch of
      ``(offset, bytes)`` extents in one origin exchange.

    ``readahead`` is the maximum prefetch window in blocks, the span of
    one read-ahead origin exchange (0 disables read-ahead);
    ``writeback=True`` buffers writes and flushes them as
    coalesced extents (write-through otherwise).
    """

    def __init__(self, fetch: Callable[[int, int], bytes],
                 push: Callable[[int, bytes], int],
                 store: DataPart, block_size: int = 4096,
                 max_blocks: int | None = None, *,
                 readahead: int = 0,
                 writeback: bool = False,
                 writeback_bytes: int = 256 * 1024,
                 fetch_window: Callable[[int, int],
                                        Callable[[], bytes]] | None = None,
                 push_extents: Callable[[list[tuple[int, bytes]]],
                                        Any] | None = None,
                 coherence: Any = None) -> None:
        if block_size <= 0:
            raise CacheError(f"block size must be positive, got {block_size}")
        if max_blocks is not None and max_blocks <= 0:
            raise CacheError(f"max_blocks must be positive, got {max_blocks}")
        if readahead < 0:
            raise CacheError(f"readahead must be >= 0, got {readahead}")
        if writeback and writeback_bytes <= 0:
            raise CacheError(
                f"writeback_bytes must be positive, got {writeback_bytes}")
        self._fetch = fetch
        self._push = push
        self._store = store
        self.block_size = block_size
        self.max_blocks = max_blocks
        self.readahead = readahead
        self.writeback = writeback
        self.writeback_bytes = writeback_bytes
        self._fetch_window = fetch_window
        self._push_extents = push_extents
        #: Optional :class:`~repro.core.fanout.CoherenceDomain`: origin
        #: fills route through its single-flight table, so concurrent
        #: misses for one window from different opens of the same
        #: container collapse onto one origin fetch.
        self._coherence = coherence
        #: LRU of valid block indices (most recently used last).
        self._valid: OrderedDict[int, None] = OrderedDict()
        #: Origin size discovered from a short block fetch, if any.
        self._known_end: int | None = None
        #: block -> in-flight fetch covering it (single-flight registry).
        self._inflight: dict[int, _WindowFetch] = {}
        #: Demand fetches issued ahead of their resolve by _fault_range
        #: (pipelining, not prefetch): counted as misses, and a failure
        #: surfaces to the faulting reader instead of being swallowed.
        self._demand_issued: "set[_WindowFetch]" = set()
        #: Bumped by invalidate(); in-flight fetches from older
        #: generations must never install their bytes.
        self._generation = 0
        #: Bumped by every write; a fetch issued before a write may
        #: still install clean bytes, but its (possibly pre-extension)
        #: short reads must not tighten the known origin end.
        self._write_epoch = 0
        #: Merged, sorted dirty byte intervals [start, end) (write-behind).
        self._dirty: list[list[int]] = []
        #: Sequential-read detector state.
        self._seq_end: int | None = None
        self._window = 0
        self._prefetch_end = 0
        self._lock = threading.RLock()
        # counters
        self.hits = 0
        self.misses = 0
        self.prefetch_issued = 0
        self.prefetch_used = 0
        self.coalesced_flushes = 0
        self.dirty_high_water = 0
        self.flush_failures = 0
        # Re-home the counters under telemetry.snapshot() (weakly —
        # the entry disappears with this cache).
        TELEMETRY.register_collector("cache", "cache", self, BlockCache.stats)

    # -- block bookkeeping ----------------------------------------------------------

    def _touch(self, block: int) -> None:
        self._valid.move_to_end(block)

    def _admit(self, block: int) -> None:
        self._valid[block] = None
        self._valid.move_to_end(block)
        if self.max_blocks is not None:
            while len(self._valid) > self.max_blocks:
                victim = next(iter(self._valid))
                if self._block_dirty(victim):
                    # Never drop buffered writes: a dirty block leaves
                    # the cache only after its bytes reached the origin.
                    self._flush_locked(cause="evict")
                self._valid.popitem(last=False)

    def _block_dirty(self, block: int) -> bool:
        start = block * self.block_size
        end = start + self.block_size
        # _dirty is sorted and disjoint, so its ends rise with its
        # starts: the last interval starting before *end* is the only
        # one that can reach past *start*.
        index = bisect_left(self._dirty, [end])
        return index > 0 and self._dirty[index - 1][1] > start

    def _note_end(self, offset: int, requested: int, received: int) -> None:
        """A short fetch bounds the origin size from above; keep the
        tightest bound seen (fetches past EOF return nothing and would
        otherwise overestimate)."""
        if received < requested:
            end = offset + received
            if self._known_end is None or end < self._known_end:
                self._known_end = end

    def _effective_end(self) -> int | None:
        """The readable end: origin bound extended by buffered writes."""
        if self._known_end is None:
            return None
        if self._dirty:
            return max(self._known_end, self._dirty[-1][1])
        return self._known_end

    # -- dirty-extent bookkeeping (write-behind) -----------------------------------

    def _mark_dirty(self, start: int, end: int) -> None:
        merged: list[list[int]] = []
        placed = False
        for s, e in self._dirty:
            if e < start or s > end:
                if s > end and not placed:
                    merged.append([start, end])
                    placed = True
                merged.append([s, e])
            else:
                start = min(start, s)
                end = max(end, e)
        if not placed:
            merged.append([start, end])
            merged.sort()
        self._dirty = merged
        high = self.dirty_bytes
        if high > self.dirty_high_water:
            self.dirty_high_water = high

    def _clean_subranges(self, start: int, end: int) -> list[tuple[int, int]]:
        """The parts of [start, end) NOT covered by dirty extents."""
        spans: list[tuple[int, int]] = []
        cursor = start
        for s, e in self._dirty:
            if e <= cursor:
                continue
            if s >= end:
                break
            if s > cursor:
                spans.append((cursor, min(s, end)))
            cursor = max(cursor, e)
            if cursor >= end:
                break
        if cursor < end:
            spans.append((cursor, end))
        return spans

    @property
    def dirty_bytes(self) -> int:
        return sum(e - s for s, e in self._dirty)

    @property
    def dirty_end(self) -> int:
        """One past the last buffered-dirty byte (0 when clean)."""
        return self._dirty[-1][1] if self._dirty else 0

    # -- fetch planning --------------------------------------------------------------

    def _install(self, fetched: _WindowFetch, data: bytes) -> None:
        """Install one resolved fetch, skipping stale or dirty spans."""
        size = self.block_size
        for index, block in enumerate(fetched.blocks):
            if self._inflight.get(block) is not fetched:
                continue  # superseded: invalidated, re-fetched, written
            del self._inflight[block]
            if fetched.generation != self._generation:
                continue  # stale: an invalidate raced this fetch
            chunk = data[index * size:(index + 1) * size]
            offset = block * size
            if chunk:
                # Buffered writes are newer than anything the origin
                # returned; install only the clean sub-ranges.
                for start, end in self._clean_subranges(offset,
                                                        offset + len(chunk)):
                    self._store.write_at(
                        start, chunk[start - offset:end - offset])
                self._admit(block)
            if fetched.epoch == self._write_epoch:
                # A fetch that predates a write may have seen the file
                # before the write extended it; only a current-epoch
                # short read is evidence about the origin's end.
                self._note_end(offset, size, len(chunk))

    def _resolve(self, fetched: _WindowFetch, *, used: bool) -> None:
        """Wait for an in-flight fetch and install it.

        Pipelining comes from issue time (``fetch_window`` starts the
        transfer when the window is issued), not from resolution — so
        holding the cache lock here costs nothing.  A failed *prefetch*
        is silently dropped (the blocks simply stay missing and a later
        demand read retries), so a prefetch that died with the link
        cannot poison reads issued after the origin healed.
        """
        if TELEMETRY.tracing and TELEMETRY.current() is not None:
            # The cause label tells the trace why these blocks filled:
            # a demand miss, or a read-ahead window being consumed.
            with TELEMETRY.span("cache.fill", attrs={
                    "cause": "prefetch" if used else "demand",
                    "blocks": fetched.nblocks}):
                self._resolve_fetch(fetched, used=used)
            return
        self._resolve_fetch(fetched, used=used)

    def _resolve_fetch(self, fetched: _WindowFetch, *, used: bool) -> None:
        try:
            data = fetched.result()
        except Exception:
            for block in fetched.blocks:
                if self._inflight.get(block) is fetched:
                    del self._inflight[block]
            if used:
                return  # caller re-examines and demand-fetches afresh
            raise
        if used:
            self.prefetch_used += fetched.nblocks
        self._install(fetched, data)

    def _issue(self, start_block: int, nblocks: int) -> _WindowFetch:
        """Register one in-flight window fetch (caller holds the lock)."""
        offset = start_block * self.block_size
        size = nblocks * self.block_size
        if self._fetch_window is not None:
            start = lambda: self._fetch_window(offset, size)  # noqa: E731
        else:
            fetch = self._fetch

            def start(fetch=fetch, offset=offset, size=size):
                return lambda: fetch(offset, size)
        if self._coherence is not None:
            # Single-flight across opens: only the first member to miss
            # this window actually issues the origin request; peers get
            # a joining resolver from the domain's fill table.
            resolver = self._coherence.fill((offset, size), start)
        else:
            resolver = start()
        fetched = _WindowFetch(start_block, nblocks, self._generation,
                               self._write_epoch, resolver)
        for block in fetched.blocks:
            self._inflight[block] = fetched
        return fetched

    def _missing_runs(self, first: int, last: int) -> list[tuple[int, int]]:
        """Contiguous runs of blocks in [first, last] that are neither
        valid nor in flight (caller holds the lock)."""
        runs: list[tuple[int, int]] = []
        block = first
        while block <= last:
            if block in self._valid or block in self._inflight:
                block += 1
                continue
            start = block
            while (block <= last and block not in self._valid
                   and block not in self._inflight):
                block += 1
            runs.append((start, block - start))
        return runs

    def _note_access(self, offset: int) -> bool:
        """Update the sequential detector; returns True when sequential."""
        sequential = (self._seq_end is not None
                      and abs(offset - self._seq_end) <= self.block_size)
        if sequential:
            if self._window == 0:
                self._window = min(MIN_WINDOW, self.readahead)
        else:
            self._window = 0
            self._prefetch_end = 0
        return sequential

    def _issue_readahead(self, last_block: int) -> None:
        """Prefetch up to two windows past *last_block* (lock held).

        The horizon sits two windows past the demand point; once no
        more than one window of prefetched blocks remains ahead of the
        reader, the missing blocks up to the horizon — at least one full
        window — go out as one origin exchange per contiguous run.  A
        steady sequential scan thus fetches a whole window per exchange
        while the next window is already in flight.
        """
        window = self._window
        if window <= 0 or self.readahead <= 0:
            return
        target = last_block + 1 + 2 * window
        start = max(self._prefetch_end, last_block + 1)
        if start > last_block + 1 and target - start < window:
            return  # more than a window already in flight
        known = self._known_end
        for run_start, run_len in self._missing_runs(start, target - 1):
            if known is not None and run_start * self.block_size >= known:
                break
            try:
                self._issue(run_start, run_len)
            except Exception:
                return  # issue-time transport failure: skip this round
            self.prefetch_issued += run_len
        self._prefetch_end = target
        self._window = min(window * 2, self.readahead)

    # -- data plane -------------------------------------------------------------------

    def _fault_range(self, offset: int, size: int) -> None:
        """Make every block covering ``[offset, offset+size)`` resident.

        Lock held.  Sequential access triggers window read-ahead;
        blocks already in flight are awaited rather than re-fetched.
        """
        bs = self.block_size
        first = offset // bs
        last = (offset + size - 1) // bs
        sequential = self._note_access(offset)
        self._seq_end = offset + size
        # Issue every missing run of the range up-front, before
        # resolving any of them: a range with several holes (blocks
        # made resident by scattered writes between them) then has all
        # its fetches in flight at once instead of paying one
        # synchronous round trip per hole.
        end = self._effective_end()
        for run_start, run_len in self._missing_runs(first, last):
            run_end_byte = (run_start + run_len) * bs
            if end is not None and (run_start * bs >= end
                                    or run_end_byte > end):
                # Leave end-straddling runs to the walk below, which
                # re-checks the (possibly shrinking) origin end per
                # block — pre-issuing past it would fetch dead bytes.
                break
            try:
                self._demand_issued.add(self._issue(run_start, run_len))
            except Exception:
                break  # transport hiccup: the walk retries synchronously
        block = first
        while block <= last:
            end = self._effective_end()
            if end is not None and block * bs >= end:
                break  # past the origin's known end; nothing to fetch
            if block in self._valid:
                self.hits += 1
                self._touch(block)
                block += 1
                continue
            pending = self._inflight.get(block)
            if pending is not None:
                # A pre-issued demand fetch is still a miss (and its
                # failure must surface here); only true read-ahead
                # counts as prefetch.
                demand = pending in self._demand_issued
                if demand:
                    self._demand_issued.discard(pending)
                    self.misses += pending.nblocks
                    self._resolve(pending, used=False)
                    # Advance past the run, exactly like the demand
                    # fetch below — these blocks are misses, not hits.
                    block = pending.start + pending.nblocks
                    continue
                self._resolve(pending, used=True)
                continue  # re-examine: installed, or now missing
            run = block
            while (run <= last and run not in self._valid
                   and run not in self._inflight):
                run += 1
            nblocks = run - block
            self.misses += nblocks
            self._resolve(self._issue(block, nblocks), used=False)
            block = run
        if sequential:
            self._issue_readahead(last)

    def read(self, offset: int, size: int) -> bytes:
        """Read through the cache, faulting in whole blocks as needed."""
        if size <= 0 or offset < 0:
            return b""
        with self._lock:
            self._fault_range(offset, size)
            data = self._store.read_at(offset, size)
            end = self._effective_end()
            if end is not None and offset + len(data) > end:
                data = data[:max(0, end - offset)]
            return data

    def read_into(self, offset: int, buffer: memoryview) -> int:
        """Read through the cache straight into *buffer*.

        The shared-memory data plane's sibling of :meth:`read`: once the
        covering blocks are resident, the store copies directly into the
        caller's buffer (typically an shm slot) with no intermediate
        ``bytes``.  Returns the byte count.
        """
        size = len(buffer)
        if size <= 0 or offset < 0:
            return 0
        with self._lock:
            self._fault_range(offset, size)
            count = self._store.read_at_into(offset, buffer)
            end = self._effective_end()
            if end is not None and offset + count > end:
                count = max(0, end - offset)
            return count

    def write(self, offset: int, data: bytes) -> int:
        """Write through (default) or buffer for write-behind."""
        if self.writeback and data:
            return self._write_behind(offset, data)
        written = self._push(offset, data)
        with self._lock:
            self._write_local(offset, data)
        return written

    def _write_local(self, offset: int, data: bytes) -> None:
        """Update cached state for newly written bytes (lock held)."""
        end = offset + len(data)
        if self._known_end is not None and end > self._known_end:
            self._known_end = end
        bs = self.block_size
        first = offset // bs
        last = max(first, (end - 1) // bs) if data else first
        for block in range(first, last + 1):
            if block in self._valid:
                self._touch(block)
        if not data:
            return
        self._write_epoch += 1
        self._store.write_at(offset, data)
        for block in range(first, last + 1):
            # Any overlapped in-flight fetch now carries bytes older
            # than what we hold for this block; disarm its install.
            self._inflight.pop(block, None)
            # Blocks fully covered by this write become valid even if
            # they were never fetched.
            if block not in self._valid and offset <= block * bs \
                    and end >= (block + 1) * bs:
                self._admit(block)

    def _write_behind(self, offset: int, data: bytes) -> int:
        with self._lock:
            self._write_local(offset, data)
            self._mark_dirty(offset, offset + len(data))
            needs_flush = self.dirty_bytes >= self.writeback_bytes
        if needs_flush:
            with self._lock:
                self._flush_locked(cause="threshold")
        return len(data)

    def flush(self) -> None:
        """Push all buffered dirty extents to the origin (coalesced)."""
        with self._lock:
            self._flush_locked(cause="explicit")

    def _flush_locked(self, cause: str = "explicit") -> None:
        if not self._dirty:
            return
        if TELEMETRY.tracing and TELEMETRY.current() is not None:
            # cause labels why the buffer drained: an explicit flush,
            # the write-behind threshold, or a dirty-block eviction.
            with TELEMETRY.span("cache.flush", attrs={
                    "cause": cause, "bytes": self.dirty_bytes}):
                self._flush_extents()
            return
        self._flush_extents()

    def _flush_extents(self) -> None:
        extents = [(s, self._store.read_at(s, e - s)) for s, e in self._dirty]
        staged, self._dirty = self._dirty, []
        bs = self.block_size
        for s, e in staged:
            # Clearing the dirty intervals widens what an in-flight
            # fetch may install; a fetch issued before this flush could
            # then overwrite the just-flushed bytes with its pre-flush
            # snapshot.  Disarm any fetch overlapping the flushed range.
            for block in range(s // bs, (e - 1) // bs + 1):
                self._inflight.pop(block, None)
        try:
            if self._push_extents is not None:
                self._push_extents(extents)
            else:
                for extent_offset, extent_data in extents:
                    self._push(extent_offset, extent_data)
        except BaseException:
            # The origin may hold a prefix; keep everything buffered so
            # a later flush (or close) retries — no silent loss.
            self.flush_failures += 1
            _FLUSH_FAILURES.inc()
            for s, e in staged:
                self._mark_dirty(s, e)
            raise
        # Buffered writes past the origin's end were extending
        # _effective_end() via the dirty list; now that they are origin
        # content, the extension must survive the dirty list clearing.
        if self._known_end is not None and staged[-1][1] > self._known_end:
            self._known_end = staged[-1][1]
        self.coalesced_flushes += 1

    # -- consistency -------------------------------------------------------------------

    def invalidate(self, offset: int | None = None,
                   size: int | None = None) -> None:
        """Drop cached blocks (all, or those overlapping a byte range).

        In-flight fetches covering the range are disarmed: the
        generation stamp guarantees their (possibly stale) bytes are
        discarded on arrival instead of reinstalled.  Buffered
        write-behind data is *not* dropped — it is newer than anything
        the origin holds; call :meth:`flush` first to push it out.
        """
        with self._lock:
            self._generation += 1
            if offset is None:
                self._valid.clear()
                self._inflight.clear()
                self._demand_issued.clear()
                self._known_end = None
                self._prefetch_end = 0
                return
            span = self.block_size if size is None else max(size, 1)
            first = offset // self.block_size
            last = (offset + span - 1) // self.block_size
            for block in range(first, last + 1):
                self._valid.pop(block, None)
                self._inflight.pop(block, None)
            self._known_end = None

    def install_published(self, offset: int, data: bytes,
                          total_size: int | None = None) -> None:
        """Push-install bytes published by a peer open of this container.

        The fan-out alternative to :meth:`invalidate`: instead of
        dropping the covered blocks and re-fetching from origin, the
        publisher's bytes land directly in the store, so this cache's
        read lease can stay valid across the remote write.  Buffered
        local write-behind data is newer than any publication and is
        never overwritten; in-flight fetches overlapping the range are
        disarmed (their bytes predate the publish).  *total_size*, when
        given, is the authoritative post-publish file size.
        """
        with self._lock:
            bs = self.block_size
            end = offset + len(data)
            if data:
                self._write_epoch += 1
                first = offset // bs
                last = (end - 1) // bs
                for block in range(first, last + 1):
                    self._inflight.pop(block, None)
                for start, stop in self._clean_subranges(offset, end):
                    self._store.write_at(start, data[start - offset:
                                                    stop - offset])
                for block in range(first, last + 1):
                    if offset <= block * bs and end >= (block + 1) * bs:
                        self._admit(block)
                if self._known_end is not None and end > self._known_end:
                    self._known_end = end
            if total_size is not None:
                # Authoritative post-publish size (dirty write-behind
                # extents still extend the effective end past it).
                total_size = int(total_size)
                self._known_end = total_size
                for block in [b for b in self._valid
                              if b * bs >= total_size]:
                    self._valid.pop(block)
                for block in [b for b in self._inflight
                              if b * bs >= total_size]:
                    self._inflight.pop(block, None)

    def stats(self) -> dict[str, Any]:
        """A plain-data snapshot of every cache counter."""
        with self._lock:
            return dict(zip(CACHE_STAT_KEYS, (
                self.hits, self.misses, self.prefetch_issued,
                self.prefetch_used, self.coalesced_flushes,
                self.dirty_high_water, self.dirty_bytes, len(self._valid),
                len(self._inflight), self._window, self.writeback)))

    @property
    def cached_blocks(self) -> int:
        return len(self._valid)
