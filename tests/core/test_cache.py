"""Tests for the block cache (Figure 5 paths 2 and 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import BlockCache
from repro.core.datapart import MemoryDataPart
from repro.doctor.engine import Evidence, run_doctor
from repro.errors import CacheError
from repro.util.bytesbuf import ByteBuffer


class Origin:
    """An instrumented fake remote origin."""

    def __init__(self, body=b""):
        self.body = ByteBuffer(body)
        self.reads = 0
        self.writes = 0
        self.batches = []
        self.fail_push = False

    def fetch(self, offset, size):
        self.reads += 1
        return self.body.read_at(offset, size)

    def read_window(self, offset, size):
        """Pipelined fetch: the bytes are captured at *issue* time, the
        way a request already on the wire sees the origin — resolving
        later returns this snapshot, not the current contents."""
        self.reads += 1
        snapshot = self.body.read_at(offset, size)
        return lambda: snapshot

    def push(self, offset, data):
        if self.fail_push:
            raise OSError("origin unreachable")
        self.writes += 1
        return self.body.write_at(offset, data)

    def push_extents(self, extents):
        if self.fail_push:
            raise OSError("origin unreachable")
        self.batches.append([(offset, bytes(data)) for offset, data in extents])
        for offset, data in extents:
            self.writes += 1
            self.body.write_at(offset, data)


def make_cache(body=b"", block_size=8, max_blocks=None, *,
               windowed=False, batched=False, **cache_kw):
    origin = Origin(body)
    if windowed:
        cache_kw["fetch_window"] = origin.read_window
    if batched:
        cache_kw["push_extents"] = origin.push_extents
    cache = BlockCache(fetch=origin.fetch, push=origin.push,
                       store=MemoryDataPart(), block_size=block_size,
                       max_blocks=max_blocks, **cache_kw)
    return cache, origin


class TestReads:
    def test_first_read_faults_blocks(self):
        cache, origin = make_cache(b"0123456789abcdef", block_size=8)
        assert cache.read(0, 4) == b"0123"
        assert origin.reads == 1
        assert cache.misses == 1

    def test_repeat_read_hits(self):
        cache, origin = make_cache(b"0123456789abcdef", block_size=8)
        cache.read(0, 4)
        cache.read(2, 4)
        assert origin.reads == 1
        assert cache.hits == 1

    def test_read_spanning_blocks(self):
        cache, origin = make_cache(b"0123456789abcdef", block_size=4)
        assert cache.read(2, 8) == b"23456789"
        assert origin.reads == 1  # blocks 0,1,2 coalesced into one fetch
        assert cache.misses == 3

    def test_read_past_origin_end_is_short(self):
        cache, _ = make_cache(b"short", block_size=8)
        assert cache.read(0, 100) == b"short"
        assert cache.read(5, 10) == b""

    def test_short_fetch_sets_known_end(self):
        cache, origin = make_cache(b"0123456789", block_size=8)
        cache.read(0, 10)
        # reads entirely past the end don't re-fetch
        origin.reads = 0
        assert cache.read(50, 10) == b""
        assert origin.reads == 0

    def test_zero_and_negative_sizes(self):
        cache, _ = make_cache(b"abc")
        assert cache.read(0, 0) == b""
        assert cache.read(-1, 5) == b""


class TestWrites:
    def test_write_through(self):
        cache, origin = make_cache(b"00000000", block_size=4)
        cache.write(2, b"XY")
        assert origin.body.getvalue() == b"00XY0000"
        assert origin.writes == 1

    def test_write_updates_cached_block(self):
        cache, origin = make_cache(b"00000000", block_size=8)
        cache.read(0, 8)
        cache.write(0, b"ZZ")
        origin.reads = 0
        assert cache.read(0, 8) == b"ZZ000000"
        assert origin.reads == 0  # served from cache

    def test_full_block_write_becomes_valid_without_fetch(self):
        cache, origin = make_cache(b"0" * 16, block_size=8)
        cache.write(0, b"A" * 8)
        origin.reads = 0
        assert cache.read(0, 8) == b"A" * 8
        assert origin.reads == 0

    def test_partial_write_to_uncached_block_stays_invalid(self):
        cache, origin = make_cache(b"00000000", block_size=8)
        cache.write(2, b"XY")  # partial, block not cached
        assert cache.read(0, 8) == b"00XY0000"
        assert origin.reads == 1  # had to fetch on read

    def test_write_extends_known_end(self):
        cache, origin = make_cache(b"abc", block_size=4)
        cache.read(0, 3)            # learns end = 3
        cache.write(3, b"defg")     # extends origin
        assert cache.read(0, 7) == b"abcdefg"

    def test_empty_write(self):
        cache, origin = make_cache(b"abc")
        assert cache.write(1, b"") == 0
        assert origin.body.getvalue() == b"abc"


class TestEviction:
    def test_lru_bound_respected(self):
        cache, origin = make_cache(bytes(range(64)), block_size=8,
                                   max_blocks=2)
        cache.read(0, 8)
        cache.read(8, 8)
        cache.read(16, 8)
        assert cache.cached_blocks == 2

    def test_lru_evicts_least_recent(self):
        cache, origin = make_cache(bytes(64), block_size=8, max_blocks=2)
        cache.read(0, 8)   # block 0
        cache.read(8, 8)   # block 1
        cache.read(0, 8)   # touch block 0
        cache.read(16, 8)  # block 2 -> evicts block 1
        origin.reads = 0
        cache.read(0, 8)
        assert origin.reads == 0    # block 0 still cached
        cache.read(8, 8)
        assert origin.reads == 1    # block 1 was evicted


class TestInvalidation:
    def test_full_invalidate_refetches(self):
        cache, origin = make_cache(b"version one....", block_size=16)
        assert cache.read(0, 11) == b"version one"
        origin.body.setvalue(b"version two....")
        cache.invalidate()
        assert cache.read(0, 11) == b"version two"

    def test_range_invalidate(self):
        cache, origin = make_cache(bytes(32), block_size=8)
        cache.read(0, 32)
        fetched_before = origin.reads
        cache.invalidate(offset=8, size=8)  # only block 1
        cache.read(0, 32)
        assert origin.reads == fetched_before + 1


class TestReadahead:
    def test_sequential_scan_prefetches(self):
        body = bytes(range(256))
        cache, origin = make_cache(body, block_size=8, readahead=8,
                                   windowed=True)
        for offset in range(0, 256, 8):
            assert cache.read(offset, 8) == body[offset:offset + 8]
        assert cache.prefetch_issued > 0
        assert cache.prefetch_used > 0
        assert cache.hits > 0
        # far fewer origin exchanges than the 32 blocks scanned
        assert origin.reads < 16

    def test_prefetched_block_needs_no_new_fetch(self):
        body = bytes(range(64))
        cache, origin = make_cache(body, block_size=8, readahead=4,
                                   windowed=True)
        cache.read(0, 8)
        cache.read(8, 8)   # sequential: issues read-ahead past block 1
        assert cache.prefetch_issued > 0
        misses = cache.misses
        assert cache.read(16, 8) == body[16:24]
        assert cache.misses == misses      # no demand fetch needed
        assert cache.prefetch_used >= 1    # served from the in-flight window

    def test_random_reads_never_prefetch(self):
        cache, _ = make_cache(bytes(256), block_size=8, readahead=8,
                              windowed=True)
        for offset in (0, 128, 64, 192):
            cache.read(offset, 8)
        assert cache.prefetch_issued == 0

    def test_seek_resets_window(self):
        cache, _ = make_cache(bytes(256), block_size=8, readahead=8,
                              windowed=True)
        for offset in range(0, 64, 8):
            cache.read(offset, 8)
        assert cache.stats()["window"] > 0
        cache.read(200, 8)  # a seek breaks the sequential run
        assert cache.stats()["window"] == 0

    def test_readahead_stops_at_known_end(self):
        cache, origin = make_cache(b"0123456789" * 2, block_size=8,
                                   readahead=16, windowed=True)
        for offset in range(0, 32, 8):
            cache.read(offset, 8)
        # never more in-flight exchanges than the file has blocks + 1
        assert origin.reads <= 4

    def test_failed_prefetch_heals_on_demand(self):
        body = bytes(range(64))
        origin = Origin(body)
        link_down = [True]

        def flaky_window(offset, size):
            # Captured at issue time, like a request already on the wire:
            # windows issued past block 1 while the link is down die.
            fails = link_down[0] and offset >= 16
            data = origin.body.read_at(offset, size)

            def resolve():
                if fails:
                    raise OSError("link dropped mid-transfer")
                return data
            return resolve

        cache = BlockCache(fetch=origin.fetch, push=origin.push,
                           store=MemoryDataPart(), block_size=8,
                           readahead=4, fetch_window=flaky_window)
        cache.read(0, 8)
        cache.read(8, 8)       # read-ahead issued now is doomed
        assert cache.prefetch_issued > 0
        link_down[0] = False   # link heals before the reader arrives
        assert cache.read(16, 8) == body[16:24]


class TestReadaheadWindowPolicy:
    """One origin exchange per full window, at most two windows ahead."""

    BLOCK = 8

    def scan(self, nblocks, step, readahead):
        """A 1-block read at 0, then a sequential scan in *step*-block
        reads; returns (cache, [(blocks, window-at-issue)], misses after
        each scan read, peak in-flight blocks)."""
        bs = self.BLOCK
        body = bytes(i % 251 for i in range(nblocks * bs))
        origin = Origin(body)
        exchanges = []

        def counting_window(offset, size):
            exchanges.append((size // bs, cache.stats()["window"]))
            return origin.read_window(offset, size)

        cache = BlockCache(fetch=origin.fetch, push=origin.push,
                           store=MemoryDataPart(), block_size=bs,
                           readahead=readahead,
                           fetch_window=counting_window)
        assert cache.read(0, bs) == body[:bs]
        misses, peak = [], 0
        for offset in range(0, nblocks * bs, step * bs):
            assert cache.read(offset, step * bs) == \
                body[offset:offset + step * bs]
            misses.append(cache.misses)
            peak = max(peak, cache.stats()["inflight_blocks"])
        return cache, exchanges, misses, peak

    @pytest.mark.parametrize("nblocks, step, readahead, expected", [
        (64, 4, 16, 9),
        (256, 1, 32, 13),
    ])
    def test_full_window_per_exchange(self, nblocks, step, readahead,
                                      expected):
        cache, exchanges, misses, peak = self.scan(nblocks, step, readahead)
        ramped = [blocks for blocks, window in exchanges
                  if window == readahead]
        assert ramped
        assert all(blocks >= readahead for blocks in ramped)
        assert peak <= 2 * readahead
        # only the first two reads miss; read-ahead covers the rest
        assert misses[0] == misses[-1]
        assert len(exchanges) == expected

    def test_sequential_scan_uses_its_prefetch(self):
        cache, _, _, _ = self.scan(256, 1, 16)
        stats = cache.stats()
        assert stats["prefetch_used"] / stats["prefetch_issued"] >= 0.85
        report = run_doctor(Evidence({"cache": {"scan": stats}}))
        assert "readahead-ineffective" not in {
            finding["check"] for finding in report["findings"]}


class CountingStore(MemoryDataPart):
    """A memory store that counts its writes."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write_at(self, offset, data):
        self.writes += 1
        return super().write_at(offset, data)


class TestWindowInstall:
    """A fetched window lands in one dirty-list walk: one store write
    per clean span, not one per block."""

    BLOCK = 64
    NBLOCKS = 16

    @pytest.mark.parametrize("dirty_blocks", [(), (0,), (3, 9, 15),
                                              (1, 2, 4, 8, 13)])
    def test_one_store_write_per_clean_span(self, dirty_blocks):
        bs = self.BLOCK
        body = bytes(i % 251 for i in range(self.NBLOCKS * bs))
        origin = Origin(body)
        store = CountingStore()
        cache = BlockCache(fetch=origin.fetch, push=origin.push,
                           store=store, block_size=bs, writeback=True)
        model = bytearray(body)
        # Disjoint dirty extents strictly inside their blocks: none
        # makes its block valid, so the read below faults all sixteen
        # blocks as one window.
        for block in dirty_blocks:
            offset = block * bs + 5
            cache.write(offset, b"W" * 7)
            model[offset:offset + 7] = b"W" * 7
        store.writes = 0
        assert cache.read(0, len(body)) == bytes(model)
        assert origin.reads == 1
        assert store.writes == len(dirty_blocks) + 1
        assert cache.stats()["blocks"] == self.NBLOCKS
        cache.flush()
        assert origin.body.getvalue() == bytes(model)

    def test_short_window_installs_only_what_arrived(self):
        bs = self.BLOCK
        body = bytes(range(200)) * 3  # 600 bytes: 9 full blocks and 24 B
        origin = Origin(body)
        store = CountingStore()
        cache = BlockCache(fetch=origin.fetch, push=origin.push,
                           store=store, block_size=bs)
        assert cache.read(0, self.NBLOCKS * bs) == body
        assert store.writes == 1
        assert cache.stats()["blocks"] == 10
        assert cache.read(len(body), bs) == b""  # the short read set EOF
        assert origin.reads == 1


class TestWriteback:
    def test_writes_buffered_until_flush(self):
        cache, origin = make_cache(b"0" * 16, writeback=True, batched=True)
        cache.write(2, b"XY")
        assert origin.writes == 0
        assert cache.read(0, 8) == b"00XY0000"  # reads see buffered bytes
        cache.flush()
        assert origin.body.getvalue() == b"00XY00000000000000"[:16]
        assert cache.coalesced_flushes == 1

    def test_contiguous_writes_coalesce_into_one_extent(self):
        cache, origin = make_cache(b"0" * 32, writeback=True, batched=True)
        cache.write(0, b"AAAA")
        cache.write(4, b"BBBB")
        cache.write(8, b"CCCC")
        cache.flush()
        assert len(origin.batches) == 1
        assert origin.batches[0] == [(0, b"AAAABBBBCCCC")]

    def test_autoflush_at_threshold(self):
        cache, origin = make_cache(b"0" * 64, writeback=True, batched=True,
                                   writeback_bytes=16)
        cache.write(0, b"A" * 8)
        assert origin.writes == 0
        cache.write(8, b"B" * 8)   # crosses the 16-byte threshold
        assert origin.body.getvalue()[:16] == b"A" * 8 + b"B" * 8
        assert cache.dirty_high_water == 16

    def test_flush_before_evict(self):
        cache, origin = make_cache(b"0" * 24, writeback=True, batched=True,
                                   max_blocks=1)
        cache.write(0, b"A" * 8)   # block 0 valid and dirty
        cache.read(8, 8)           # admits block 1, evicting dirty block 0
        assert origin.body.getvalue()[:8] == b"A" * 8  # flushed, not lost
        assert cache.read(0, 8) == b"A" * 8

    def test_failed_flush_keeps_dirty(self):
        cache, origin = make_cache(b"0" * 16, writeback=True, batched=True)
        cache.write(2, b"XY")
        origin.fail_push = True
        with pytest.raises(OSError):
            cache.flush()
        assert cache.dirty_bytes == 2      # nothing silently dropped
        origin.fail_push = False
        cache.flush()
        assert origin.body.getvalue()[:8] == b"00XY0000"

    def test_dirty_survives_invalidate(self):
        cache, origin = make_cache(b"0" * 16, writeback=True, batched=True)
        cache.write(2, b"XY")
        cache.invalidate()
        assert cache.read(0, 8) == b"00XY0000"
        assert origin.writes == 0   # still buffered

    def test_close_semantics_flush_is_idempotent(self):
        cache, origin = make_cache(b"0" * 16, writeback=True, batched=True)
        cache.flush()
        assert cache.coalesced_flushes == 0  # nothing dirty: no exchange
        cache.write(0, b"Z")
        cache.flush()
        cache.flush()
        assert cache.coalesced_flushes == 1


class TestInflightConsistency:
    """Regression tests: in-flight prefetches vs invalidate/write/flush."""

    def test_stale_prefetch_discarded_after_invalidate(self):
        body = b"old-old-old-old-old-old-old-old-"
        cache, origin = make_cache(body, block_size=8, readahead=4,
                                   windowed=True)
        cache.read(0, 8)
        cache.read(8, 8)   # read-ahead snapshots the *old* body
        assert cache.prefetch_issued > 0
        origin.body.setvalue(b"new-new-new-new-new-new-new-new-")
        cache.invalidate()
        assert cache.read(16, 8) == b"new-new-"

    def test_stale_prefetch_does_not_clobber_buffered_write(self):
        body = b"0" * 64
        cache, origin = make_cache(body, block_size=8, readahead=4,
                                   windowed=True, batched=True,
                                   writeback=True)
        cache.write(25, b"Z")   # block 3 partially dirty, not valid
        cache.read(0, 8)
        cache.read(8, 8)        # read-ahead snapshots block 3 without Z
        assert cache.read(24, 8) == b"0Z000000"

    def test_stale_prefetch_does_not_clobber_flushed_write(self):
        body = b"0" * 64
        cache, origin = make_cache(body, block_size=8, readahead=4,
                                   windowed=True, batched=True,
                                   writeback=True)
        cache.write(25, b"Z")   # buffered; origin still all zeros
        cache.read(0, 8)
        cache.read(8, 8)        # read-ahead snapshots block 3 pre-flush
        cache.flush()           # origin now has Z; dirty range cleared
        assert cache.read(24, 8) == b"0Z000000"


class TestValidation:
    def test_bad_block_size(self):
        with pytest.raises(CacheError):
            BlockCache(fetch=lambda o, s: b"", push=lambda o, d: 0,
                       store=MemoryDataPart(), block_size=0)

    def test_bad_max_blocks(self):
        with pytest.raises(CacheError):
            BlockCache(fetch=lambda o, s: b"", push=lambda o, d: 0,
                       store=MemoryDataPart(), max_blocks=0)

    def test_bad_readahead(self):
        with pytest.raises(CacheError):
            BlockCache(fetch=lambda o, s: b"", push=lambda o, d: 0,
                       store=MemoryDataPart(), readahead=-1)

    def test_bad_writeback_bytes(self):
        with pytest.raises(CacheError):
            BlockCache(fetch=lambda o, s: b"", push=lambda o, d: 0,
                       store=MemoryDataPart(), writeback=True,
                       writeback_bytes=0)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(body=st.binary(min_size=1, max_size=200),
           block_size=st.sampled_from([1, 3, 8, 16]),
           reads=st.lists(st.tuples(st.integers(0, 220), st.integers(0, 64)),
                          max_size=10))
    def test_cached_reads_match_origin(self, body, block_size, reads):
        cache, origin = make_cache(body, block_size=block_size)
        for offset, size in reads:
            assert cache.read(offset, size) == body[offset:offset + size]

    @settings(max_examples=60, deadline=None)
    @given(block_size=st.sampled_from([2, 4, 8]),
           ops=st.lists(
               st.one_of(
                   st.tuples(st.just("r"), st.integers(0, 64), st.integers(0, 24)),
                   st.tuples(st.just("w"), st.integers(0, 64),
                             st.binary(min_size=1, max_size=16)),
               ), max_size=14))
    def test_mixed_ops_match_reference(self, block_size, ops):
        body = b"0123456789" * 3
        cache, origin = make_cache(body, block_size=block_size)
        reference = ByteBuffer(body)
        for op in ops:
            if op[0] == "r":
                _, offset, size = op
                expected = reference.read_at(offset, size)
                assert cache.read(offset, size) == expected
            else:
                _, offset, data = op
                cache.write(offset, data)
                reference.write_at(offset, data)
        assert origin.body.getvalue() == reference.getvalue()

    @settings(max_examples=80, deadline=None)
    @given(block_size=st.sampled_from([2, 4, 8]),
           readahead=st.sampled_from([0, 2, 4, 16]),
           writeback_bytes=st.sampled_from([8, 1 << 20]),
           ops=st.lists(
               st.one_of(
                   st.tuples(st.just("r"), st.integers(0, 64), st.integers(0, 24)),
                   st.tuples(st.just("w"), st.integers(0, 64),
                             st.binary(min_size=1, max_size=16)),
                   st.tuples(st.just("f"), st.just(0), st.just(0)),
               ), max_size=14))
    def test_writeback_interleavings_match_reference(self, block_size,
                                                     readahead,
                                                     writeback_bytes, ops):
        """Write-behind + read-ahead is observationally a plain file:
        every read matches, and after the final flush so does the origin."""
        body = b"0123456789" * 3
        cache, origin = make_cache(body, block_size=block_size,
                                   readahead=readahead, windowed=True,
                                   writeback=True, batched=True,
                                   writeback_bytes=writeback_bytes)
        reference = ByteBuffer(body)
        for kind, offset, arg in ops:
            if kind == "r":
                expected = reference.read_at(offset, arg)
                assert cache.read(offset, arg) == expected
            elif kind == "w":
                cache.write(offset, arg)
                reference.write_at(offset, arg)
            else:
                cache.flush()
        cache.flush()
        assert origin.body.getvalue() == reference.getvalue()
        assert cache.dirty_bytes == 0
