"""Pipelined cache benchmark: read-ahead and write-behind vs the
synchronous per-block paths (ISSUE PR 2 acceptance numbers).

The origin is a :class:`FileServer` behind a simulated WAN-ish link
(500 µs one-way latency, 1 Gbps) on a :class:`WallClock`, so every
exchange really costs wall time and latency dominates per-block
round trips.  The client runs the process-control strategy — the full
multiplexed-channel stack, bridge included.

* read-ahead: a sequential 1 MiB scan in 4 KiB reads with a 32-block
  prefetch window must beat the same scan with one synchronous origin
  exchange per block by >= 3x, and must fetch a full window per origin
  exchange (at most ``NBLOCKS // READAHEAD + 6`` exchanges).
* write-behind: writing 1 MiB in 4 KiB chunks with coalesced flushing
  must beat write-through (one origin exchange per write) by >= 2x.

Each run appends its numbers (ops/s, per-op p50/p95) to
``BENCH_cache.json`` so CI can archive the artifact.
"""

import json
import os
import time

import pytest

from repro.core import create_active, open_active
from repro.net import Address, FileServer, LinkProfile, Network, WallClock

REMOTE = "repro.sentinels.remotefile:RemoteFileSentinel"

BLOCK = 4096
TOTAL = 1024 * 1024          # 1 MiB workload
NBLOCKS = TOTAL // BLOCK
READAHEAD = 32               # max prefetch window, in blocks
WRITEBACK_BYTES = 256 * 1024

#: Where the numbers land; CI uploads this file as an artifact.
RESULTS_PATH = os.environ.get("BENCH_CACHE_JSON", "BENCH_cache.json")

_results: dict[str, dict] = {}


def _record(name: str, elapsed: float, per_op: list[float], **extra) -> None:
    ordered = sorted(per_op)
    entry = {
        "elapsed_s": round(elapsed, 4),
        "ops": len(per_op),
        "ops_per_s": round(len(per_op) / elapsed, 1),
        "p50_us": round(ordered[len(ordered) // 2] * 1e6, 1),
        "p95_us": round(ordered[int(len(ordered) * 0.95)] * 1e6, 1),
        **extra,
    }
    _results[name] = entry
    with open(RESULTS_PATH, "w") as handle:
        json.dump({"block_size": BLOCK, "total_bytes": TOTAL,
                   "link": {"latency_us": 500.0, "bandwidth_mbps": 1000.0},
                   "strategy": "process-control",
                   "results": _results}, handle, indent=2)
    print(f"\n{name}: {entry}")


@pytest.fixture
def wan():
    """A network whose exchanges cost real wall time."""
    network = Network(profile=LinkProfile(latency_us=500.0,
                                          bandwidth_mbps=1000.0),
                      clock=WallClock())
    server = network.bind(Address("origin", 7000), FileServer())
    return network, server


def _make_remote(tmp_path, name, **params):
    path = tmp_path / f"{name}.af"
    create_active(path, REMOTE,
                  params={"address": "origin:7000", "path": "data/blob",
                          "cache": "memory", "block_size": BLOCK, **params},
                  meta={"data": "memory"})
    return str(path)


def _timed_scan(path, network):
    """Sequential 1 MiB read in 4 KiB steps; returns (elapsed, per-op,
    cache stats, origin exchanges during the timed scan)."""
    per_op = []
    with open_active(path, "rb", strategy="process-control",
                     network=network) as stream:
        stream.read(BLOCK)  # warm-up: open + first fault outside timing
        stream.seek(0)
        requests_before = network.stats.requests
        started = time.perf_counter()
        for _ in range(NBLOCKS):
            op_started = time.perf_counter()
            chunk = stream.read(BLOCK)
            per_op.append(time.perf_counter() - op_started)
            assert len(chunk) == BLOCK
        elapsed = time.perf_counter() - started
        origin_requests = network.stats.requests - requests_before
        stats = stream.cache_stats()
    return elapsed, per_op, stats, origin_requests


def _timed_write(path, network, payload):
    """Sequential 1 MiB write in 4 KiB steps; flush included in timing."""
    per_op = []
    with open_active(path, "r+b", strategy="process-control",
                     network=network) as stream:
        started = time.perf_counter()
        for i in range(NBLOCKS):
            op_started = time.perf_counter()
            stream.write(payload)
            per_op.append(time.perf_counter() - op_started)
        stream.flush()
        elapsed = time.perf_counter() - started
        stats = stream.cache_stats()
    return elapsed, per_op, stats


def test_readahead_speedup(tmp_path, wan):
    network, server = wan
    server.put_file("data/blob", os.urandom(TOTAL))

    sync_path = _make_remote(tmp_path, "sync")                # miss per block
    pipelined_path = _make_remote(tmp_path, "pipelined",
                                  readahead=READAHEAD)

    sync_elapsed, sync_ops, _, _ = _timed_scan(sync_path, network)
    pipe_elapsed, pipe_ops, stats, origin_requests = _timed_scan(
        pipelined_path, network)

    _record("read_sync_miss_per_block", sync_elapsed, sync_ops)
    _record("read_pipelined", pipe_elapsed, pipe_ops,
            readahead=READAHEAD,
            prefetch_issued=stats["prefetch_issued"],
            prefetch_used=stats["prefetch_used"],
            origin_requests=origin_requests)

    assert stats["prefetch_issued"] > 0
    # One origin exchange per full window: half-window refills would
    # need about twice as many.
    assert origin_requests <= NBLOCKS // READAHEAD + 6, (
        f"{origin_requests} origin exchanges for {NBLOCKS} blocks "
        f"at a {READAHEAD}-block window")
    speedup = sync_elapsed / pipe_elapsed
    _results["read_pipelined"]["speedup"] = round(speedup, 2)
    assert speedup >= 3.0, (
        f"read-ahead speedup {speedup:.2f}x < 3x "
        f"({sync_elapsed:.3f}s vs {pipe_elapsed:.3f}s)")


def test_writeback_speedup(tmp_path, wan):
    network, server = wan
    server.put_file("data/blob", bytes(TOTAL))
    payload = b"\xa5" * BLOCK

    through_path = _make_remote(tmp_path, "through")          # write-through
    behind_path = _make_remote(tmp_path, "behind", writeback=True,
                               writeback_bytes=WRITEBACK_BYTES)

    through_elapsed, through_ops, _ = _timed_write(through_path, network,
                                                   payload)
    behind_elapsed, behind_ops, stats = _timed_write(behind_path, network,
                                                     payload)

    _record("write_through", through_elapsed, through_ops)
    _record("write_behind", behind_elapsed, behind_ops,
            writeback_bytes=WRITEBACK_BYTES,
            coalesced_flushes=stats["coalesced_flushes"])

    assert server.get_file("data/blob")[:TOTAL] == payload * NBLOCKS
    assert stats["coalesced_flushes"] >= 1
    speedup = through_elapsed / behind_elapsed
    _results["write_behind"]["speedup"] = round(speedup, 2)
    assert speedup >= 2.0, (
        f"write-behind speedup {speedup:.2f}x < 2x "
        f"({through_elapsed:.3f}s vs {behind_elapsed:.3f}s)")
