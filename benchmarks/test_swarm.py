"""Swarm load benchmark: hundreds of concurrent opens on ONE host.

The event-loop host's reason to exist is "multiple opens spawn multiple
synchronizing sentinels" at a scale thread-per-channel never reached.
This benchmark opens ``REPRO_SWARM_CHANNELS`` logical sessions (default
500) on a single pooled host child, hammers them with a mixed
read/write/stat workload from a fixed driver-thread pool, and reports
p50/p95/p99 latency against a declared SLO — the trajectory's first
"heavy traffic" number.

Artifact: ``BENCH_swarm.json`` at the repo root, schema-guarded by
``benchmarks/test_bench_schema.py`` (section ``mixed_swarm``).

Environment knobs (CI smoke runs reduced):

* ``REPRO_SWARM_CHANNELS`` — concurrent logical channels (default 500)
* ``REPRO_SWARM_OPS``      — rounds of one-op-per-channel (default 20)
* ``REPRO_SWARM_SLO_US``   — p95 SLO in microseconds (default 500000;
  at full width the host carries ~500 concurrent ops, so most of the
  tail is honest queueing delay — the SLO bounds regression, with
  headroom for slow CI machines)
"""

import json
import os
import pathlib
import threading
import time

from benchmarks.conftest import BENCH_SWARM_RESULT_KEYS, check_bench_schema
from repro.core import create_active
from repro.core.control import raise_for_response
from repro.core.runner import SentinelHost

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

NULL = "repro.sentinels.null:NullFilterSentinel"

SWARM_CHANNELS = int(os.environ.get("REPRO_SWARM_CHANNELS", "500"))
OPS_PER_CHANNEL = int(os.environ.get("REPRO_SWARM_OPS", "20"))
SLO_P95_US = int(os.environ.get("REPRO_SWARM_SLO_US", "500000"))

#: Fixed driver-thread pool: the clients are synthetic, the host is
#: the system under test — more driver threads would measure the
#: driver, not the host.
DRIVERS = 16

BLOCK = 4096
DATA_BYTES = 64 * 1024

#: Deterministic mixed workload: mostly reads, a write stripe, a stat.
MIX = ("read", "read", "read", "write", "write", "size")


def _op_fields(kind: str, chan_index: int, round_index: int):
    """One operation of the mix, offsets spread across the data part."""
    offset = ((chan_index * 7919 + round_index * 104729) * BLOCK) \
        % (DATA_BYTES - BLOCK)
    if kind == "read":
        return {"cmd": "read", "offset": offset, "size": BLOCK}, b""
    if kind == "write":
        return {"cmd": "write", "offset": offset}, b"w" * BLOCK
    return {"cmd": "size"}, b""


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def test_swarm_mixed_load(tmp_path):
    path = tmp_path / "swarm.af"
    create_active(path, NULL, data=b"s" * DATA_BYTES,
                  meta={"data": "memory"})
    host = SentinelHost(str(path))
    try:
        chans = [host.open("process-control", timeout=60.0)
                 for _ in range(SWARM_CHANNELS)]

        latencies_by_driver = [[] for _ in range(DRIVERS)]
        moved_by_driver = [0] * DRIVERS
        errors: list[BaseException] = []

        def drive(driver_index: int) -> None:
            # Each driver owns a slice of channels and keeps exactly one
            # op in flight per channel per round: at full width the host
            # sees SWARM_CHANNELS concurrent operations.
            mine = chans[driver_index::DRIVERS]
            base = driver_index
            lats = latencies_by_driver[driver_index]
            try:
                for round_index in range(OPS_PER_CHANNEL):
                    batch = []
                    for j, chan in enumerate(mine):
                        kind = MIX[(base + j + round_index) % len(MIX)]
                        fields, payload = _op_fields(kind, base + j,
                                                     round_index)
                        started = time.monotonic()
                        pending = host.channel.request_async(
                            chan, fields, payload)
                        batch.append((started, pending, len(payload)))
                    for started, pending, sent in batch:
                        reply, out_payload = pending.wait(60.0)
                        lats.append(time.monotonic() - started)
                        raise_for_response(reply)
                        moved_by_driver[driver_index] += sent \
                            + len(out_payload)
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(i,), daemon=True)
                   for i in range(DRIVERS)]
        wall_start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.monotonic() - wall_start
        assert not errors, f"swarm drivers failed: {errors[:3]}"

        info = host.ping(timeout=30.0)
        latencies = sorted(lat for lats in latencies_by_driver
                           for lat in lats)
        total_ops = len(latencies)
        assert total_ops == SWARM_CHANNELS * OPS_PER_CHANNEL
        p50_us = _percentile(latencies, 0.50) * 1e6
        p95_us = _percentile(latencies, 0.95) * 1e6
        p99_us = _percentile(latencies, 0.99) * 1e6
        # Where did the tail come from?  The host splits end-to-end
        # latency into channel-FIFO wait vs handler execution;
        # at full swarm width the wait share is the honest queueing.
        lat = info.get("lat", {})

        doc = {
            "block_size": BLOCK,
            "total_bytes": sum(moved_by_driver),
            "strategy": "process-control",
            "results": {
                "mixed_swarm": {
                    "channels": SWARM_CHANNELS,
                    "ops": total_ops,
                    "elapsed_s": round(elapsed, 4),
                    "ops_per_s": round(total_ops / elapsed, 1)
                    if elapsed else 0.0,
                    "p50_us": round(p50_us, 1),
                    "p95_us": round(p95_us, 1),
                    "p99_us": round(p99_us, 1),
                    "slo_p95_us": SLO_P95_US,
                    "host_threads": int(info["threads"]),
                    "queue_wait_p50_us": round(
                        float(lat.get("queue_wait_p50_us", 0.0)), 1),
                    "queue_wait_p95_us": round(
                        float(lat.get("queue_wait_p95_us", 0.0)), 1),
                    "service_p50_us": round(
                        float(lat.get("service_p50_us", 0.0)), 1),
                    "service_p95_us": round(
                        float(lat.get("service_p95_us", 0.0)), 1),
                },
            },
        }
        check_bench_schema(doc, BENCH_SWARM_RESULT_KEYS,
                           name="BENCH_swarm.json")
        (REPO_ROOT / "BENCH_swarm.json").write_text(
            json.dumps(doc, indent=2) + "\n")
        print(f"\nswarm: {SWARM_CHANNELS} channels x {OPS_PER_CHANNEL} ops "
              f"in {elapsed:.2f}s ({total_ops / elapsed:,.0f} op/s) "
              f"p50={p50_us:.0f}us p95={p95_us:.0f}us p99={p99_us:.0f}us "
              f"host_threads={info['threads']} "
              f"qwait_p95={lat.get('queue_wait_p95_us', 0):.0f}us "
              f"service_p95={lat.get('service_p95_us', 0):.0f}us")

        # The acceptance bar: the swarm was sustained (every channel
        # served every round), under SLO, on an O(1)-thread host.
        assert int(info["sessions"]) == SWARM_CHANNELS
        assert p95_us < SLO_P95_US, \
            f"p95 {p95_us:.0f}us breaches the {SLO_P95_US}us SLO"
        assert int(info["threads"]) <= 8
    finally:
        host.shutdown()
