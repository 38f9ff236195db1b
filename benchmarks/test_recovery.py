"""Recovery benchmark: kill-to-first-successful-read latency (PR 3).

The workload reads a remote active file over the process-control
strategy while the sentinel host is SIGKILLed at known points.  The
number that matters is the *recovery latency*: from the moment the host
process is dead to the moment the next read returns correct bytes —
supervision detecting the crash, the pool respawning a host, the lease
re-opening the session, the journal replaying, and the retried read
completing.

Each run writes its numbers to ``BENCH_recovery.json`` so CI can
archive the artifact.
"""

import json
import os
import signal
import time

import pytest

from repro.core import create_active, open_active
from repro.net import Address, FileServer, Network

REMOTE = "repro.sentinels.remotefile:RemoteFileSentinel"

BLOCK = 4096
TOTAL = 256 * 1024           # 256 KiB workload
KILLS = 5                    # recovery samples per run

#: Bound on the median recovery.  Ten runs on a 2-vCPU VM read p50s of
#: 247-305 ms (median 286); the bound is that median plus nine times
#: their 57 ms spread, so a respawn that waits out a timeout, or spawns
#: a much slower host, fails here.
RECOVERY_P50_BOUND_S = 0.8

#: Where the numbers land; CI uploads this file as an artifact.
RESULTS_PATH = os.environ.get("BENCH_RECOVERY_JSON", "BENCH_recovery.json")

_results: dict[str, dict] = {}


def _record(name: str, samples: list[float], **extra) -> None:
    ordered = sorted(samples)
    entry = {
        "samples": len(samples),
        "min_ms": round(ordered[0] * 1e3, 2),
        "p50_ms": round(ordered[len(ordered) // 2] * 1e3, 2),
        "max_ms": round(ordered[-1] * 1e3, 2),
        "mean_ms": round(sum(samples) / len(samples) * 1e3, 2),
        **extra,
    }
    _results[name] = entry
    with open(RESULTS_PATH, "w") as handle:
        json.dump({"block_size": BLOCK, "total_bytes": TOTAL,
                   "strategy": "process-control",
                   "results": _results}, handle, indent=2)
    print(f"\n{name}: {entry}")


@pytest.fixture
def origin():
    network = Network()
    server = network.bind(Address("origin", 7000), FileServer())
    content = bytes((3 * i + (i >> 7)) % 256 for i in range(TOTAL))
    server.put_file("data/blob", content)
    return network, content


def test_kill_to_first_successful_read(tmp_path, origin):
    network, content = origin
    path = tmp_path / "blob.af"
    create_active(path, REMOTE,
                  params={"address": "origin:7000", "path": "data/blob",
                          "cache": "memory", "block_size": BLOCK},
                  meta={"data": "memory"})

    stream = open_active(str(path), "rb", strategy="process-control",
                         network=network)
    nblocks = TOTAL // BLOCK
    kill_every = nblocks // (KILLS + 1)
    samples = []
    out = bytearray()
    for i in range(nblocks):
        if len(samples) < KILLS and i > 0 and i % kill_every == 0:
            proc = stream.session.host.proc
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            killed_at = time.perf_counter()
            chunk = stream.read(BLOCK)
            samples.append(time.perf_counter() - killed_at)
        else:
            chunk = stream.read(BLOCK)
        assert len(chunk) == BLOCK
        out += chunk
    respawns = stream.session._lease.respawns
    stream.close()

    assert bytes(out) == content          # recovery never corrupted data
    assert respawns == KILLS
    _record("kill_to_first_read", samples, kills=KILLS, respawns=respawns)

    # Recovery is respawn + backoff + replay.
    p50 = sorted(samples)[len(samples) // 2]
    assert p50 < RECOVERY_P50_BOUND_S, \
        f"median recovery latency {p50:.2f}s too slow"
