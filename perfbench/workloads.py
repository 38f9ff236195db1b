"""The benchmark's three workloads: seeded initial bytes, payloads and op streams.

Every open of a workload is of a fresh container, driven by one
application thread at depth 1 (a closed loop: the next op is issued
only after the previous one returned).  The op stream is a pure
function of the seed, and every open replays it from the start; an
open consumes as much of it as its time allows.

An op is a tuple ``(kind, offset, size, shift)``: ``kind`` is ``"r"``
(seek + read), ``"w"`` (seek + write) or ``"s"`` (GetFileSize); a write
carries ``size`` bytes of the workload's seeded payload blob starting
at ``shift``, so consecutive writes differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

KiB = 1024
MiB = 1024 * KiB
PAGE = 4 * KiB

Op = tuple  # (kind, offset, size, shift)


def _aligned(rng: random.Random, limit: int, size: int) -> int:
    """A random PAGE-aligned offset with ``offset + size <= limit``."""
    return rng.randrange((limit - size) // PAGE + 1) * PAGE


def small_sync_ops(rng: random.Random, data_bytes: int) -> Iterator[Op]:
    """60% 4 KiB reads, 30% 4 KiB writes, 10% GetFileSize."""
    while True:
        pick = rng.random()
        shift = rng.randrange(64 * KiB)
        if pick < 0.6:
            yield ("r", _aligned(rng, data_bytes, PAGE), PAGE, 0)
        elif pick < 0.9:
            yield ("w", _aligned(rng, data_bytes, PAGE), PAGE, shift)
        else:
            yield ("s", 0, 0, 0)


def bulk_sync_ops(rng: random.Random, data_bytes: int) -> Iterator[Op]:
    """50% 1 MiB reads, 25% 64 KiB reads, 25% 1 MiB writes."""
    while True:
        pick = rng.random()
        shift = rng.randrange(64 * KiB)
        if pick < 0.5:
            yield ("r", _aligned(rng, data_bytes, MiB), MiB, 0)
        elif pick < 0.75:
            yield ("r", _aligned(rng, data_bytes, 64 * KiB), 64 * KiB, 0)
        else:
            yield ("w", _aligned(rng, data_bytes, MiB), MiB, shift)


def remote_cached_ops(rng: random.Random, data_bytes: int) -> Iterator[Op]:
    """85% sequential 16 KiB reads wrapping around, 15% random 4 KiB writes."""
    cursor = 0
    while True:
        pick = rng.random()
        shift = rng.randrange(64 * KiB)
        if pick < 0.85:
            yield ("r", cursor, 16 * KiB, 0)
            cursor = (cursor + 16 * KiB) % data_bytes
        else:
            yield ("w", _aligned(rng, data_bytes, PAGE), PAGE, shift)


@dataclass(frozen=True)
class Workload:
    name: str
    data_bytes: int
    ops: Callable[[random.Random, int], Iterator[Op]]
    #: Largest write, so the payload blob can serve every shift.
    max_write: int
    #: Ops per timed block, sized so one block takes roughly 50-100 ms.
    block_ops: int
    #: Ops run after the open and before timing starts.
    warmup_ops: int
    #: Reference echo payload and the echoes per interleaved block.
    ref_bytes: int
    ref_echoes: int
    #: Served by RemoteFileSentinel over a wall-clock WAN, else a null
    #: filter over a memory data part.
    remote: bool = False

    def stream(self, seed: int) -> Iterator[Op]:
        return self.ops(random.Random(seed), self.data_bytes)

    def initial_bytes(self, seed: int) -> bytes:
        return random.Random(f"data:{seed}").randbytes(self.data_bytes)

    def payload_blob(self, seed: int) -> bytes:
        return random.Random(f"payload:{seed}").randbytes(
            self.max_write + 64 * KiB)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="small-sync",
            data_bytes=1 * MiB, ops=small_sync_ops, max_write=PAGE,
            block_ops=200, warmup_ops=300, ref_bytes=64, ref_echoes=400),
        Workload(
            name="bulk-sync",
            data_bytes=16 * MiB, ops=bulk_sync_ops, max_write=MiB,
            block_ops=40, warmup_ops=300, ref_bytes=MiB, ref_echoes=20),
        Workload(
            name="remote-cached",
            data_bytes=8 * MiB, ops=remote_cached_ops, max_write=PAGE,
            block_ops=100, warmup_ops=300, ref_bytes=64, ref_echoes=400,
            remote=True),
    )
}
