"""Shared-memory data plane benchmark (ISSUE PR 5 acceptance numbers).

Two transport legs over the same process-control stack, same child,
same container — only the bulk-byte path differs:

* ``inline``  — everything on the pipe: the host's shared-memory plane
  fails to come up, as on a machine without ``/dev/shm``;
* ``shm``     — payloads of 32 KiB and more ride the per-host slab.

Both legs use the binary hot-op headers (there is no switch for them).

Two workload shapes per block size:

* *synchronous* ``read_at``/``write_at`` — one command in flight, so
  round-trip latency bounds small blocks for every leg alike;
* *sequential bulk* — vectored ``read_multi``/``write_extents`` (the
  cache-flush / scatter-gather shape) and ``read_at_into``, where
  latency amortizes and the byte path dominates.  This is where the
  plane pays: the acceptance gate asserts shm beats inline here for
  64 KiB+ blocks.

Numbers land in ``BENCH_shm.json`` (schema-guarded by
``benchmarks/test_bench_schema.py``); CI archives the artifact.
"""

import json
import os
import time

import pytest

from repro.core import runner
from repro.core.container import Container
from repro.core.spec import SentinelSpec
from tests.conftest import no_shm_plane, open_dedicated_session

SPEC = SentinelSpec("repro.sentinels.null:NullFilterSentinel")

RESULTS_PATH = os.environ.get("BENCH_SHM_JSON", "BENCH_shm.json")

#: Block-size axis: below / at / far above the 32 KiB shm threshold.
BLOCKS = (4096, 65536, 1048576)

#: Bytes moved per measurement (per repetition).
TOTAL = 16 * 1024 * 1024

#: Best-of repetitions (first repetition also warms the slab and pools).
REPS = 3

#: The gate: sequential-bulk shm throughput vs the inline leg at 64 KiB+.
#: Typical runs show 2-3.7x; asserted with headroom against noisy CI.
MIN_BULK_SPEEDUP = 1.5

LEGS = ("inline", "shm")

_results: dict[str, dict] = {}


def _flush(block: int) -> None:
    with open(RESULTS_PATH, "w") as handle:
        json.dump({"block_size": block, "total_bytes": TOTAL,
                   "strategy": "process-control",
                   "legs": sorted(LEGS),
                   "results": _results}, handle, indent=2)


def _record(name: str, entry: dict, block: int) -> None:
    _results[name] = entry
    _flush(block)
    print(f"\n{name}: {entry}")


def _measure(leg: str, block: int, tmp_path) -> dict[str, float]:
    """One leg at one block size: MB/s per workload shape, best-of."""
    with pytest.MonkeyPatch.context() as patch:
        if leg == "inline":
            patch.setattr(runner, "ShmPlane", no_shm_plane)
        path = tmp_path / f"{leg}-{block}.af"
        container = Container.create(path, SPEC, data=b"")
        session = open_dedicated_session(container)
        try:
            nblocks = TOTAL // block
            data = b"\xab" * block
            extents = [(i * block, block) for i in range(nblocks)]
            writes = [(i * block, data) for i in range(nblocks)]
            sink = bytearray(TOTAL)
            best: dict[str, float] = {}

            def run(shape: str, fn) -> None:
                start = time.perf_counter()
                fn()
                rate = TOTAL / (time.perf_counter() - start) / 2**20
                best[shape] = max(best.get(shape, 0.0), rate)

            def sync_writes():
                for offset, chunk in writes:
                    session.write_at(offset, chunk)

            def sync_reads():
                for offset, size in extents:
                    session.read_at(offset, size)

            for _ in range(REPS):
                run("write_sync", sync_writes)
                run("read_sync", sync_reads)
                run("write_seq", lambda: session.write_extents(writes))
                run("read_seq", lambda: session.read_multi(extents))
                run("read_into",
                    lambda: session.read_at_into(0, memoryview(sink)))
            return {shape: round(rate, 1) for shape, rate in best.items()}
        finally:
            session.close()


@pytest.mark.parametrize("block", BLOCKS)
def test_shm_plane_throughput(tmp_path, block):
    measured = {leg: _measure(leg, block, tmp_path) for leg in LEGS}
    for leg, rates in measured.items():
        _record(f"{leg}_{block}", {"block": block, **rates}, block)

    speedups = {
        shape: round(measured["shm"][shape] / measured["inline"][shape], 2)
        for shape in measured["shm"]
    }
    _record(f"speedup_{block}", {"block": block, **speedups}, block)

    if block >= 65536:
        # The acceptance gate: sequential bulk transfers must beat the
        # inline baseline decisively once blocks clear the threshold.
        for shape in ("read_seq", "write_seq", "read_into"):
            assert speedups[shape] >= MIN_BULK_SPEEDUP, \
                f"{shape}@{block}: shm {measured['shm'][shape]} MB/s vs " \
                f"inline {measured['inline'][shape]} MB/s " \
                f"({speedups[shape]}x < {MIN_BULK_SPEEDUP}x)"
    else:
        # Below the threshold shm must get out of the way: payloads stay
        # inline and throughput stays within noise of the baseline.
        assert speedups["read_sync"] > 0.5
        assert speedups["write_sync"] > 0.5
