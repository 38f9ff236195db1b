"""Multi-open scaling: pooled sentinel host vs one process per open.

DESIGN.md §5 ablation 7 asks what multi-open concurrency costs under
each arrangement.  This benchmark opens one container N times
concurrently, does a small read workload per open, and closes — once
over the pooled multiplexed host (one child interpreter, N logical
channels) and once over the legacy arrangement (one child interpreter
per open: each open leases from its own ``SentinelHostPool(linger=0)``,
so its host retires when it closes).  The pooled path must win on
aggregate throughput at N >= 4: interpreter startup is paid once
instead of N times, and operations pipeline over one connection.
"""

import threading
import time

import pytest

from repro.core import create_active
from repro.core.container import Container
from repro.core.strategies import process_control
from tests.conftest import open_dedicated_session

NULL = "repro.sentinels.null:NullFilterSentinel"

#: Reads performed by each concurrent open.
OPS_PER_OPEN = 25
BLOCK = 1024


def run_opens(container: Container, n: int, pooled: bool) -> None:
    """N concurrent open -> read*OPS -> close cycles; joins all workers."""
    errors = []
    open_session = process_control.open_session if pooled \
        else open_dedicated_session

    def worker() -> None:
        try:
            session = open_session(container)
            try:
                for i in range(OPS_PER_OPEN):
                    session.read_at((i * BLOCK) % 65536, BLOCK)
            finally:
                session.close()
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


@pytest.fixture
def container(tmp_path):
    path = tmp_path / "multi.af"
    create_active(path, NULL, data=b"\x00" * 65536)
    return Container.load(str(path))


@pytest.mark.parametrize("n_opens", [4, 8])
def test_pooled_host_beats_per_open_spawn(container, n_opens):
    """Aggregate throughput: pooled multiplexed > legacy per-open spawn."""
    # warm-up: pay one-time import/spawn costs outside the timed region
    run_opens(container, 2, pooled=True)
    run_opens(container, 2, pooled=False)

    started = time.perf_counter()
    run_opens(container, n_opens, pooled=True)
    pooled_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    run_opens(container, n_opens, pooled=False)
    legacy_elapsed = time.perf_counter() - started

    pooled_rate = n_opens * OPS_PER_OPEN / pooled_elapsed
    legacy_rate = n_opens * OPS_PER_OPEN / legacy_elapsed
    print(f"\nn={n_opens}: pooled {pooled_elapsed:.3f}s "
          f"({pooled_rate:.0f} ops/s) vs per-open spawn "
          f"{legacy_elapsed:.3f}s ({legacy_rate:.0f} ops/s)")
    assert pooled_elapsed < legacy_elapsed, (
        f"pooled host ({pooled_elapsed:.3f}s) did not beat per-open "
        f"spawn ({legacy_elapsed:.3f}s) at {n_opens} concurrent opens")


@pytest.mark.parametrize("n_opens", [4])
def test_pooled_open_close_cycle(benchmark, container, n_opens):
    """pytest-benchmark timing for the pooled path (trend tracking)."""
    benchmark.group = "multiplex-opens"
    run_opens(container, 2, pooled=True)  # warm the pool
    benchmark(run_opens, container, n_opens, True)
    benchmark.extra_info["n_opens"] = n_opens
    benchmark.extra_info["ops_per_open"] = OPS_PER_OPEN
