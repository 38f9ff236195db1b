"""Shared helpers for the benchmark harness: the published key sets of
every ``BENCH_*.json`` artifact and the check that holds them.
"""

#: Required top-level keys of every BENCH_*.json artifact.
BENCH_TOP_KEYS = ("block_size", "total_bytes", "strategy", "results")

#: Required per-section result keys of BENCH_cache.json — downstream
#: dashboards key on these names; renaming one is a breaking change.
BENCH_CACHE_RESULT_KEYS = {
    "read_sync_miss_per_block": ("elapsed_s", "ops", "ops_per_s",
                                 "p50_us", "p95_us"),
    "read_pipelined": ("elapsed_s", "ops", "ops_per_s", "p50_us", "p95_us",
                       "readahead", "prefetch_issued", "prefetch_used",
                       "origin_requests", "speedup"),
    "write_through": ("elapsed_s", "ops", "ops_per_s", "p50_us", "p95_us"),
    "write_behind": ("elapsed_s", "ops", "ops_per_s", "p50_us", "p95_us",
                     "writeback_bytes", "coalesced_flushes"),
}

#: Required per-section result keys of BENCH_recovery.json.
BENCH_RECOVERY_RESULT_KEYS = {
    "kill_to_first_read": ("samples", "min_ms", "p50_ms", "max_ms",
                           "mean_ms", "kills", "respawns"),
}

#: Workload shapes measured by benchmarks/test_shm_plane.py (MB/s each).
BENCH_SHM_SHAPES = ("write_sync", "read_sync", "write_seq", "read_seq",
                    "read_into")

#: Required per-section result keys of BENCH_shm.json: one section per
#: transport leg per block size, plus a speedup section per block size.
BENCH_SHM_RESULT_KEYS = {
    f"{section}_{block}": ("block",) + BENCH_SHM_SHAPES
    for block in (4096, 65536, 1048576)
    for section in ("inline", "shm", "speedup")
}


#: Required per-section result keys of BENCH_swarm.json — the "heavy
#: traffic" artifact of benchmarks/test_swarm.py.  The ``queue_wait_*``
#: / ``service_*`` keys split end-to-end latency into time spent in the
#: host's channel FIFO vs time actually executing.
BENCH_SWARM_RESULT_KEYS = {
    "mixed_swarm": ("channels", "ops", "elapsed_s", "ops_per_s",
                    "p50_us", "p95_us", "p99_us", "slo_p95_us",
                    "host_threads",
                    "queue_wait_p50_us", "queue_wait_p95_us",
                    "service_p50_us", "service_p95_us"),
}


#: Per-leg measurement keys shared by both legs of BENCH_fanout.json.
_BENCH_FANOUT_LEG_KEYS = ("subscribers", "rounds", "reads", "bytes_read",
                          "elapsed_s", "reads_per_s", "read_mbps",
                          "origin_requests", "p50_us", "p95_us")

#: Required per-section result keys of BENCH_fanout.json — the
#: coherence/fan-out artifact of benchmarks/test_fanout.py (PR 10).
BENCH_FANOUT_RESULT_KEYS = {
    "independent_caches": _BENCH_FANOUT_LEG_KEYS,
    "coherent_fanout": _BENCH_FANOUT_LEG_KEYS + (
        "fresh_read_p50_ms", "fresh_read_p95_ms", "fresh_read_slo_ms",
        "published", "delivered", "lease_invalidated"),
    "speedup": ("aggregate_read_throughput", "origin_request_reduction"),
}


def check_bench_schema(doc, result_keys, *, name="benchmark json"):
    """Assert a BENCH_*.json document keeps its published keys.

    Extra keys are fine (the schema may grow); missing or non-numeric
    published keys fail loudly with the offending path.
    """
    missing = [key for key in BENCH_TOP_KEYS if key not in doc]
    assert not missing, f"{name}: missing top-level keys {missing}"
    results = doc["results"]
    for section, keys in result_keys.items():
        assert section in results, f"{name}: missing results[{section!r}]"
        for key in keys:
            assert key in results[section], \
                f"{name}: missing results[{section!r}][{key!r}]"
            value = results[section][key]
            assert isinstance(value, (int, float)), \
                f"{name}: results[{section!r}][{key!r}] is {type(value).__name__}"
