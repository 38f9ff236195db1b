"""Schema drift guard for the published benchmark artifacts.

``BENCH_cache.json`` and ``BENCH_recovery.json`` are uploaded from CI
and read by comparison tooling, so their key sets are a contract:
sections and measurements may be *added*, but an existing key vanishing
(or changing to a non-numeric value) must fail the build.  The checked
-in copies at the repo root are validated here; the CI benchmark jobs
re-run this module after regenerating the files, so a code change that
silently drops a key is caught in the same job that produced it.
"""

import json
import pathlib

import pytest

from benchmarks.conftest import (
    BENCH_CACHE_RESULT_KEYS,
    BENCH_FANOUT_RESULT_KEYS,
    BENCH_RECOVERY_RESULT_KEYS,
    BENCH_SHM_RESULT_KEYS,
    BENCH_SWARM_RESULT_KEYS,
    check_bench_schema,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name: str) -> dict:
    path = REPO_ROOT / name
    if not path.exists():
        pytest.skip(f"{name} not present (benchmark not yet run)")
    return json.loads(path.read_text())


def test_bench_cache_schema():
    check_bench_schema(_load("BENCH_cache.json"), BENCH_CACHE_RESULT_KEYS,
                       name="BENCH_cache.json")


def test_bench_recovery_schema():
    check_bench_schema(_load("BENCH_recovery.json"),
                       BENCH_RECOVERY_RESULT_KEYS,
                       name="BENCH_recovery.json")


def test_bench_shm_schema():
    check_bench_schema(_load("BENCH_shm.json"), BENCH_SHM_RESULT_KEYS,
                       name="BENCH_shm.json")


def test_bench_swarm_schema():
    check_bench_schema(_load("BENCH_swarm.json"), BENCH_SWARM_RESULT_KEYS,
                       name="BENCH_swarm.json")


def test_bench_fanout_schema():
    check_bench_schema(_load("BENCH_fanout.json"), BENCH_FANOUT_RESULT_KEYS,
                       name="BENCH_fanout.json")


def test_schema_checker_rejects_dropped_key():
    doc = json.loads((REPO_ROOT / "BENCH_recovery.json").read_text()) \
        if (REPO_ROOT / "BENCH_recovery.json").exists() else None
    if doc is None:
        pytest.skip("BENCH_recovery.json not present")
    del doc["results"]["kill_to_first_read"]["p50_ms"]
    with pytest.raises(AssertionError, match="p50_ms"):
        check_bench_schema(doc, BENCH_RECOVERY_RESULT_KEYS)
