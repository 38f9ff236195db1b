"""Submission-ring batching benchmark.

Two legs over the same process-control stack, same child, same
container — only the submission machinery differs:

* ``unbatched`` — every op is its own frame (``REPRO_NO_BATCH``);
* ``batched``   — the submission/completion ring coalesces pipelined
  ops into multi-op frames.

The workload is a *pipelined 4 KiB read stream*: many ops in flight on
one channel, where the ring amortizes frame and wakeup cost.  The
acceptance gate: batched throughput ≥ 1.5x the unbatched baseline.

Numbers land in ``BENCH_adaptive.json`` (schema-guarded by
``benchmarks/test_bench_schema.py``); CI archives the artifact.

Environment knob (CI smoke runs reduced):

* ``REPRO_ADAPTIVE_STREAM_OPS`` — pipelined stream ops (default 600)
"""

import json
import os
import pathlib
import time

from benchmarks.conftest import (BENCH_ADAPTIVE_RESULT_KEYS,
                                 check_bench_schema)
from repro.core.container import Container
from repro.core.control import raise_for_response
from repro.core.spec import SentinelSpec
from repro.core.strategies import process_control

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SPEC = SentinelSpec("repro.sentinels.null:NullFilterSentinel")

RESULTS_PATH = os.environ.get("BENCH_ADAPTIVE_JSON", "BENCH_adaptive.json")

STREAM_OPS = int(os.environ.get("REPRO_ADAPTIVE_STREAM_OPS", "600"))
STREAM_BLOCK = 4096
STREAM_WINDOW = 64  # ops kept in flight on the streaming channel

#: Best-of repetitions (the first also warms the pools) — the same
#: noise filter test_shm_plane uses.
REPS = 3

#: The batching gate: pipelined 4 KiB stream op/s vs the unbatched
#: baseline.
MIN_STREAM_SPEEDUP = 1.5

#: Per-leg environment.  ``REPRO_NO_BATCH`` is read once when the
#: host's channel is built, so it only needs to hold while opening; the
#: legs then share one interleaved measurement schedule (rep by rep,
#: leg by leg) and machine drift hits both alike.
LEGS = {
    "unbatched": {"REPRO_NO_BATCH": "1"},
    "batched": {},
}

DATA_BYTES = 1024 * 1024


def _stream_pass(session) -> float:
    """One pass of the pipelined 4 KiB read stream; elapsed seconds."""
    lease = session._lease
    span = DATA_BYTES - STREAM_BLOCK
    pendings = []
    done = 0
    started = time.perf_counter()
    for i in range(STREAM_OPS):
        pendings.append(lease.request_async(
            {"cmd": "read", "offset": (i * STREAM_BLOCK) % span,
             "size": STREAM_BLOCK}))
        if len(pendings) >= STREAM_WINDOW:
            fields, _ = pendings.pop(0).wait(30.0)
            raise_for_response(fields)
            done += 1
    for pending in pendings:
        fields, _ = pending.wait(30.0)
        raise_for_response(fields)
        done += 1
    elapsed = time.perf_counter() - started
    assert done == STREAM_OPS
    return elapsed


def _measure(tmp_path, monkeypatch) -> dict[str, dict]:
    """Both legs, one interleaved schedule: best-of-REPS elapsed.

    Each repetition measures every leg back-to-back, so a machine
    slowdown lands on both legs of that rep and best-of discards it —
    sequential per-leg measurement was dominated by exactly that drift.
    """
    sessions = {}
    try:
        for leg, env in LEGS.items():
            with monkeypatch.context() as patch:
                for key, value in env.items():
                    patch.setenv(key, value)
                container = Container.create(tmp_path / f"{leg}.af", SPEC,
                                             data=b"\xca" * DATA_BYTES)
                sessions[leg] = process_control.open_session(
                    container, pooled=False)
        best = dict.fromkeys(LEGS, float("inf"))
        for _ in range(REPS):
            for leg, session in sessions.items():
                best[leg] = min(best[leg], _stream_pass(session))
        return {leg: {"ops": STREAM_OPS, "elapsed_s": round(elapsed, 4),
                      "ops_per_s": round(STREAM_OPS / elapsed, 1)}
                for leg, elapsed in best.items()}
    finally:
        for session in sessions.values():
            session.close()


def test_ring_batching(tmp_path, monkeypatch):
    measured = _measure(tmp_path, monkeypatch)
    results = {f"stream_{leg}": entry for leg, entry in measured.items()}
    speedup = round(measured["batched"]["ops_per_s"]
                    / measured["unbatched"]["ops_per_s"], 2)
    results["stream_speedup"] = {"batched_vs_unbatched": speedup}
    for name, entry in results.items():
        print(f"\n{name}: {entry}")

    doc = {"block_size": STREAM_BLOCK, "total_bytes": DATA_BYTES,
           "strategy": "process-control", "legs": sorted(LEGS),
           "results": results}
    check_bench_schema(doc, BENCH_ADAPTIVE_RESULT_KEYS,
                       name="BENCH_adaptive.json")
    (REPO_ROOT / RESULTS_PATH).write_text(json.dumps(doc, indent=2) + "\n")

    # The submission ring pays for itself on a pipelined small-op stream.
    assert speedup >= MIN_STREAM_SPEEDUP, \
        f"batched stream {speedup}x < {MIN_STREAM_SPEEDUP}x " \
        f"({measured['batched']} vs {measured['unbatched']})"
