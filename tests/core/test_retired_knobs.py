"""The runtime reads no environment: retired knobs change nothing.

Five variables once overrode the data plane, the header codec and the
serving loop's sizing.  They are gone, so a process started with every
one of them set must still pick its plane by payload size, encode hot
headers in binary, and size its loop from ``policy``.
"""

import os
import subprocess
import sys

import repro

RETIRED_KNOBS = {
    "REPRO_NO_SHM": "1",
    "REPRO_NO_BINHDR": "1",
    "REPRO_HOST_QUEUE_DEPTH": "1",
    "REPRO_HOST_MAX_INFLIGHT": "1",
    "REPRO_HOST_EXECUTORS": "1",
}

SCRIPT = r'''
import sys

from repro.core import create_active, hostloop, policy, shm
from repro.core.container import Container
from repro.core.runner import HOST_POOL
from repro.core.strategies import process_control
from repro.core.telemetry import TELEMETRY

path = sys.argv[1]
create_active(path, "repro.sentinels.null:NullFilterSentinel",
              data=bytes(range(256)) * 256, meta={"data": "memory"})
binary = TELEMETRY.metrics.counter("transport.header.binary")
session = process_control.open_session(Container.load(path))
try:
    leased = shm.SLOTS_LEASED.value
    assert len(session.read_at(0, 65536)) == 65536
    assert shm.SLOTS_LEASED.value > leased, "64 KiB read leased no shm slot"
    before = binary.value
    for i in range(4):
        assert len(session.read_at(i * 4096, 4096)) == 4096
    assert binary.value - before >= 4, "4 KiB reads sent JSON headers"
    executors = hostloop.shared_loop().executors
    assert executors == policy.HOST_EXECUTOR_THREADS, executors
finally:
    session.close()
    HOST_POOL.shutdown_all()
print("ok")
'''


def test_retired_knobs_change_nothing(tmp_path):
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ, **RETIRED_KNOBS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "knobs.af")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
