"""What a process imports: lazy package surfaces and a lean host.

A sentinel host child imports :mod:`repro.core.runner` and serves
opens.  It must not load the client surface (the file object,
interception, the Win32 API, the opener, the strategies), the simulated
services, or any sentinel but the one it instantiates.  The package
surfaces of ``repro``, ``repro.core``, ``repro.net`` and
``repro.sentinels`` import a name's module on first use, so every
public import path still resolves, and the telemetry key set must not
depend on which modules a process happened to load.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core import runner

NULL = "repro.sentinels.null:NullFilterSentinel"

#: Client-side modules a sentinel host never runs.
CLIENT_MODULES = ("repro.core.api", "repro.core.interception",
                  "repro.core.fileobj", "repro.core.opener",
                  "repro.core.strategies.common")

HOST_SCRIPT = r'''
import json
import sys

from repro.core.runner import HostAgent


class Channel:
    """The agent only registers the new session's handler."""

    def register(self, chan, handler):
        pass


agent = HostAgent(Channel(), sys.argv[1], use_network=False)
reply = agent._open("process-control", json.loads(sys.argv[2]))
print(json.dumps({"shm": reply["shm"], "modules": sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("repro", "multiprocessing"))}))
'''

APP_SCRIPT = r'''
import json
import os
import sys

import repro
from repro.core import shm

repro.create_active(sys.argv[1], "repro.sentinels.null:NullFilterSentinel",
                    meta={"data": "memory"})
block = bytes(range(256)) * 256
with repro.open_active(sys.argv[1], "r+b",
                       strategy="process-control") as stream:
    assert stream.write(block) == len(block)
    stream.seek(0)
    assert stream.read(len(block)) == block
    me = str(os.getpid()).encode()
    children = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                if stat.read().rsplit(b")", 1)[1].split()[1] == me:
                    children.append(int(entry))
        except (OSError, IndexError):
            continue
    host = stream.session.host
    print(json.dumps({
        "children": children, "host": host.proc.pid,
        "shm_bytes": shm.SHM_BYTES.value if host.shm_ready else None,
        "modules": sorted(name for name in sys.modules
                          if name.split(".")[0] == "multiprocessing")}))
'''

SURFACE_SCRIPT = r'''
from repro import *
from repro.core import create_active as create
import repro.core
import repro.net
import repro.sentinels

assert create is create_active and open_active and ActiveFileError
for package in (repro, repro.core, repro.net, repro.sentinels):
    for name in package.__all__:
        getattr(package, name)
    assert set(package.__all__) <= set(dir(package)), package.__name__
print(repro.sentinels.NullFilterSentinel.__module__)
'''

KEYS_SCRIPT = r'''
import json
import pkgutil
import sys

import repro

if sys.argv[1:] == ["all"]:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        __import__(module.name)
from repro.core.telemetry import TELEMETRY

metrics = sorted(TELEMETRY.snapshot()["metrics"]["global"])
from repro.doctor.engine import _catalog

print(json.dumps({"metrics": metrics, "catalog": sorted(_catalog())}))
'''


def _run(script: str, *args: str) -> str:
    """Run *script* in a fresh interpreter; returns its stdout."""
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_host_imports_only_host_code(tmp_path):
    """``import repro.core.runner`` plus a null-filter open loads the
    host's own modules and that one sentinel.  Attaching the
    application's shared-memory segment needs no ``multiprocessing``."""
    path = tmp_path / "null.af"
    repro.create_active(path, NULL, data=b"n" * 4096,
                        meta={"data": "memory"})
    try:
        plane = runner.ShmPlane()
    except OSError:  # no shared memory here: the host runs inline
        plane = None
    try:
        out = json.loads(_run(HOST_SCRIPT, str(path), json.dumps(
            plane.handshake_fields() if plane is not None else None)))
    finally:
        if plane is not None:
            plane.destroy()
    assert out["shm"] == (plane is not None)
    loaded = set(out["modules"])
    assert not {name for name in loaded
                if name.split(".")[0] == "multiprocessing"}
    assert {"repro.core.runner", "repro.sentinels.null"} <= loaded
    assert not loaded & set(CLIENT_MODULES)
    assert {name for name in loaded if name.startswith("repro.net.")} \
        <= {"repro.net.address", "repro.net.message"}
    assert {name for name in loaded if name.startswith("repro.sentinels.")} \
        == {"repro.sentinels.null"}


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="children are listed from /proc")
def test_application_starts_only_its_host(tmp_path):
    """An application moving a 64 KiB payload through a process-control
    open loads no ``multiprocessing`` and has one child: its host."""
    out = json.loads(_run(APP_SCRIPT, str(tmp_path / "app.af")))
    assert out["modules"] == []
    assert out["children"] == [out["host"]]
    assert out["shm_bytes"] is None or out["shm_bytes"] >= 2 * 65536


def test_public_import_paths_resolve():
    assert _run(SURFACE_SCRIPT).strip() == "repro.sentinels.null"


def test_telemetry_keys_do_not_depend_on_import_order():
    """A snapshot taken before any emitting module is imported, and the
    doctor's catalog, name the same metrics as in a process that has
    imported every module of the package."""
    fresh = json.loads(_run(KEYS_SCRIPT))
    loaded = json.loads(_run(KEYS_SCRIPT, "all"))
    assert fresh == loaded
    assert "cache.flush_failures" in fresh["metrics"]
