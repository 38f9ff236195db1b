"""Hot-path budget: the Python calls one depth-1 round trip makes.

A process-control op is, natively, mostly bookkeeping on both ends of
the wire rather than the two protection-domain crossings the paper
charges it (§4.2, §6).  This test counts the Python ``call`` events
whose code lives in this package, on the application's thread
(``sys.setprofile``) and on the serving loop's threads
(``threading.setprofile``), for one warm 4 KiB read, one 4 KiB write
and one GetFileSize, and fails when a count exceeds its budget.  A
budget is the count of the current code plus :data:`MARGIN`, so a
refactor that puts layers back on the path trips it.

The host side is served in-process: a :class:`HostAgent` on a
socketpair :class:`StreamChannel` started with ``serve=True``, on a
private :class:`EventLoopServer`, driven by the real
:class:`ActiveFile` -> :class:`ProcessControlSession` ->
:class:`HostLease` -> :class:`StreamChannel` stack.
"""

import os
import socket
import sys
import threading
import time

import pytest

import repro
from repro.core import create_active
from repro.core.channel import CONTROL_CHAN, StreamChannel
from repro.core.fileobj import ActiveFile
from repro.core.hostloop import EventLoopServer
from repro.core.runner import HostAgent, HostLease
from repro.core.strategies.process_control import ProcessControlSession
from repro.util.finalize import ensure_reaper

#: Package sources: a call event counts when its code lives here.
SOURCES = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Calls per op, (application, host), as measured on the current code.
COUNTS = {
    "read": (52, 34),
    "write": (55, 34),
    "getsize": (46, 34),
}

#: Slack over each count: a budget fails only on a real regression.
MARGIN = 4

LOOP = "hot-path-loop"


class _Pool:
    """The lease's pool: nothing to return a session to."""

    def _release(self, key, host) -> None:
        pass


class _Host:
    """The lease's view of a host: its channel, and no shm plane."""

    shm = None
    shm_ready = False

    def __init__(self, channel: StreamChannel) -> None:
        self.channel = channel


class _Calls:
    """Counts package-code call events per thread while armed."""

    def __init__(self) -> None:
        self.armed = False
        self.app = 0
        self.host = 0
        self.app_thread = threading.get_ident()

    def profile(self, frame, event, arg) -> None:
        if event != "call" or not self.armed \
                or not frame.f_code.co_filename.startswith(SOURCES):
            return
        if threading.get_ident() == self.app_thread:
            self.app += 1
        else:
            name = threading.current_thread().name
            if name.startswith(LOOP) and not name.endswith("-timer"):
                self.host += 1


@pytest.fixture
def rig(tmp_path):
    path = tmp_path / "hot.af"
    create_active(path, "repro.sentinels.null:NullFilterSentinel",
                  data=bytes(range(256)) * 256, meta={"data": "memory"})
    app_sock, host_sock = socket.socketpair()
    app, host = (StreamChannel(sock.makefile("rb", buffering=0),
                               sock.makefile("wb", buffering=0),
                               name=f"hot-path-{side}")
                 for sock, side in ((app_sock, "app"), (host_sock, "host")))
    # The file objects keep each descriptor open until they are closed.
    app_sock.close()
    host_sock.close()
    loop = EventLoopServer(LOOP)
    host.loop = loop
    agent = HostAgent(host, str(path), use_network=False)
    host.register(CONTROL_CHAN, agent.handle)
    calls = _Calls()
    ensure_reaper()  # started before the hook: it outlives the test
    # Threads the loop starts from here on carry the profile hook.
    threading.setprofile(calls.profile)
    try:
        app.start()
        host.start(serve=True)
        fields, _ = app.request(CONTROL_CHAN, {"cmd": "open",
                                               "strategy": "process-control"},
                                timeout=10.0)
        lease = HostLease(_Pool(), None, _Host(app),
                          int(fields["session_chan"]), "process-control")
        file = ActiveFile(ProcessControlSession(lease), name=str(path))
        yield file, calls
        file.close()
    finally:
        threading.setprofile(None)
        app.close()
        host.close()
        loop.shutdown()


def _count(calls: _Calls, op) -> tuple[int, int]:
    """(application, host) calls of one *op*; the host's share runs
    from its read of the request to its next blocking read."""
    time.sleep(0.05)  # the host is blocked reading before the op starts
    calls.app = calls.host = 0
    calls.armed = True
    sys.setprofile(calls.profile)
    try:
        op()
    finally:
        sys.setprofile(None)
    time.sleep(0.05)  # the host finishes the op and blocks reading again
    calls.armed = False
    return calls.app, calls.host


def test_depth1_round_trip_call_budget(rig):
    file, calls = rig
    block = bytes(4096)
    ops = {
        "read": lambda: (file.seek(8192), file.read(4096)),
        "write": lambda: (file.seek(4096), file.write(block)),
        "getsize": file.getsize,
    }
    for op in ops.values():  # warm: first-use caches fill here
        op()
        op()
    counts = {}
    for name, op in ops.items():
        # The fewest of three: a scheduling hiccup (the read role moving
        # to another pool thread past its grace period) adds calls.
        samples = [_count(calls, op) for _ in range(3)]
        counts[name] = (min(app for app, _ in samples),
                        min(host for _, host in samples))
    print(f"\nhot-path calls per op (application, host): {counts}")
    over = {name: (counts[name], (app + MARGIN, host + MARGIN))
            for name, (app, host) in COUNTS.items()
            if counts[name][0] > app + MARGIN
            or counts[name][1] > host + MARGIN}
    assert not over, (
        f"calls per op over budget, (measured, budget): {over}")
