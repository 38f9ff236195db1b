"""Telemetry overhead guard: the disabled path must stay free.

Tracing off is the default, and the budget for it is one predicate per
frame — no spans, no collector traffic, and critically no *retained*
allocations.  This microbench drives both request/reply paths in
steady state — the in-memory loopback (:class:`LocalChannel`, the
thread-strategy transport) and the wire (:class:`StreamChannel` over a
socketpair: a caller-read connection to a loop-read one, as between an
application and its sentinel host) — and asserts the interpreter's
allocated-block count does not grow with the number of frames, then
reports the per-frame wall cost for the CI log.
"""

import gc
import socket
import sys
import time

import pytest

from repro.core.channel import LocalChannel, StreamChannel
from repro.core.telemetry import TELEMETRY

WARMUP = 500
FRAMES = 5000

#: Allowed net allocated-block growth across FRAMES steady-state
#: requests.  Zero per-frame growth is the contract; the slack absorbs
#: interpreter-internal noise (free-list reshaping, GC bookkeeping).
ALLOWED_GROWTH = 200


def _echo(fields, payload):
    return {"ok": True}, payload


def _loopback():
    channel = LocalChannel("bench-telemetry")
    channel.register(1, _echo)
    return channel, channel


def _socketpair():
    app_sock, srv_sock = socket.socketpair()
    app, srv = (StreamChannel(sock.makefile("rb", buffering=0),
                              sock.makefile("wb", buffering=0),
                              name=f"bench-telemetry-{side}")
                for sock, side in ((app_sock, "app"), (srv_sock, "srv")))
    # The file objects keep each descriptor open until they are closed.
    app_sock.close()
    srv_sock.close()
    srv.register(1, _echo)
    app.start()
    srv.start(serve=True)
    return app, srv


@pytest.mark.parametrize("rig", [_loopback, _socketpair],
                         ids=["loopback", "socketpair"])
def test_disabled_tracing_steady_state_allocations(rig):
    assert not TELEMETRY.tracing, "tracing must default to off"
    app, srv = rig()
    try:
        for _ in range(WARMUP):  # populate caches: histograms, counters
            app.request(1, {"cmd": "read"}, b"x")
        gc.collect()
        before = sys.getallocatedblocks()
        started = time.perf_counter()
        for _ in range(FRAMES):
            app.request(1, {"cmd": "read"}, b"x")
        elapsed = time.perf_counter() - started
        gc.collect()
        growth = sys.getallocatedblocks() - before
    finally:
        app.close()
        srv.close()
    print(f"\ntelemetry-disabled frame path ({rig.__name__[1:]}): "
          f"{elapsed / FRAMES * 1e6:.1f} us/frame, "
          f"net allocated-block growth {growth} over {FRAMES} frames")
    assert growth <= ALLOWED_GROWTH, (
        f"disabled-tracing path retained {growth} blocks over {FRAMES} "
        f"frames (allowed {ALLOWED_GROWTH}) — a per-frame allocation "
        f"crept into the hot path")
