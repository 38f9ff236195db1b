"""Tests for the event-loop sentinel host (:mod:`repro.core.hostloop`).

The loop serves every channel from one small pool of interchangeable
threads; these tests pin the properties it must keep (serial-per-channel
ordering, cross-channel fairness) and the ones it adds (reader
backpressure as the only overload control, O(1) thread count, the
``host.*`` telemetry family, and leader/follower serving that keeps a
connection readable while the reading thread runs a slow handler, yet
hands the read role on only when an op needs that).
"""

import glob
import os
import statistics
import threading
import time
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import create_active, hostloop, policy
from repro.core.channel import (
    CONTROL_CHAN,
    FIRST_SESSION_CHAN,
    LocalChannel,
    StreamChannel,
)
from repro.core.control import raise_for_response
from repro.core.hostloop import EventLoopServer
from repro.core.policy import LEAD_GRACE_S
from repro.core.runner import SentinelHost
from repro.core.telemetry import TELEMETRY
from repro.errors import ChannelClosedError
from repro.net import Address, FileServer, LinkProfile, Network, WallClock

NULL = "repro.sentinels.null:NullFilterSentinel"


class SlowRead:
    """Importable sentinel whose reads stall (host-side saturation);
    with an ``at`` offset, only reads there stall."""

    def __new__(cls, params):
        from repro.core.sentinel import Sentinel

        class Impl(Sentinel):
            def on_read(self, ctx, offset, size):
                import time as _time

                if self.params.get("at", offset) == offset:
                    _time.sleep(float(self.params.get("delay", 0.1)))
                return ctx.data.read_at(offset, size)

        return Impl(params)


def _stream_pair(name: str) -> "tuple[StreamChannel, StreamChannel]":
    """Two unstarted stream channels joined by a pair of pipes."""
    a_read, b_write = os.pipe()
    b_read, a_write = os.pipe()
    a = StreamChannel(os.fdopen(a_read, "rb", buffering=0),
                      os.fdopen(a_write, "wb", buffering=0),
                      name=f"{name}-a")
    b = StreamChannel(os.fdopen(b_read, "rb", buffering=0),
                      os.fdopen(b_write, "wb", buffering=0),
                      name=f"{name}-b")
    return a, b


def _voluntary_switches(pid: int) -> int:
    """Voluntary context switches summed over every thread of *pid*."""
    total = 0
    for path in glob.glob(f"/proc/{pid}/task/*/status"):
        try:
            with open(path) as status:
                for line in status:
                    if line.startswith("voluntary_ctxt_switches"):
                        total += int(line.split()[1])
        except OSError:
            pass  # the thread exited meanwhile
    return total


def _latency_split(before: dict, after: dict) -> "tuple[int, float, float]":
    """Ops served, total queue wait and total service time (µs) between
    two ``ping`` latency snapshots."""
    def total(lat, label):
        return lat[f"{label}_mean_us"] * lat[f"{label}_ops"]

    return (after["queue_wait_ops"] - before["queue_wait_ops"],
            total(after, "queue_wait") - total(before, "queue_wait"),
            total(after, "service") - total(before, "service"))


class TestSerialPerChannel:
    @settings(max_examples=25, deadline=None)
    @given(schedule=st.lists(st.integers(0, 3), min_size=1, max_size=60))
    def test_ordering_preserved_per_channel(self, schedule):
        """Arbitrary interleavings across 4 channels: each channel's ops
        execute strictly in arrival order on the shared loop."""
        app = srv = LocalChannel("ordering")
        seen = defaultdict(list)
        lock = threading.Lock()

        def handler(fields, payload):
            with lock:
                seen[fields["c"]].append(fields["n"])
            return {"ok": True}, b""

        for c in range(4):
            srv.register(FIRST_SESSION_CHAN + c, handler)
        counters = [0] * 4
        pendings = []
        for c in schedule:
            pendings.append(app.request_async(
                FIRST_SESSION_CHAN + c, {"c": c, "n": counters[c]}))
            counters[c] += 1
        for pending in pendings:
            pending.wait(10.0)
        for c in range(4):
            assert seen[c] == list(range(counters[c]))
        app.close()


class TestIndependentRequests:
    """Channel 0 takes a grant per request: its requests run at once on
    the pool."""

    def test_detach_drops_queued_unstarted_requests(self):
        """Two executors run two requests at once and three wait; a
        kill drops the three unrun and the ``host.*`` gauges drain."""
        server = EventLoopServer("independent-loop", executors=2)
        app = srv = LocalChannel("independent")
        srv.loop = server
        gate = threading.Event()
        lock = threading.Lock()
        started: list[int] = []

        def handler(fields, payload):
            with lock:
                started.append(fields["n"])
            gate.wait(30.0)  # set by the test, at the latest on exit
            return {"ok": True}, b""

        try:
            srv.register(CONTROL_CHAN, handler)
            pendings = [app.request_async(CONTROL_CHAN, {"n": n})
                        for n in range(5)]
            deadline = time.monotonic() + 5.0
            while len(started) < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert sorted(started) == [0, 1]  # at once, in one channel
            stats = server.stats()
            assert stats["host.queue.depth"] == 3
            assert stats["host.inflight"] == 5
            srv.kill("killed with requests queued")
            gate.set()
            for pending in pendings:
                with pytest.raises(ChannelClosedError):
                    pending.wait(5.0)
            deadline = time.monotonic() + 5.0
            while server.stats()["host.inflight"] and \
                    time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(0.05)  # a stray grant would run in this window
            assert sorted(started) == [0, 1]
            stats = server.stats()
            assert (stats["host.channels.active"], stats["host.queue.depth"],
                    stats["host.inflight"]) == (0, 0, 0)
        finally:
            gate.set()
            app.close()
            server.shutdown()

    def test_channel_zero_requests_overlap_on_a_loop_read_connection(self):
        """On a connection the serving loop reads (a sentinel host's),
        two slow channel-0 requests run at the same time: the first runs
        on the reading thread, the role moves on after the grace period,
        and the second gets a grant of its own."""
        a, b = _stream_pair("chan0-overlap")
        server = EventLoopServer("chan0-overlap-loop", executors=2)
        b.loop = server
        lock = threading.Lock()
        spans: list[tuple[float, float]] = []

        def handler(fields, payload):
            started = time.monotonic()
            time.sleep(0.2)
            with lock:
                spans.append((started, time.monotonic()))
            return {"ok": True}, b""

        b.register(CONTROL_CHAN, handler)
        a.start()
        b.start(serve=True)
        try:
            pendings = [a.request_async(CONTROL_CHAN, {"n": n})
                        for n in range(2)]
            for pending in pendings:
                assert pending.wait(5.0)[0]["ok"] is True
            (_, first_end), (second_start, _) = sorted(spans)
            assert second_start < first_end, \
                "the second request started after the first one ended"
        finally:
            a.close()
            server.shutdown()


class TestFairness:
    def test_saturated_channel_cannot_starve_idle_sibling(self):
        """Round-robin grants: with ONE executor, an idle channel's op
        waits behind at most one op of a deeply backlogged sibling."""
        server = EventLoopServer("fair-loop", executors=1)
        app = srv = LocalChannel("fair")
        srv.loop = server
        try:
            def slow(fields, payload):
                time.sleep(0.05)
                return {"ok": True}, b""

            def fast(fields, payload):
                return {"ok": True}, b""

            srv.register(FIRST_SESSION_CHAN, slow)
            srv.register(FIRST_SESSION_CHAN + 1, fast)
            hogs = [app.request_async(FIRST_SESSION_CHAN, {"n": i})
                    for i in range(30)]  # ~1.5 s of serial backlog
            started = time.monotonic()
            app.request(FIRST_SESSION_CHAN + 1, {"cmd": "ping"},
                        timeout=10.0)
            elapsed = time.monotonic() - started
            # Strict FIFO over the whole backlog would take ~1.5 s; the
            # round-robin bound is ~one slow op plus scheduling noise.
            assert elapsed < 0.75
            for hog in hogs:
                hog.wait(10.0)
        finally:
            app.close()
            server.shutdown()


class TestBackpressure:
    def test_reader_throttles_past_intake_high_water(self):
        """A flood against a stalled handler piles up in the kernel pipe,
        not in this process: the reader stops past the high-water mark
        and drains once the backlog clears."""
        server = EventLoopServer("bp-loop", executors=1,
                                 intake_high=4, intake_low=2)
        a, b = _stream_pair("bp")
        b.loop = server
        gate = threading.Event()
        b.register(FIRST_SESSION_CHAN,
                   lambda f, p: (gate.wait(10.0), ({"ok": True}, b""))[1])
        a.start()
        b.start(serve=True)
        try:
            pendings = [a.request_async(FIRST_SESSION_CHAN, {"n": i})
                        for i in range(40)]
            time.sleep(0.3)  # let the reader run up against the mark
            stats = server.stats()
            assert stats["host.queue.depth"] <= 8  # not all 40 admitted
            assert stats["host.backpressure.stalls"] >= 1
            gate.set()
            for pending in pendings:
                fields, _ = pending.wait(10.0)
                assert fields.get("ok") is True
        finally:
            gate.set()
            a.close()
            server.shutdown()

    def test_pipelined_flood_on_a_host_child_is_all_served(self, tmp_path):
        """A host child queues a pipelined flood on one session channel
        rather than shedding its tail: every request is answered ``ok``
        over the framed transport."""
        path = tmp_path / "slow.af"
        create_active(path, f"{__name__}:SlowRead",
                      params={"delay": 0.01}, data=b"x" * 64,
                      meta={"data": "memory"})
        host = SentinelHost(str(path))
        try:
            chan = host.open("process-control")
            pendings = [host.channel.request_async(
                chan, {"cmd": "read", "offset": 0, "size": 1})
                for _ in range(140)]
            outcomes = [pending.wait(30.0) for pending in pendings]
            assert [fields.get("ok") for fields, _ in outcomes] \
                == [True] * 140
            assert [payload for _, payload in outcomes] == [b"x"] * 140
        finally:
            host.shutdown()


class TestLeaderFollower:
    def test_ping_and_sibling_answer_while_slow_handler_runs(self, tmp_path):
        """The thread that reads a request runs it, and the read role
        moves on once the op outlives the grace period: a channel-0
        ping and another channel's op both answer while a 0.3 s
        handler runs."""
        path = tmp_path / "slow.af"
        create_active(path, f"{__name__}:SlowRead",
                      params={"delay": 0.3}, data=b"x" * 64,
                      meta={"data": "memory"})
        host = SentinelHost(str(path))
        try:
            slow_chan = host.open("process-control")
            fast_chan = host.open("process-control")
            time.sleep(0.05)  # let the pool go idle: the read runs inline
            slow = host.channel.request_async(
                slow_chan, {"cmd": "read", "offset": 0, "size": 8})
            time.sleep(0.05)  # the slow handler is running now
            started = time.monotonic()
            info = host.ping(timeout=5.0)
            fields, _ = host.channel.request(fast_chan, {"cmd": "size"},
                                             timeout=5.0)
            elapsed = time.monotonic() - started
            assert info["ok"] is True and fields["size"] == 64
            assert elapsed < 0.15, f"blocked behind the slow op: {elapsed}"
            fields, payload = slow.wait(5.0)
            assert fields["ok"] is True and payload == b"x" * 8
        finally:
            host.shutdown()

    def test_depth_one_ops_run_on_the_reading_thread(self, tmp_path):
        """Back-to-back ops on an idle host never wait for a hand-off:
        queue wait stays a small fraction of service time."""
        path = tmp_path / "quick.af"
        create_active(path, NULL, data=b"q" * 4096,
                      meta={"data": "memory"})
        host = SentinelHost(str(path))
        try:
            chan = host.open("process-control")
            before = host.ping(timeout=5.0)["lat"]
            for _ in range(200):
                host.channel.request(
                    chan, {"cmd": "read", "offset": 0, "size": 4096},
                    timeout=5.0)
            after = host.ping(timeout=5.0)["lat"]
            ops, waited, served = _latency_split(before, after)
            assert ops >= 200
            assert waited < 0.5 * served
        finally:
            host.shutdown()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="per-thread switch counts need /proc")
    def test_depth_one_op_costs_about_one_host_switch(self, tmp_path):
        """The switch budget: the reader keeps its role through a short
        op, so a depth-1 read costs the host about one voluntary
        context switch (its blocking read), not one per thread
        hand-off."""
        path = tmp_path / "budget.af"
        create_active(path, NULL, data=b"b" * 65536,
                      meta={"data": "memory"})
        host = SentinelHost(str(path))
        try:
            chan = host.open("process-control")
            read = {"cmd": "read", "offset": 0, "size": 4096}
            for _ in range(500):  # warm up
                host.channel.request(chan, dict(read), timeout=5.0)
            before = _voluntary_switches(host.proc.pid)
            ops = 2000
            for _ in range(ops):
                host.channel.request(chan, dict(read), timeout=5.0)
            per_op = (_voluntary_switches(host.proc.pid) - before) / ops
            assert per_op <= 2.0, f"{per_op:.2f} host switches per op"
        finally:
            host.shutdown()


class TestLazyHandOff:
    """The reader keeps its role through an op unless another thread
    needs a reader; each test pins one case."""

    @staticmethod
    def _serve(a: StreamChannel, b: StreamChannel) -> "list[EventLoopServer]":
        loops = [EventLoopServer(f"{a.name}-loop"),
                 EventLoopServer(f"{b.name}-loop")]
        a.loop, b.loop = loops
        return loops

    @staticmethod
    def _stop(a: StreamChannel, loops: "list[EventLoopServer]") -> None:
        a.close()
        for loop in loops:
            loop.shutdown()

    def test_request_sent_by_a_handler_hands_the_role_on(self):
        """A handler that calls back over its own connection gets its
        reply at once: the thread running it holds the read role and
        reads the reply itself, so no op waits for the sentry's grace
        hand-off.  The caller-read peer reads the call-back request
        while it waits on the op and runs it on its loop's pool."""
        a, b = _stream_pair("callback")
        loops = self._serve(a, b)
        a.register(CONTROL_CHAN,
                   lambda f, p: ({"ok": True, "n": f["n"]}, b""))

        def handler(fields, payload):
            reply, _ = b.request(CONTROL_CHAN,
                                 {"cmd": "echo", "n": fields["n"]},
                                 timeout=5.0)
            return {"ok": True, "n": reply["n"]}, b""

        b.register(FIRST_SESSION_CHAN, handler)
        a.start()
        b.start(serve=True)
        try:
            a.request(FIRST_SESSION_CHAN, {"cmd": "op", "n": -1},
                      timeout=5.0)
            started = time.monotonic()
            for n in range(100):
                fields, _ = a.request(FIRST_SESSION_CHAN,
                                      {"cmd": "op", "n": n}, timeout=5.0)
                assert fields["n"] == n
            elapsed = time.monotonic() - started
            assert elapsed < 0.5 * 100 * LEAD_GRACE_S, \
                f"100 call-back ops took {elapsed * 1e3:.1f} ms"
        finally:
            self._stop(a, loops)

    def test_op_on_a_connection_owing_replies_hands_the_role_on(self):
        """An op that blocks on the reply to a request already
        outstanding on the connection (sent by another thread) does not
        wait out the grace period: the thread that read the op runs it
        and reads that reply itself.  The caller-read peer's idle sweep
        reads the request, which no caller there waits on."""
        a, b = _stream_pair("owing")
        loops = self._serve(a, b)
        arrived = threading.Event()
        answer = threading.Event()

        def bridge(fields, payload):
            arrived.set()
            answer.wait(5.0)
            return {"ok": True}, b""

        outstanding = []

        def handler(fields, payload):
            answer.set()
            outstanding.pop().wait(5.0)
            return {"ok": True}, b""

        a.register(CONTROL_CHAN, bridge)
        b.register(FIRST_SESSION_CHAN, handler)
        a.start()
        b.start(serve=True)
        try:
            elapsed = []
            for _ in range(20):
                arrived.clear()
                answer.clear()
                outstanding.append(
                    b.request_async(CONTROL_CHAN, {"cmd": "fetch"}))
                assert arrived.wait(5.0)
                started = time.monotonic()
                a.request(FIRST_SESSION_CHAN, {"cmd": "use"}, timeout=5.0)
                elapsed.append(time.monotonic() - started)
            median = statistics.median(elapsed)
            assert median < 0.5 * LEAD_GRACE_S, \
                f"median op {median * 1e3:.2f} ms"
        finally:
            self._stop(a, loops)

    def test_waiter_off_the_reading_thread_takes_the_role_at_once(
            self, monkeypatch):
        """Op A holds the read role through a long op; op B, on another
        channel and another pool thread, then waits on a reply over the
        same connection.  Only a reader can hand B its reply, so B's
        wait moves the role on at once (``release_lead``).  The grace
        period is an hour here, so the sentry cannot do it instead."""
        monkeypatch.setattr(policy, "LEAD_GRACE_S", 3600.0)
        a, b = _stream_pair("waiter")
        loops = self._serve(a, b)
        b_sent = threading.Event()
        a_blocked = threading.Event()
        release_a = threading.Event()

        def bridge(fields, payload):
            if fields["cmd"] == "first":
                # A's own call-back is answered only after B is on the
                # wire, so A reads B's request while it waits.
                b_sent.wait(5.0)
            return {"ok": True}, b""

        def op_a(fields, payload):
            b.request(CONTROL_CHAN, {"cmd": "first"}, timeout=5.0)
            a_blocked.set()  # back to holding the role through the op
            release_a.wait(10.0)
            return {"ok": True}, b""

        def op_b(fields, payload):
            assert a_blocked.wait(5.0)
            b.request(CONTROL_CHAN, {"cmd": "second"}, timeout=2.0)
            return {"ok": True}, b""

        a.register(CONTROL_CHAN, bridge)
        b.register(FIRST_SESSION_CHAN, op_a)
        b.register(FIRST_SESSION_CHAN + 1, op_b)
        a.start()
        b.start(serve=True)
        try:
            pending_a = a.request_async(FIRST_SESSION_CHAN, {"cmd": "a"})
            pending_b = a.request_async(FIRST_SESSION_CHAN + 1, {"cmd": "b"})
            b_sent.set()
            fields, _ = pending_b.wait(5.0)
            assert fields["ok"]
            assert not pending_a.done, "A was to be still running"
        finally:
            release_a.set()
        try:
            pending_a.wait(5.0)
        finally:
            self._stop(a, loops)

    def test_reply_blocked_on_a_full_pipe_hands_the_role_on(self):
        """A reply too big for the pipe, to a peer still busy writing
        requests, blocks the thread that ran the op inline: the role
        must move on so intake drains the peer's writes, or both sides
        would block writing forever."""
        a, b = _stream_pair("full-pipe")
        loop = EventLoopServer("full-pipe-loop")
        b.loop = loop
        b.register(FIRST_SESSION_CHAN,
                   lambda f, p: ({"ok": True}, b"r" * (256 * 1024)))
        a.start()  # no handler: a caller reads its own replies
        b.start(serve=True)
        replies: list[int] = []

        def flood() -> None:
            pendings = [a.request_async(FIRST_SESSION_CHAN, {"n": n},
                                        b"q" * 65536) for n in range(8)]
            replies.extend(len(p.wait(5.0)[1]) for p in pendings)

        sender = threading.Thread(target=flood, daemon=True)
        try:
            sender.start()
            sender.join(10.0)
            assert not sender.is_alive(), "both sides blocked writing"
            assert replies == [256 * 1024] * 8
        finally:
            self._stop(a, [loop])

    def test_reader_keeps_the_role_after_a_grace_hand_off(self, tmp_path):
        """Once a 50 ms op has made the sentry hand the role on, the
        thread now holding it runs the next depth-1 ops itself and
        keeps the role: queue wait stays a small fraction of service
        time."""
        path = tmp_path / "slow-once.af"
        create_active(path, f"{__name__}:SlowRead",
                      params={"delay": 0.05, "at": 1}, data=b"s" * 4096,
                      meta={"data": "memory"})
        host = SentinelHost(str(path))
        try:
            chan = host.open("process-control")

            def read(offset):
                host.channel.request(
                    chan, {"cmd": "read", "offset": offset, "size": 8},
                    timeout=5.0)

            read(1)  # outlives the grace period
            before = host.ping(timeout=5.0)["lat"]
            for _ in range(200):
                read(0)
            after = host.ping(timeout=5.0)["lat"]
            ops, waited, served = _latency_split(before, after)
            assert ops >= 200
            assert waited < 0.5 * served
        finally:
            host.shutdown()


class TestOneReadMode:
    """The thread that waits on a reply reads it, on both ends of a
    bridged connection: adding a network bridge to an open adds no
    thread hop on either side."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="per-thread switch counts need /proc")
    def test_bridged_open_costs_about_one_app_switch(self, tmp_path):
        """A caller on a bridged open reads its own reply, as on an
        unbridged one: about one app switch per depth-1 read, not a
        loop reader's wake-up on top of the caller's."""
        path = tmp_path / "bridged.af"
        create_active(path, NULL, data=b"b" * 65536,
                      meta={"data": "memory"})
        host = SentinelHost(str(path), network=Network())
        try:
            chan = host.open("process-control")
            read = {"cmd": "read", "offset": 0, "size": 4096}
            for _ in range(500):  # warm up
                host.channel.request(chan, dict(read), timeout=5.0)
            before = _voluntary_switches(os.getpid())
            ops = 3000
            for _ in range(ops):
                host.channel.request(chan, dict(read), timeout=5.0)
            per_op = (_voluntary_switches(os.getpid()) - before) / ops
            assert per_op <= 1.5, f"{per_op:.2f} app switches per op"
        finally:
            host.shutdown()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="per-thread switch counts need /proc")
    def test_remote_cached_op_keeps_the_host_read_role(self, tmp_path):
        """Sequential reads through a read-ahead cache over a wall-clock
        WAN keep a window fetch in flight on most ops.  The host's
        reader runs each op and reads the window reply itself, instead
        of handing its role on whenever a reply is owed."""
        network = Network(profile=LinkProfile(latency_us=200.0,
                                              bandwidth_mbps=1000.0),
                          clock=WallClock())
        size = 8 << 20
        network.bind(Address("origin", 7000),
                     FileServer({"f": b"o" * size}))
        path = tmp_path / "remote.af"
        create_active(path, "repro.sentinels.remotefile:RemoteFileSentinel",
                      params={"address": "origin:7000", "path": "f",
                              "cache": "memory", "block_size": 4096,
                              "max_blocks": 512, "readahead": 16},
                      meta={"data": "memory"})
        host = SentinelHost(str(path), network=network)
        try:
            chan = host.open("process-control")

            def scan(first: int, ops: int) -> None:
                for n in range(first, first + ops):
                    fields, _ = host.channel.request(
                        chan, {"cmd": "read", "offset": n * 16384 % size,
                               "size": 16384}, timeout=10.0)
                    raise_for_response(fields)

            scan(0, 100)  # warm up
            before = _voluntary_switches(host.proc.pid)
            ops = 1500
            scan(100, ops)
            per_op = (_voluntary_switches(host.proc.pid) - before) / ops
            assert per_op <= 2.5, f"{per_op:.2f} host switches per op"
        finally:
            host.shutdown()


class TestSchedFaultPoint:
    def test_every_grant_passes_the_sched_point(self):
        """Requests the reading thread runs itself (depth 1) and
        requests granted to the pool (a pipelined burst) each pass the
        fault plane's ``sched`` point exactly once."""
        from repro.core.faults import FaultPlane

        a, b = _stream_pair("sched")
        plane = FaultPlane(seed=0).delay_sched(0.0, op="tick")
        plane.arm_channel(b)
        b.register(FIRST_SESSION_CHAN, lambda f, p: ({"ok": True}, b""))
        a.start()
        b.start(serve=True)
        try:
            for _ in range(5):
                a.request(FIRST_SESSION_CHAN, {"cmd": "tick"}, timeout=5.0)
            burst = [a.request_async(FIRST_SESSION_CHAN, {"cmd": "tick"})
                     for _ in range(10)]
            for pending in burst:
                pending.wait(5.0)
            assert plane.summary() == {"sched:delay": 15}
        finally:
            a.close()


class TestThreadScaling:
    def test_thousand_channels_constant_threads(self, tmp_path):
        """The acceptance bound: 1000 logical channels on one host child
        run on <= 8 host-side threads (vs ~1000 under the old model)."""
        path = tmp_path / "many.af"
        create_active(path, NULL, data=b"d" * 32, meta={"data": "memory"})
        host = SentinelHost(str(path))
        try:
            for _ in range(1000):
                host.open("process-control")
            info = host.ping(timeout=30.0)
            assert info["sessions"] == 1000
            assert info["threads"] <= 8
            # control chan + 1000 session channels on the child's loop
            assert info["host"]["host.channels.active"] >= 1000
        finally:
            host.shutdown()


class TestTimerWheel:
    def test_call_later_fires_and_cancels(self):
        fired = []
        live = hostloop.shared_loop().call_later(0.05, fired.append, "live")
        dead = hostloop.shared_loop().call_later(0.05, fired.append, "dead")
        dead.cancel()
        deadline = time.monotonic() + 5.0
        while "live" not in fired and time.monotonic() < deadline:
            time.sleep(0.01)
        assert fired == ["live"]

    def test_pool_reapers_ride_the_wheel_not_timer_threads(self, tmp_path):
        from repro.core.runner import SentinelHostPool

        path = tmp_path / "pooled.af"
        create_active(path, NULL, data=b"data")
        pool = SentinelHostPool(linger=0.2)
        lease = pool.lease(str(path), strategy="process-control")
        try:
            lease.release()
            # The linger is a wheel entry now, never a timer thread.
            assert not [t for t in threading.enumerate()
                        if isinstance(t, threading.Timer)]
            deadline = time.monotonic() + 5.0
            while pool._hosts and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not pool._hosts  # the idle host was reaped on time
        finally:
            pool.shutdown_all()


class TestTelemetry:
    def test_host_family_in_snapshot(self):
        app = srv = LocalChannel("gauges")
        srv.register(FIRST_SESSION_CHAN, lambda f, p: ({"ok": True}, b""))
        app.request(FIRST_SESSION_CHAN, {"cmd": "ping"})
        snap = TELEMETRY.snapshot()
        assert "host" in snap
        # collector keys are uniquified ("af-loop#1"); match by prefix
        shared = next((stats for key, stats in snap["host"].items()
                       if key.startswith("af-loop")), None)
        assert shared is not None
        for key in ("host.channels.active", "host.queue.depth",
                    "host.inflight", "host.backpressure.stalls"):
            assert key in shared
        app.close()


class TestKillSwitch:
    def test_loop_mode_spawns_no_per_channel_thread(self):
        app = srv = LocalChannel("loopy")
        before = set(threading.enumerate())
        srv.register(FIRST_SESSION_CHAN, lambda f, p: ({"ok": True}, b""))
        assert not set(threading.enumerate()) - before  # none started
        fields, _ = app.request(FIRST_SESSION_CHAN, {"cmd": "ping"})
        assert fields["ok"] is True
        app.close()
