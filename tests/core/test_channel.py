"""Tests for the multiplexed Channel transport.

Covers the envelope (``rid``/``chan``) as a StreamChannel writes it
and reads it back, with hypothesis property tests, and the demultiplexer's routing of
interleaved responses under concurrent requests.
"""

import io
import os
import resource
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import control
from repro.core.channel import (
    CONTROL_CHAN,
    FIRST_SESSION_CHAN,
    LocalChannel,
    PendingReply,
    StreamChannel,
)
from repro.core.container import Container
from repro.core.hostloop import EventLoopServer
from repro.core.policy import READ_POLL_S, Deadline
from repro.core.spec import SentinelSpec
from repro.core.strategies import process_control
from repro.errors import (
    ChannelClosedError,
    DeadlineExceededError,
    FrameError,
    ProtocolError,
)

# JSON-representable header values (what the codec actually carries)
_scalars = (st.none() | st.booleans() | st.integers()
            | st.text(max_size=16))
_fields = st.dictionaries(
    st.text(min_size=1, max_size=8).filter(
        lambda k: k not in control.ENVELOPE_KEYS),
    _scalars, max_size=6)


def sent_frame(send):
    """Capture what a StreamChannel writes in *send* and decode it with
    the reader every channel runs."""
    buf = io.BytesIO()
    send(StreamChannel(io.BytesIO(), buf))
    buf.seek(0)
    return control.read_wire_message(buf)


class TestEnvelopeCodec:
    @given(st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=0, max_value=2**16),
           _fields, st.binary(max_size=256))
    def test_request_envelope_roundtrip(self, rid, chan, fields, payload):
        decoded_fields, decoded_payload = sent_frame(
            lambda ch: ch._send(rid, chan, fields, (payload,)))
        out_rid, out_chan, is_reply, rest = control.split_envelope(
            decoded_fields)
        assert (out_rid, out_chan, is_reply) == (rid, chan, False)
        assert rest == fields
        assert decoded_payload == payload

    @given(st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=0, max_value=2**16),
           _fields, st.binary(max_size=256))
    def test_reply_envelope_roundtrip(self, rid, chan, fields, payload):
        decoded_fields, decoded_payload = sent_frame(
            lambda ch: ch._send_reply(rid, chan, fields, payload))
        out_rid, out_chan, is_reply, rest = control.split_envelope(
            decoded_fields)
        assert (out_rid, out_chan, is_reply) == (rid, chan, True)
        assert rest == fields
        assert decoded_payload == payload

    @given(_fields)
    def test_missing_envelope_rejected(self, fields):
        with pytest.raises(FrameError):
            control.split_envelope(fields)

    def test_invalid_envelope_values_rejected(self):
        with pytest.raises(FrameError):
            control.split_envelope({"rid": "not-a-number", "chan": 0})


class SlowRead:
    """Importable sentinel whose reads take *delay* seconds, so the
    callers of a busy connection park while the host works."""

    def __new__(cls, params):
        from repro.core.sentinel import Sentinel

        class Impl(Sentinel):
            def on_read(self, ctx, offset, size):
                time.sleep(float(self.params.get("delay", 0.001)))
                return ctx.data.read_at(offset, size)

        return Impl(params)


def make_stream_pair():
    """Two connected StreamChannels over OS pipes, plus a cleanup."""
    a_read, b_write = os.pipe()
    b_read, a_write = os.pipe()
    a = StreamChannel(os.fdopen(a_read, "rb", buffering=0),
                      os.fdopen(a_write, "wb", buffering=0), name="a")
    b = StreamChannel(os.fdopen(b_read, "rb", buffering=0),
                      os.fdopen(b_write, "wb", buffering=0), name="b")
    return a, b


class TestDemux:
    def test_basic_request_reply(self):
        a, b = make_stream_pair()
        b.register(CONTROL_CHAN, lambda f, p: ({"ok": True, "echo": f["x"]},
                                               p.upper()))
        a.start()
        b.start(serve=True)
        try:
            fields, payload = a.request(CONTROL_CHAN, {"x": 42}, b"abc")
            assert fields == {"ok": True, "echo": 42}
            assert payload == b"ABC"
        finally:
            a.close()

    def test_interleaved_responses_route_to_their_requests(self):
        """Replies arriving out of request order reach the right caller."""
        a, b = make_stream_pair()
        gate = threading.Event()

        def handler(fields, payload):
            if fields["x"] == 0:
                gate.wait(5.0)  # first request replies LAST
            else:
                gate.set()
            return {"ok": True, "echo": fields["x"]}, b""

        b.register(FIRST_SESSION_CHAN, handler)
        b.register(FIRST_SESSION_CHAN + 1, handler)
        a.start()
        b.start(serve=True)
        try:
            slow = a.request_async(FIRST_SESSION_CHAN, {"x": 0})
            fast = a.request_async(FIRST_SESSION_CHAN + 1, {"x": 1})
            fast_fields, _ = fast.wait(5.0)
            slow_fields, _ = slow.wait(5.0)
            assert fast_fields["echo"] == 1
            assert slow_fields["echo"] == 0
        finally:
            a.close()

    def test_concurrent_requests_all_get_their_own_reply(self):
        a, b = make_stream_pair()
        b.register(CONTROL_CHAN, lambda f, p: ({"ok": True, "echo": f["x"]},
                                               p))
        a.start()
        b.start(serve=True)
        errors = []

        def caller(x):
            try:
                for i in range(20):
                    fields, payload = a.request(
                        CONTROL_CHAN, {"x": x * 1000 + i},
                        str(x * 1000 + i).encode())
                    assert fields["echo"] == x * 1000 + i
                    assert payload == str(x * 1000 + i).encode()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(x,))
                   for x in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        a.close()
        assert not errors

    def test_per_channel_ordering_is_preserved(self):
        a, b = make_stream_pair()
        seen = []
        b.register(FIRST_SESSION_CHAN,
                   lambda f, p: (seen.append(f["n"]), ({"ok": True}, b""))[1])
        a.start()
        b.start(serve=True)
        try:
            pendings = [a.request_async(FIRST_SESSION_CHAN, {"n": n})
                        for n in range(50)]
            for pending in pendings:
                pending.wait(5.0)
            assert seen == list(range(50))
        finally:
            a.close()

    def test_handler_exception_becomes_error_reply(self):
        a, b = make_stream_pair()

        def handler(fields, payload):
            raise ProtocolError("handler exploded")

        b.register(CONTROL_CHAN, handler)
        a.start()
        b.start(serve=True)
        try:
            fields, _ = a.request(CONTROL_CHAN, {"cmd": "ping"})
            assert fields["ok"] is False
            assert fields["error_type"] == "ProtocolError"
        finally:
            a.close()

    def test_request_to_unhandled_channel_is_error_reply(self):
        a, b = make_stream_pair()
        # b serves (it has a handler), just not on channel 99.
        b.register(CONTROL_CHAN, lambda f, p: ({"ok": True}, b""))
        a.start()
        b.start(serve=True)
        try:
            fields, _ = a.request(99, {"cmd": "ping"}, timeout=5.0)
            assert fields["ok"] is False
            assert fields["error_type"] == "ProtocolError"
        finally:
            a.close()

    def test_handler_forwarding_its_fields_passes_its_deadline_on(self):
        """A handler gets ``dl`` as its request's Deadline; forwarding
        its fields as they are sends what is left of that budget."""
        a, b = make_stream_pair()
        seen = {}

        def forward(fields, payload):
            seen["forwarder"] = fields["dl"]
            return b.request(FIRST_SESSION_CHAN, fields, payload)

        def answer(fields, payload):
            seen["forwarded"] = fields["dl"]
            return {"ok": True, "x": fields["x"]}, payload

        b.register(CONTROL_CHAN, forward)
        a.register(FIRST_SESSION_CHAN, answer)
        a.start(serve=True)
        b.start(serve=True)
        try:
            fields, payload = a.request(CONTROL_CHAN, {"x": 7}, b"p",
                                        timeout=30.0)
            assert (fields["ok"], fields["x"], payload) == (True, 7, b"p")
            for side in ("forwarder", "forwarded"):
                assert isinstance(seen[side], Deadline)
                assert 0 < seen[side].remaining() <= 30.0
        finally:
            a.close()
            b.close()

    def test_peer_death_fails_outstanding_requests(self):
        a, b = make_stream_pair()
        hold = threading.Event()
        b.register(CONTROL_CHAN, lambda f, p: (hold.wait(5.0),
                                               ({"ok": True}, b""))[1])
        a.start()
        b.start(serve=True)
        pending = a.request_async(CONTROL_CHAN, {"cmd": "ping"})
        b.kill("simulated peer crash")
        with pytest.raises(ChannelClosedError):
            pending.wait(5.0)
        hold.set()
        assert a.dead

    def test_request_after_close_raises(self):
        a, b = make_stream_pair()
        a.start()
        b.start()
        a.close()
        with pytest.raises(ChannelClosedError):
            a.request(CONTROL_CHAN, {"cmd": "ping"})
        # b is read by its callers and has none: nothing reads a's EOF.
        b.close()

    def test_counters_track_pipelining(self):
        a, b = make_stream_pair()
        gate = threading.Event()
        b.register(CONTROL_CHAN, lambda f, p: (gate.wait(5.0),
                                               ({"ok": True}, b""))[1])
        a.start()
        b.start(serve=True)
        try:
            first = a.request_async(CONTROL_CHAN, {"cmd": "ping"})
            second = a.request_async(CONTROL_CHAN, {"cmd": "ping"})
            assert a.counters.in_flight == 2
            gate.set()
            first.wait(5.0)
            second.wait(5.0)
            snap = a.counters.snapshot()
            assert snap["max_in_flight"] >= 2
            assert snap["replies_received"] == 2
            assert snap["per_op"]["ping"]["count"] == 2
        finally:
            a.close()


class TestLocalChannel:
    """The in-memory loopback: one endpoint serves its own requests."""

    def test_round_trip_no_serialization(self):
        app = sentinel = LocalChannel("loopback")
        marker = object()  # deliberately not JSON-encodable
        sentinel.register(FIRST_SESSION_CHAN,
                          lambda f, p: ({"ok": True, "obj": f["obj"]}, p))
        fields, payload = app.request(FIRST_SESSION_CHAN,
                                      {"obj": marker}, b"raw")
        assert fields["obj"] is marker  # crossed by reference, no copy
        assert payload == b"raw"
        app.close()

    def test_local_counters(self):
        app = sentinel = LocalChannel("loopback-counters")
        sentinel.register(FIRST_SESSION_CHAN,
                          lambda f, p: ({"ok": True}, b"xy"))
        app.request(FIRST_SESSION_CHAN, {"cmd": "read"})
        snap = app.counters.snapshot()
        assert snap["requests_sent"] == 1
        assert snap["per_op"]["read"]["count"] == 1
        app.close()

    def test_handler_forwarding_its_fields_passes_its_deadline_on(self):
        app = LocalChannel("loopback-forward")
        seen = []
        app.register(FIRST_SESSION_CHAN,
                     lambda f, p: app.request(FIRST_SESSION_CHAN + 1, f, p))
        app.register(FIRST_SESSION_CHAN + 1,
                     lambda f, p: (seen.append(f["dl"]), ({"ok": True}, p))[1])
        fields, payload = app.request(FIRST_SESSION_CHAN, {"cmd": "read"},
                                      b"q", timeout=30.0)
        assert (fields["ok"], payload) == (True, b"q")
        assert isinstance(seen[0], Deadline)
        assert 0 < seen[0].remaining() <= 30.0
        app.close()

    def test_views_arrive_as_bytes_and_unknown_chan_is_refused(self):
        app = LocalChannel("loopback-views")
        seen = []
        app.register(FIRST_SESSION_CHAN,
                     lambda f, p: (seen.append(p), ({"ok": True}, p))[1])
        buf = bytearray(b"abcd")
        _, payload = app.request(FIRST_SESSION_CHAN, {"cmd": "write"},
                                 (memoryview(buf)[:2], b"yz"))
        assert seen == [b"abyz"] and type(seen[0]) is bytes
        assert payload == b"abyz"
        fields, _ = app.request(FIRST_SESSION_CHAN + 1, {"cmd": "read"})
        assert fields["error_type"] == "ProtocolError"
        assert app.counters.snapshot()["in_flight"] == 0
        app.close()


class TestCallerRead:
    """An application's connection is read by its own callers: the
    thread blocked in ``PendingReply.wait`` takes the read role and
    dispatches every frame it reads."""

    @staticmethod
    def caller_read_pair(handler=None, chans=1):
        a, b = make_stream_pair()
        if handler is not None:
            for offset in range(chans):
                b.register(FIRST_SESSION_CHAN + offset, handler)
        a.start()
        b.start(serve=True)
        return a, b

    def test_no_thread_reads_between_requests(self):
        a, b = self.caller_read_pair(lambda f, p: ({"ok": True}, p))
        try:
            fields, payload = a.request(FIRST_SESSION_CHAN, {"n": 1}, b"x")
            assert fields["ok"] is True and payload == b"x"
            assert a._poller is not None  # callers read, not the loop
            assert not a._reading  # the caller gave the role back
        finally:
            a.close()

    def test_depth_one_request_builds_no_event(self, monkeypatch):
        """A caller that reads its own reply waits on a plain flag: a
        depth-1 request constructs no ``threading.Event``."""
        a, b = self.caller_read_pair(lambda f, p: ({"ok": True}, p))
        caller = threading.current_thread()
        made = []

        class CountingEvent(threading.Event):
            def __init__(self):
                if threading.current_thread() is caller:
                    made.append(1)
                super().__init__()

        try:
            a.request(FIRST_SESSION_CHAN, {"n": 0}, b"x")  # warm up
            monkeypatch.setattr(threading, "Event", CountingEvent)
            for n in range(50):
                fields, payload = a.request(FIRST_SESSION_CHAN, {"n": n},
                                            b"x", timeout=5.0)
                assert fields["ok"] is True and payload == b"x"
            assert made == []
        finally:
            a.close()

    @pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"),
                        reason="per-thread switch counts need RUSAGE_THREAD")
    def test_each_reply_wakes_only_its_caller(self, tmp_path):
        """16 callers at depth 1 on one caller-read connection, to a
        host whose reads take a millisecond, so most callers are parked
        at any moment.  A reply wakes its own caller, and a holder
        giving the role up wakes one successor: a few voluntary
        switches per op across the callers, not one per parked caller
        per frame (a wake-all costs about 18 per op here)."""
        from repro.core import create_active
        from repro.core.runner import SentinelHost

        threads, ops = 16, 60
        path = tmp_path / "wide.af"
        create_active(path, f"{__name__}:SlowRead",
                      params={"delay": 0.001}, data=b"w" * 4096,
                      meta={"data": "memory"})
        host = SentinelHost(str(path))
        try:
            chans = [host.open("process-control") for _ in range(threads)]
            read = {"cmd": "read", "offset": 0, "size": 512}
            for chan in chans:  # warm up
                host.channel.request(chan, dict(read), timeout=10.0)
            start = threading.Barrier(threads)
            switches: list = []
            errors: list = []

            def caller(chan):
                try:
                    start.wait(10.0)
                    before = resource.getrusage(resource.RUSAGE_THREAD)
                    for _ in range(ops):
                        fields, payload = host.channel.request(
                            chan, dict(read), timeout=10.0)
                        assert fields["ok"] is True and len(payload) == 512
                    after = resource.getrusage(resource.RUSAGE_THREAD)
                    switches.append(after.ru_nvcsw - before.ru_nvcsw)
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            workers = [threading.Thread(target=caller, args=(chan,))
                       for chan in chans]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60.0)
            assert not errors, errors
            assert len(switches) == threads
            per_op = sum(switches) / (threads * ops)
            assert per_op <= 5.0, f"{per_op:.2f} caller switches per op"
        finally:
            host.shutdown()

    def test_register_after_start_is_refused(self):
        """Serving is decided at start: a handler registered later
        would never be read, so it is refused."""
        a, b = make_stream_pair()
        a.start()
        try:
            with pytest.raises(RuntimeError):
                a.register(FIRST_SESSION_CHAN, lambda f, p: ({}, b""))
            assert not a._handlers
        finally:
            a.close()
            b.close()

    def test_missing_reply_raises_within_its_budget(self):
        """The role holder polls within its Deadline: a reply that
        never comes (the peer never reads) is a typed timeout, on
        time, and the role is free again afterwards."""
        a, b = make_stream_pair()
        a.start()  # b is never started: nothing answers
        try:
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                a.request(FIRST_SESSION_CHAN, {"n": 1}, timeout=0.2)
            elapsed = time.monotonic() - started
            assert 0.2 <= elapsed < 0.6
            assert not a._reading
            assert a.counters.snapshot()["in_flight"] == 0
        finally:
            a.close()
            b.close()

    def test_sibling_reply_wakes_its_caller_while_holder_waits(self):
        """The role holder waits on a slow handler; a sibling's quick
        reply lands just as the sibling goes to sleep.  The holder must
        wake it then, not when the slow reply comes."""
        def handler(fields, payload):
            time.sleep(fields["d"])
            return {"ok": True}, b""

        a, b = self.caller_read_pair(handler, chans=2)
        slow = threading.Thread(target=a.request, args=(
            FIRST_SESSION_CHAN, {"d": 2.0}), kwargs={"timeout": 10.0})
        try:
            slow.start()
            while not a._reading:
                time.sleep(0.001)
            pending = a.request_async(FIRST_SESSION_CHAN + 1, {"d": 0.05})
            flag = PendingReply.done  # the completion flag's slot
            waiter = threading.current_thread()
            stalled = []

            def done_late(future):
                # Read the flag, then stall before sleeping on the role
                # (holding its lock): the reply lands in between.
                value = flag.__get__(future)
                if (future is pending and not stalled
                        and threading.current_thread() is waiter
                        and a._role.locked()):
                    stalled.append(value)
                    time.sleep(0.3)
                return value

            PendingReply.done = property(done_late, flag.__set__)
            try:
                started = time.monotonic()
                fields, _ = pending.wait(10.0)
                elapsed = time.monotonic() - started
            finally:
                PendingReply.done = flag
            assert fields["ok"] is True
            assert stalled == [False]  # the window was really hit
            assert elapsed < 1.0, f"sibling woke after {elapsed:.2f}s"
            slow.join(10.0)
        finally:
            a.close()

    @settings(max_examples=15, deadline=None)
    @given(plan=st.lists(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                           st.integers(0, 2048)),
                 min_size=1, max_size=6),
        min_size=1, max_size=5))
    def test_pipelining_threads_each_get_their_own_reply(self, plan):
        """N threads x pipelined requests on one caller-read connection:
        whoever holds the role resolves everyone's replies, every caller
        gets its own, and none hangs."""
        def echo(fields, payload):
            time.sleep(0.001 * fields["d"])
            return {"ok": True, "t": fields["t"], "i": fields["i"]}, payload

        a, b = self.caller_read_pair(echo, chans=4)
        errors: list = []
        done: list = []

        def caller(t, ops):
            try:
                pendings = [
                    (i, a.request_async(FIRST_SESSION_CHAN + chan,
                                        {"t": t, "i": i, "d": delay},
                                        bytes([t, i]) * size))
                    for i, (chan, delay, size) in enumerate(ops)]
                # Wait newest-first, so earlier replies are read (and
                # resolved) by whichever caller holds the role.
                for i, pending in reversed(pendings):
                    fields, payload = pending.wait(10.0)
                    assert (fields["t"], fields["i"]) == (t, i)
                    assert payload == bytes([t, i]) * ops[i][2]
                done.append(t)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(t, ops))
                   for t, ops in enumerate(plan)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleavings around the role
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert sorted(done) == list(range(len(plan)))
            assert a.counters.snapshot()["in_flight"] == 0
        finally:
            sys.setswitchinterval(interval)
            a.close()


    def test_caller_picked_as_its_deadline_passes_hands_the_role_on(
            self, monkeypatch):
        """A parked caller whose deadline passes just as the departing
        holder picks it to read next must hand the role on: another
        parked caller's reply lands after the holder left, and only a
        reader can deliver it."""
        def handler(fields, payload):
            time.sleep(fields["d"])
            return {"ok": True}, b""

        class TimesOutAsPicked:
            """A wake-up whose owner's deadline wins the race against
            the pick that releases it."""

            def __init__(self):
                self.lock = threading.Lock()
                self.lock.acquire()

            def acquire(self, blocking=True, timeout=-1):
                woken = self.lock.acquire(blocking, timeout)
                return woken and timeout < 0

            def release(self):
                self.lock.release()

        a, b = self.caller_read_pair(handler, chans=3)
        late = a.request_async(FIRST_SESSION_CHAN + 1, {"d": 5.0})
        real_arm = PendingReply._arm

        def arm(future):
            if future is late and future._wake is None:
                future._wake = TimesOutAsPicked()
            return real_arm(future)

        monkeypatch.setattr(PendingReply, "_arm", arm)
        holder = threading.Thread(target=a.request, args=(
            FIRST_SESSION_CHAN, {"d": 0.1}), kwargs={"timeout": 10.0})
        outcome: list = []
        try:
            holder.start()
            while not a._reading:
                time.sleep(0.001)
            picked = threading.Thread(
                target=lambda: outcome.append(
                    pytest.raises(DeadlineExceededError, late.wait, 10.0)))
            picked.start()
            while late.rid not in a._sleepers:
                time.sleep(0.001)
            started = time.monotonic()
            fields, _ = a.request(FIRST_SESSION_CHAN + 2, {"d": 0.3},
                                  timeout=10.0)
            elapsed = time.monotonic() - started
            assert fields["ok"] is True
            assert elapsed < 2.0, f"stranded for {elapsed:.2f}s"
            picked.join(10.0)
            holder.join(10.0)
            assert not picked.is_alive() and not holder.is_alive()
            assert len(outcome) == 1
        finally:
            a.close()

    def test_parked_callers_timing_out_leave_the_connection_idle(self):
        """Callers with budgets shorter than the handler park and give
        up while others wait with ample budgets.  No ample-budget
        request times out, every reply reaches its own caller, and the
        connection ends idle."""
        def handler(fields, payload):
            time.sleep(0.001 * fields["d"])
            return {"ok": True, "t": fields["t"], "i": fields["i"]}, b""

        a, b = self.caller_read_pair(handler, chans=4)
        errors: list = []

        def caller(t):
            try:
                for i in range(30):
                    budget = (0.002, 0.004, 5.0)[(t + i) % 3]
                    try:
                        fields, _ = a.request(
                            FIRST_SESSION_CHAN + t % 4,
                            {"t": t, "i": i, "d": (t * i) % 4},
                            timeout=budget)
                    except DeadlineExceededError:
                        if budget > 1.0:
                            raise
                        continue
                    if not fields["ok"]:  # expired before the host ran it
                        assert budget < 1.0, fields
                        assert fields["error_type"] == "DeadlineExceededError"
                        continue
                    assert (fields["t"], fields["i"]) == (t, i)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(t,))
                   for t in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleavings around the role
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert not a._reading and not a._sleepers
            assert a.counters.snapshot()["in_flight"] == 0
        finally:
            sys.setswitchinterval(interval)
            a.close()


class TestIdleSweep:
    """Frames nobody waits for on a caller-read connection that serves
    requests: the loop's sweep reads them, and stops with the channel."""

    def test_requests_nobody_waits_for_are_served_and_the_sweep_ends(self):
        loop = EventLoopServer("sweep-loop")
        a, b = make_stream_pair()
        a.loop = loop
        a.register(CONTROL_CHAN,
                   lambda f, p: ({"ok": True, "n": f["n"]}, b""))
        a.start()  # callers read, and no caller here ever waits
        b.start()
        try:
            for n in range(20):
                started = time.monotonic()
                fields, _ = b.request(CONTROL_CHAN, {"cmd": "echo", "n": n},
                                      timeout=5.0)
                elapsed = time.monotonic() - started
                assert fields["n"] == n
                assert elapsed < 4 * READ_POLL_S, \
                    f"request {n} served after {elapsed * 1e3:.0f} ms"
            armed = 0
            deadline = time.monotonic() + 1.0
            while armed != 1 and time.monotonic() < deadline:
                armed = loop.stats()["host.timers"]  # 0 while it runs
            assert armed == 1  # the sweep, re-armed after every pass
            a.close()
            assert loop.stats()["host.timers"] == 0
            time.sleep(3 * READ_POLL_S)  # a live sweep would re-arm
            assert loop.stats()["host.timers"] == 0
        finally:
            a.close()
            b.close()
            loop.shutdown()


class TestSessionPipelining:
    """Many requests in flight on one session channel of a real
    sentinel host (wire transport + hostloop): each is its own frame,
    and the channel still serves them in submission order.  Pipelined
    reads are covered in test_batching."""

    DEPTH = 40

    def test_pipelined_writes_land_in_order(self, tmp_path):
        """Overlapping writes apply in submission order, so
        last-writer-wins reads back deterministically."""
        container = Container.create(
            str(tmp_path / "wr.af"),
            SentinelSpec("repro.sentinels.null:NullFilterSentinel"))
        session = process_control.open_session(container)
        try:
            pendings = [session._lease.request_async(
                {"cmd": "write", "offset": 0}, bytes([salt]) * 4096)
                for salt in range(1, self.DEPTH + 1)]
            for pending in pendings:
                fields, _ = pending.wait(10.0)
                control.raise_for_response(fields)
            assert session.read_at(0, 4096) == bytes([self.DEPTH]) * 4096
        finally:
            session.close()
