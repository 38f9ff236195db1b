"""Failure injection for the sentinel host process.

PR 3 made the host transport *supervised*: a crashed host is detected,
respawned, and idempotent operations retry transparently after the
session's write journal is replayed.  These tests cover both faces:
recovery must be invisible when it is safe, and crashes must still
surface as typed errors when it is not (``meta={"supervise": False}``,
non-idempotent streams, retry exhaustion).  A wedged host fails its
idle heartbeat, and a wedged sentinel thread (the thread strategy)
surfaces within its op or close budget.
"""

import os
import signal
import threading
import time

import pytest

from repro.core import Container, create_active, hostloop, open_active, policy
from repro.core.strategies import thread as thread_strategy
from repro.errors import (
    ChannelClosedError,
    SentinelCrashError,
    SessionCloseError,
    SpecError,
)

NULL = "repro.sentinels.null:NullFilterSentinel"


class StallRead:
    """Importable sentinel whose reads stall long enough to be mid-flight
    when the host is torn down."""

    def __new__(cls, params):
        from repro.core.sentinel import Sentinel

        class Impl(Sentinel):
            def on_read(self, ctx, offset, size):
                time.sleep(float(self.params.get("delay", 0.3)))
                return ctx.data.read_at(offset, size)

        return Impl(params)


class NoisyCrash:
    """Importable sentinel that writes to stderr, then hard-crashes."""

    def __new__(cls, params):
        from repro.core.sentinel import Sentinel

        class Impl(Sentinel):
            def on_read(self, ctx, offset, size):
                import os
                import sys

                print("LAST WORDS from the sentinel", file=sys.stderr,
                      flush=True)
                os._exit(7)

        return Impl(params)


class CrashOnNthRead:
    """Importable sentinel that kills its own process mid-session."""

    def __new__(cls, params):
        from repro.core.sentinel import Sentinel

        class Impl(Sentinel):
            def __init__(self, p):
                super().__init__(p)
                self.reads = 0

            def on_read(self, ctx, offset, size):
                self.reads += 1
                if self.reads >= int(self.params.get("after", 1)):
                    import os

                    os._exit(41)  # simulate a hard sentinel crash
                return ctx.data.read_at(offset, size)

        return Impl(params)


class Blocking:
    """Importable sentinel whose reads (``block="read"``) or close
    (``block="close"``) wait on :attr:`gate` until the test sets it."""

    gate = threading.Event()

    def __new__(cls, params):
        from repro.core.sentinel import Sentinel

        gate = cls.gate

        class Impl(Sentinel):
            def on_read(self, ctx, offset, size):
                if self.params.get("block") == "read":
                    gate.wait(30.0)
                return ctx.data.read_at(offset, size)

            def on_close(self, ctx):
                if self.params.get("block") == "close":
                    gate.wait(30.0)

        return Impl(params)


@pytest.fixture
def gate(monkeypatch):
    """A fresh gate for :class:`Blocking`, set when the test ends so no
    handler stays blocked on the shared loop."""
    event = threading.Event()
    monkeypatch.setattr(Blocking, "gate", event)
    yield event
    event.set()


class TestTransparentRecovery:
    def test_crash_mid_read_recovers(self, tmp_path):
        """A mid-session host crash is invisible to a sequential reader."""
        path = tmp_path / "crashy.af"
        create_active(path, f"{__name__}:CrashOnNthRead",
                      params={"after": 3}, data=b"0123456789")
        stream = open_active(str(path), "rb", strategy="process-control")
        out = b""
        for _ in range(5):
            out += stream.read(2)
        assert out == b"0123456789"  # byte-identical despite the crash
        assert stream.session._lease.respawns >= 1
        stream.close()

    def test_killed_child_respawns_on_next_op(self, tmp_path):
        path = tmp_path / "victim.af"
        create_active(path, NULL, data=b"x" * 64)
        stream = open_active(str(path), "rb", strategy="process-control")
        assert stream.read(4) == b"xxxx"
        proc = stream.session.host.proc
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=5)
        assert stream.read(4) == b"xxxx"  # respawn + retry, no error
        assert stream.session._lease.respawns == 1
        stream.close()

    def test_write_journal_replayed_after_crash(self, tmp_path):
        """Acked writes survive a crash: the journal replays on respawn."""
        path = tmp_path / "journal.af"
        create_active(path, NULL, data=b"\x00" * 16)
        stream = open_active(str(path), "r+b", strategy="process-control")
        stream.write(b"WRITTEN!")
        proc = stream.session.host.proc
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=5)
        stream.seek(0)
        assert stream.read(8) == b"WRITTEN!"
        assert stream.session._lease.respawns == 1
        stream.close()

    def test_unsupervised_crash_surfaces(self, tmp_path):
        """``meta={"supervise": False}`` restores fail-fast semantics."""
        path = tmp_path / "fragile.af"
        create_active(path, f"{__name__}:CrashOnNthRead",
                      params={"after": 3}, data=b"0123456789",
                      meta={"supervise": False})
        stream = open_active(str(path), "rb", strategy="process-control")
        assert stream.read(2) == b"01"
        assert stream.read(2) == b"23"
        with pytest.raises(SentinelCrashError):
            stream.read(2)
        with pytest.raises(SentinelCrashError):
            stream.close()

    def test_retry_exhaustion_surfaces_typed_crash(self, tmp_path):
        """A sentinel that crashes on every respawn exhausts the schedule."""
        path = tmp_path / "doomed.af"
        create_active(path, f"{__name__}:CrashOnNthRead",
                      params={"after": 1}, data=b"0123456789")
        stream = open_active(str(path), "rb", strategy="process-control")
        with pytest.raises(SentinelCrashError):
            stream.read(2)
        assert stream.session._lease.respawns >= 1


class TestChildCrash:
    def test_bad_spec_fails_at_open(self, tmp_path):
        path = tmp_path / "broken.af"
        # spec resolves to a module that import-errors in the host child;
        # the failure round-trips as a typed error response at open time
        create_active(path, "definitely.not.a.module:Sentinel")
        with pytest.raises(SpecError, match="definitely"):
            open_active(str(path), "rb", strategy="process-control")

    def test_crash_message_includes_stderr(self, tmp_path):
        path = tmp_path / "noisy.af"
        create_active(path, f"{__name__}:NoisyCrash", data=b"abc",
                      meta={"supervise": False})
        stream = open_active(str(path), "rb", strategy="process-control")
        with pytest.raises(SentinelCrashError) as excinfo:
            stream.read(1)
        message = str(excinfo.value)
        # stderr tail is drained asynchronously; give it a beat if empty
        for _ in range(20):
            if "LAST WORDS" in message:
                break
            time.sleep(0.05)
            message = stream.session.host.stderr_text()
        assert "LAST WORDS" in message
        with pytest.raises(SentinelCrashError):
            stream.close()

    def test_stream_strategy_child_crash(self, tmp_path):
        path = tmp_path / "crashy2.af"
        create_active(path, f"{__name__}:CrashOnNthRead",
                      params={"after": 1}, data=b"0123456789",
                      meta={"data": "memory", "supervise": False})
        stream = open_active(str(path), "rb", strategy="process")
        with pytest.raises(SentinelCrashError):
            # the pump dies before producing; EOF + nonzero exit
            data = stream.read(10)
            if not data:  # EOF race: surface the crash via close
                stream.close()

    def test_clean_eof_is_not_a_crash(self, tmp_path):
        path = tmp_path / "fine.af"
        create_active(path, NULL, data=b"short")
        with open_active(str(path), "rb", strategy="process") as stream:
            assert stream.read() == b"short"
            assert stream.read(10) == b""  # EOF, not an error


class TestShutdownOrdering:
    """Teardown can never leave a pending reply future unresolved."""

    def test_kill_mid_shutdown_leaves_no_hung_futures(self, tmp_path):
        """Killing a host with a pipeline of mid-flight ops fails every
        outstanding future promptly and drains the in-flight count."""
        path = tmp_path / "stall.af"
        create_active(path, f"{__name__}:StallRead",
                      params={"delay": 0.5}, data=b"y" * 64,
                      meta={"data": "memory", "supervise": False})
        stream = open_active(str(path), "rb", strategy="process-control")
        lease = stream.session._lease
        pendings = [lease.request_async(
            {"cmd": "read", "offset": 0, "size": 1}) for _ in range(8)]
        stream.session.host.mark_crashed("test: killed mid-shutdown")
        for pending in pendings:
            with pytest.raises((SentinelCrashError, ChannelClosedError)):
                pending.wait(5.0)
        assert lease.channel.counters.snapshot()["in_flight"] == 0
        with pytest.raises(SentinelCrashError):
            stream.close()

    def test_handler_raising_during_teardown_still_replies(self):
        """A handler dying with a BaseException (a teardown-grade
        failure like SystemExit) must still resolve the peer's future
        with an error reply rather than leaving it hanging."""
        from repro.core.channel import FIRST_SESSION_CHAN, LocalChannel

        app = srv = LocalChannel("teardown")

        def dying_handler(fields, payload):
            raise SystemExit("sentinel tearing down")

        srv.register(FIRST_SESSION_CHAN, dying_handler)
        pending = app.request_async(FIRST_SESSION_CHAN, {"cmd": "read"})
        fields, _ = pending.wait(5.0)  # resolves; never hangs
        assert fields["ok"] is False
        assert fields["error_type"] == "SystemExit"
        assert app.counters.snapshot()["in_flight"] == 0
        app.close()

    def test_shutdown_closes_the_stderr_pipe(self, tmp_path):
        """The stderr drain ends at the child's EOF and closes its end
        of the pipe, so a shut-down host leaks no file object."""
        from repro.core.runner import SentinelHost

        path = tmp_path / "quiet.af"
        create_active(path, NULL, data=b"abc", meta={"data": "memory"})
        before = set(threading.enumerate())
        host = SentinelHost(str(path))
        drains = [t for t in threading.enumerate()
                  if t not in before and t.name == "af-stderr-drain"]
        assert len(drains) == 1
        host.shutdown()
        drains[0].join(5.0)
        assert not drains[0].is_alive()
        assert host.proc.stderr.closed


class TestCallerReadCrash:
    def test_sigkill_while_a_caller_reads_fails_every_waiter(self, tmp_path):
        """A connection without a network bridge is read by its callers.
        SIGKILL the host while one caller holds the read role and others
        sleep: every waiter fails with the typed crash error, none hangs."""
        from repro.core.runner import SentinelHost

        path = tmp_path / "stall.af"
        create_active(path, f"{__name__}:StallRead",
                      params={"delay": 10.0}, data=b"y" * 64,
                      meta={"data": "memory"})
        host = SentinelHost(str(path))
        try:
            chans = [host.open("process-control") for _ in range(3)]
            outcomes: list = []

            def waiter(chan):
                try:
                    host.channel.request(
                        chan, {"cmd": "read", "offset": 0, "size": 1},
                        timeout=30.0)
                    outcomes.append("replied")
                except Exception as exc:  # asserted below
                    outcomes.append(exc)

            threads = [threading.Thread(target=waiter, args=(chan,))
                       for chan in chans]
            for thread in threads:
                thread.start()
            channel = host.channel
            deadline = time.monotonic() + 10.0
            while not (channel._reading and len(channel._sleepers) == 2
                       and channel.counters.in_flight == 3):
                assert time.monotonic() < deadline, "callers never parked"
                time.sleep(0.01)
            os.kill(host.proc.pid, signal.SIGKILL)
            for thread in threads:
                thread.join(10.0)
            assert not any(thread.is_alive() for thread in threads)
            assert len(outcomes) == 3
            assert all(isinstance(o, SentinelCrashError) for o in outcomes)
            assert channel.counters.snapshot()["in_flight"] == 0
        finally:
            host.shutdown()


class TestHeartbeat:
    def test_stopped_host_fails_its_heartbeat_and_respawns(
            self, tmp_path, monkeypatch):
        """A host that is alive but answers nothing (SIGSTOP) fails its
        idle heartbeat: it is declared dead with a typed crash naming
        the heartbeat, and the next supervised read respawns it."""
        monkeypatch.setattr(policy, "HEARTBEAT_IDLE_S", 0.2)
        monkeypatch.setattr(policy, "HEARTBEAT_TIMEOUT", 0.2)
        path = tmp_path / "wedged.af"
        create_active(path, NULL, data=b"h" * 64)
        stream = open_active(str(path), "rb", strategy="process-control")
        host = stream.session.host
        try:
            assert stream.read(4) == b"hhhh"
            os.kill(host.proc.pid, signal.SIGSTOP)
            deadline = time.monotonic() + 10.0
            while host.alive and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not host.alive
            error = host.channel.death_error
            assert isinstance(error, SentinelCrashError)
            assert "heartbeat" in str(error)
            assert stream.read(4) == b"hhhh"  # on a respawned host
            assert stream.session.host is not host
            assert stream.session._lease.respawns == 1
        finally:
            try:
                os.kill(host.proc.pid, signal.SIGCONT)
            except OSError:
                pass  # already reaped
            stream.close()


class TestThreadSupervision:
    """The thread strategy bounds every wait on its sentinel thread."""

    def test_blocked_op_surfaces_as_unresponsive(self, tmp_path,
                                                 monkeypatch, gate):
        monkeypatch.setattr(policy, "DEFAULT_OP_TIMEOUT", 0.3)
        path = tmp_path / "stuck-read.af"
        create_active(path, f"{__name__}:Blocking",
                      params={"block": "read"}, data=b"t" * 16)
        session = thread_strategy.open_session(Container.load(str(path)))
        try:
            started = time.monotonic()
            with pytest.raises(SentinelCrashError, match="unresponsive"):
                session.read_at(0, 4)
            assert time.monotonic() - started < 5.0
        finally:
            gate.set()
            session.close()

    def test_blocked_close_raises_and_counts_a_close_error(
            self, tmp_path, monkeypatch, gate):
        monkeypatch.setattr(policy, "CLOSE_TIMEOUT", 0.3)
        path = tmp_path / "stuck-close.af"
        create_active(path, f"{__name__}:Blocking",
                      params={"block": "close"}, data=b"t" * 16)
        session = thread_strategy.open_session(Container.load(str(path)))
        assert session.read_at(0, 4) == b"tttt"
        try:
            with pytest.raises(SessionCloseError):
                session.close()
            assert session.counters.close_errors == 1
        finally:
            gate.set()


class TestThreadLoopback:
    """A thread open's calls queue on the shared loop like a host's."""

    @staticmethod
    def read_in_threads(session, count):
        outcomes: list = []

        def reader():
            try:
                outcomes.append(session.read_at(0, 4))
            except Exception as exc:  # asserted by the caller
                # The type alone: a kept exception's traceback would
                # keep the session (and its counters) alive.
                outcomes.append(type(exc))

        threads = [threading.Thread(target=reader) for _ in range(count)]
        for thread in threads:
            thread.start()
        return threads, outcomes

    def test_calls_past_the_queue_bound_wait_instead_of_failing(
            self, tmp_path, monkeypatch, gate):
        """Readers past the channel's FIFO bound are fast-rejected by the
        loop; the session backs off and re-submits, as a host's does."""
        path = tmp_path / "queued.af"
        create_active(path, f"{__name__}:Blocking",
                      params={"block": "read"}, data=b"q" * 16)
        # A loop of the shared loop's shape, serving this open alone, so
        # its rejects stay out of the process-wide host gauges.
        loop = hostloop.EventLoopServer("overload-loop")
        with monkeypatch.context() as patch:
            patch.setattr(hostloop, "_SHARED", loop)
            session = thread_strategy.open_session(
                Container.load(str(path)))
        rejects = loop.stats()["host.rejects"]
        count = loop.queue_depth + 8
        threads, outcomes = self.read_in_threads(session, count)
        try:
            deadline = time.monotonic() + 2.0
            while loop.stats()["host.rejects"] - rejects < 8 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            gate.set()
            for thread in threads:
                thread.join(30.0)
            assert outcomes == [b"qqqq"] * count
        finally:
            gate.set()
            session.close()
            loop.shutdown()

    def test_close_of_a_wedged_open_fails_every_queued_reader(
            self, tmp_path, monkeypatch, gate):
        monkeypatch.setattr(policy, "CLOSE_TIMEOUT", 0.3)
        path = tmp_path / "wedged.af"
        create_active(path, f"{__name__}:Blocking",
                      params={"block": "read"}, data=b"w" * 16)
        session = thread_strategy.open_session(Container.load(str(path)))
        threads, outcomes = self.read_in_threads(session, 5)
        deadline = time.monotonic() + 5.0
        while session.counters.snapshot()["in_flight"] < 5 \
                and time.monotonic() < deadline:
            time.sleep(0.005)
        started = time.monotonic()
        with pytest.raises(SessionCloseError):
            session.close()
        for thread in threads:
            thread.join(5.0)
        assert time.monotonic() - started < 5.0
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == [SentinelCrashError] * 5
        assert session.counters.snapshot()["in_flight"] == 0


class TestApplicationMisbehaviour:
    def test_close_without_reading_everything(self, tmp_path):
        """Abandoning a stream mid-read must not hang or error."""
        path = tmp_path / "big.af"
        create_active(path, NULL, data=b"z" * 300_000)
        stream = open_active(str(path), "rb", strategy="process")
        assert len(stream.read(10)) == 10
        stream.close()  # child blocked writing the rest; must unblock

    def test_immediate_close(self, tmp_path):
        path = tmp_path / "f.af"
        create_active(path, NULL, data=b"data")
        for strategy in ("process", "process-control"):
            stream = open_active(str(path), "rb", strategy=strategy)
            stream.close()

    def test_many_sequential_opens_no_fd_leak(self, tmp_path):
        from repro.core.runner import HOST_POOL

        path = tmp_path / "f.af"
        create_active(path, NULL, data=b"data")
        fd_dir = f"/proc/{os.getpid()}/fd"
        # A lingering pooled host holds its pipes/shm by design; drain
        # the pool at both sample points so only true leaks count.
        HOST_POOL.shutdown_all()
        before = len(os.listdir(fd_dir))
        for _ in range(10):
            with open_active(str(path), "rb",
                             strategy="process-control") as stream:
                stream.read(4)
        HOST_POOL.shutdown_all()
        after = len(os.listdir(fd_dir))
        assert after <= before + 4  # allowance for pytest bookkeeping
