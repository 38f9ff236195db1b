"""Acceptance tests for the pooled, multiplexed sentinel host.

The tentpole property: many opens of one container share one host
child and one framed connection, and operations from distinct opens
are concurrently in flight over it (pipelining), as evidenced by the
transport counters.
"""

import threading

from repro.core import create_active, open_active
from tests.conftest import open_dedicated_session

NULL = "repro.sentinels.null:NullFilterSentinel"


class SlowRead:
    """Importable sentinel whose reads dawdle, to overlap operations."""

    def __new__(cls, params):
        import time

        from repro.core.sentinel import Sentinel

        class Impl(Sentinel):
            def on_read(self, ctx, offset, size):
                time.sleep(float(self.params.get("delay", 0.2)))
                return ctx.data.read_at(offset, size)

        return Impl(params)


class TestHostSharing:
    def test_concurrent_opens_share_one_host(self, tmp_path):
        path = tmp_path / "shared.af"
        create_active(path, NULL, data=b"payload")
        streams = [open_active(str(path), "rb", strategy="process-control")
                   for _ in range(4)]
        try:
            hosts = {id(stream.session.host) for stream in streams}
            assert len(hosts) == 1
            pids = {stream.session.host.proc.pid for stream in streams}
            assert len(pids) == 1
            for stream in streams:
                assert stream.read() == b"payload"
        finally:
            for stream in streams:
                stream.close()

    def test_mixed_strategies_share_one_host(self, tmp_path):
        path = tmp_path / "mixed.af"
        create_active(path, NULL, data=b"payload")
        control_stream = open_active(str(path), "rb",
                                     strategy="process-control")
        stream_stream = open_active(str(path), "rb", strategy="process")
        try:
            assert control_stream.session.host is stream_stream.session.host
            assert control_stream.read() == b"payload"
            assert stream_stream.read() == b"payload"
        finally:
            control_stream.close()
            stream_stream.close()

    def test_sessions_have_independent_channels(self, tmp_path):
        path = tmp_path / "indep.af"
        create_active(path, NULL, data=b"0123456789")
        a = open_active(str(path), "r+b", strategy="process-control")
        b = open_active(str(path), "rb", strategy="process-control")
        try:
            assert a.session._lease.chan != b.session._lease.chan
            a.seek(5)
            assert b.tell() == 0  # cursors are per-open
            assert b.read(3) == b"012"
            assert a.read(3) == b"567"
        finally:
            a.close()
            b.close()


class TestPipelining:
    def test_ops_from_distinct_opens_overlap_in_flight(self, tmp_path):
        """The ISSUE's acceptance bar: >= 2 operations from distinct opens
        of the same container concurrently in flight over one host
        connection, asserted via the transport counters."""
        path = tmp_path / "slow.af"
        create_active(path, f"{__name__}:SlowRead",
                      params={"delay": 0.3}, data=b"x" * 64)
        a = open_active(str(path), "rb", strategy="process-control")
        b = open_active(str(path), "rb", strategy="process-control")
        try:
            assert a.session.host is b.session.host
            channel = a.session.channel
            assert channel is b.session.channel

            threads = [threading.Thread(target=stream.read, args=(8,))
                       for stream in (a, b)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            snapshot = channel.counters.snapshot()
            assert snapshot["max_in_flight"] >= 2
            assert snapshot["per_op"]["read"]["count"] == 2
        finally:
            a.close()
            b.close()

    def test_pipelined_ops_overlap_in_time(self, tmp_path):
        """Two 0.3 s reads over one connection take well under 0.6 s."""
        import time

        path = tmp_path / "timed.af"
        create_active(path, f"{__name__}:SlowRead",
                      params={"delay": 0.3}, data=b"x" * 64)
        a = open_active(str(path), "rb", strategy="process-control")
        b = open_active(str(path), "rb", strategy="process-control")
        try:
            started = time.perf_counter()
            threads = [threading.Thread(target=stream.read, args=(8,))
                       for stream in (a, b)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            assert elapsed < 0.55, (
                f"two 0.3s reads took {elapsed:.3f}s: not pipelined")
        finally:
            a.close()
            b.close()

    def test_transport_stats_surface_on_file_object(self, tmp_path):
        path = tmp_path / "stats.af"
        create_active(path, NULL, data=b"abcdef")
        with open_active(str(path), "rb",
                         strategy="process-control") as stream:
            stream.read(3)
            stats = stream.transport_stats()
            assert stats is not None
            assert stats["per_op"]["read"]["count"] >= 1
            assert stats["replies_received"] >= 1

        with open_active(str(path), "rb", strategy="inproc") as stream:
            assert stream.transport_stats() is None


class TestPoolLifecycle:
    def test_host_retires_after_linger(self, tmp_path):
        import time

        path = tmp_path / "linger.af"
        create_active(path, NULL, data=b"data")
        stream = open_active(str(path), "rb", strategy="process-control")
        host = stream.session.host
        stream.read()
        stream.close()
        deadline = time.monotonic() + 5.0
        while host.proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert host.proc.poll() == 0  # clean EOF-driven exit

    def test_reopen_within_linger_reuses_host(self, tmp_path):
        path = tmp_path / "reuse.af"
        create_active(path, NULL, data=b"data")
        first = open_active(str(path), "rb", strategy="process-control")
        pid = first.session.host.proc.pid
        first.close()
        second = open_active(str(path), "rb", strategy="process-control")
        try:
            assert second.session.host.proc.pid == pid
            assert second.read() == b"data"
        finally:
            second.close()

    def test_dead_host_is_replaced_on_next_open(self, tmp_path):
        import signal

        path = tmp_path / "replace.af"
        create_active(path, NULL, data=b"data")
        first = open_active(str(path), "rb", strategy="process-control")
        proc = first.session.host.proc
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=5)
        second = open_active(str(path), "rb", strategy="process-control")
        try:
            assert second.session.host.proc.pid != proc.pid
            assert second.read() == b"data"
        finally:
            second.close()
            try:
                first.close()
            except Exception:
                pass  # the killed host surfaces as a crash; expected

    def test_private_pool_lease_gets_own_host(self, tmp_path):
        from repro.core.container import Container
        from repro.core.strategies import process_control

        path = tmp_path / "excl.af"
        create_active(path, NULL, data=b"data")
        container = Container.load(str(path))
        pooled = process_control.open_session(container)
        private = open_dedicated_session(container)
        try:
            assert pooled.host is not private.host
            assert private.read_at(0, 4) == b"data"
        finally:
            private.close()
            pooled.close()
        # The private pool keeps no idle host: closing retires it.
        assert private.host.proc.wait(timeout=10) is not None
