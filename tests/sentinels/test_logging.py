"""Tests for the concurrent-log sentinel."""

import sys
import threading

import pytest

from repro.core import Container, open_active

LOG = "repro.sentinels.logfile:ConcurrentLogSentinel"


class TestAppendSemantics:
    def test_writes_become_records(self, make_active):
        path = make_active(LOG)
        with open_active(path, "r+b", strategy="inproc") as stream:
            stream.write(b"first event\n")
            stream.write(b"second event")
        body = Container.load(path).data
        assert body == b"000000 first event\n000001 second event\n"

    def test_unstamped_mode(self, make_active):
        path = make_active(LOG, params={"stamp": False})
        with open_active(path, "r+b", strategy="inproc") as stream:
            stream.write(b"raw line")
        assert Container.load(path).data == b"raw line\n"

    def test_sequence_continues_across_opens(self, make_active):
        path = make_active(LOG)
        with open_active(path, "r+b", strategy="inproc") as stream:
            stream.write(b"a")
        with open_active(path, "r+b", strategy="inproc") as stream:
            stream.write(b"b")
        records = Container.load(path).data.splitlines()
        assert records == [b"000000 a", b"000001 b"]

    def test_reads_see_whole_log(self, make_active):
        path = make_active(LOG)
        with open_active(path, "r+b", strategy="inproc") as stream:
            stream.write(b"x")
            stream.seek(0)
            assert stream.read() == b"000000 x\n"


class TestMultiWriter:
    def test_two_sentinels_interleave_without_loss(self, make_active):
        """Paper: several processes log events using the same log file."""
        path = make_active(LOG, params={"stamp": False})
        a = open_active(path, "r+b", strategy="inproc")
        b = open_active(path, "r+b", strategy="thread")
        try:
            a.write(b"from-a-1")
            b.write(b"from-b-1")
            a.write(b"from-a-2")
        finally:
            a.close()
            b.close()
        records = Container.load(path).data.splitlines()
        assert records == [b"from-a-1", b"from-b-1", b"from-a-2"]

    def test_concurrent_threads_lose_nothing(self, make_active):
        path = make_active(LOG, params={"stamp": False})
        errors = []

        def writer(tag):
            try:
                with open_active(path, "r+b", strategy="inproc") as stream:
                    for i in range(20):
                        stream.write(f"{tag}:{i}".encode())
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in ("t1", "t2", "t3")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        records = Container.load(path).data.splitlines()
        assert len(records) == 60
        for tag in ("t1", "t2", "t3"):
            tagged = [r for r in records if r.startswith(tag.encode())]
            assert tagged == [f"{tag}:{i}".encode() for i in range(20)]

    def test_threads_sharing_one_memory_open_lose_nothing(self, make_active):
        """Threads append through one inproc open of a memory log: the
        read-modify-write of each record runs under the open's own lock,
        so no append overwrites another."""
        from repro.core.strategies import inproc

        path = make_active(LOG, params={"stamp": False},
                           meta={"data": "memory"})
        session = inproc.open_session(Container.load(path))
        errors = []

        def writer(tag):
            try:
                for i in range(100):
                    session.write_at(0, f"{tag}:{i}".encode())
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in ("t1", "t2", "t3", "t4")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the appends finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        records = session.read_at(0, session.size()).splitlines()
        session.close()
        assert not errors
        assert len(records) == 400
        for tag in ("t1", "t2", "t3", "t4"):
            tagged = [r for r in records if r.startswith(tag.encode())]
            assert tagged == [f"{tag}:{i}".encode() for i in range(100)]

    def test_cross_process_writers(self, make_active):
        """Two sentinel child processes appending to one log."""
        path = make_active(LOG, params={"stamp": False})
        a = open_active(path, "r+b", strategy="process-control")
        b = open_active(path, "r+b", strategy="process-control")
        try:
            a.write(b"proc-a")
            b.write(b"proc-b")
            a.write(b"proc-a2")
        finally:
            a.close()
            b.close()
        records = Container.load(path).data.splitlines()
        assert records == [b"proc-a", b"proc-b", b"proc-a2"]


class TestMaintenance:
    def test_auto_compaction(self, make_active):
        path = make_active(LOG, params={"max_records": 5, "keep_records": 3,
                                        "stamp": False})
        with open_active(path, "r+b", strategy="inproc") as stream:
            for i in range(8):
                stream.write(f"r{i}".encode())
        records = Container.load(path).data.splitlines()
        assert len(records) <= 5
        assert records[-1] == b"r7"

    def test_compact_control_op(self, make_active):
        path = make_active(LOG, params={"stamp": False})
        with open_active(path, "r+b", strategy="inproc") as stream:
            for i in range(10):
                stream.write(f"r{i}".encode())
            fields, _ = stream.control("compact", {"keep": 2})
            assert fields["dropped"] == 8
            stream.seek(0)
            assert stream.read() == b"r8\nr9\n"

    def test_compact_to_zero(self, make_active):
        path = make_active(LOG, params={"stamp": False})
        with open_active(path, "r+b", strategy="inproc") as stream:
            stream.write(b"x")
            fields, _ = stream.control("compact", {"keep": 0})
            assert fields["kept"] == 0
            assert stream.getsize() == 0

    def test_stats(self, make_active):
        path = make_active(LOG)
        with open_active(path, "r+b", strategy="inproc") as stream:
            stream.write(b"one")
            stream.write(b"two")
            fields, _ = stream.control("stats")
            assert fields["records"] == 2
