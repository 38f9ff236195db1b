"""Tests for the remote-file proxy sentinel and its caching paths."""

import pytest

from repro.core import open_active
from repro.net import Address, FtpServer, HttpServer, Network
from repro.net.ftpd import FtpAccount

REMOTE = "repro.sentinels.remotefile:RemoteFileSentinel"


@pytest.fixture
def remote_setup(network, fileserver, make_active):
    fileserver.put_file("data/report.txt", b"remote report contents")

    def make(cache="none", meta=None, **extra):
        params = {"address": "files.test:7000", "path": "data/report.txt",
                  "cache": cache, **extra}
        return make_active(REMOTE, params=params,
                           meta={"data": "memory", **(meta or {})})

    return network, fileserver, make


@pytest.mark.parametrize("cache", ["none", "disk", "memory"])
class TestCachePaths:
    """All three Figure 5 paths serve identical bytes."""

    def test_read(self, remote_setup, cache):
        network, _, make = remote_setup
        path = make(cache)
        with open_active(path, "rb", strategy="inproc", network=network) as stream:
            assert stream.read() == b"remote report contents"

    def test_write_reaches_origin(self, remote_setup, cache):
        network, server, make = remote_setup
        path = make(cache)
        with open_active(path, "r+b", strategy="inproc", network=network) as stream:
            stream.write(b"REMOTE")
        assert server.get_file("data/report.txt") == b"REMOTE report contents"

    def test_getsize_is_remote_size(self, remote_setup, cache):
        network, _, make = remote_setup
        path = make(cache)
        with open_active(path, "rb", strategy="inproc", network=network) as stream:
            assert stream.getsize() == 22


class TestCacheBehaviour:
    def test_no_cache_hits_origin_every_read(self, remote_setup):
        network, _, make = remote_setup
        path = make("none")
        with open_active(path, "rb", strategy="inproc", network=network) as stream:
            before = network.stats.requests
            stream.read(4)
            stream.seek(0)
            stream.read(4)
            assert network.stats.requests - before == 2

    def test_memory_cache_absorbs_repeat_reads(self, remote_setup):
        network, _, make = remote_setup
        path = make("memory", block_size=64)
        with open_active(path, "rb", strategy="inproc", network=network) as stream:
            stream.read(4)
            before = network.stats.requests
            stream.seek(0)
            stream.read(4)
            assert network.stats.requests == before

    def test_cache_stats_control_op(self, remote_setup):
        network, _, make = remote_setup
        path = make("memory", block_size=8)
        with open_active(path, "rb", strategy="inproc", network=network) as stream:
            stream.read(16)
            stream.seek(0)
            stream.read(16)
            fields, _ = stream.control("cache_stats")
            assert fields["cache"] == "memory"
            assert fields["hits"] >= 2
            assert fields["blocks"] == 2

    def test_disk_cache_lands_in_data_part(self, remote_setup, make_active):
        from repro.core import Container, create_active

        network, _, _ = remote_setup
        # disk cache needs a container-backed data part
        import tempfile, os

        d = tempfile.mkdtemp()
        path = os.path.join(d, "cached.af")
        create_active(path, REMOTE,
                      params={"address": "files.test:7000",
                              "path": "data/report.txt", "cache": "disk"})
        with open_active(path, "r+b", strategy="inproc", network=network) as stream:
            stream.read(10)
        # the fetched blocks persisted into the container's data segment
        assert b"remote rep" in Container.load(path).data

    def test_validate_invalidation_on_remote_change(self, remote_setup):
        network, server, make = remote_setup
        path = make("memory", validate=True)
        with open_active(path, "rb", strategy="inproc", network=network) as stream:
            assert stream.read(6) == b"remote"
            server.put_file("data/report.txt", b"UPDATE report contents")
            stream.seek(0)
            assert stream.read(6) == b"UPDATE"

    def test_stale_without_validation(self, remote_setup):
        network, server, make = remote_setup
        path = make("memory", validate=False)
        with open_active(path, "rb", strategy="inproc", network=network) as stream:
            assert stream.read(6) == b"remote"
            server.put_file("data/report.txt", b"UPDATE report contents")
            stream.seek(0)
            assert stream.read(6) == b"remote"  # cache is stale, as configured
            stream.control("invalidate")
            stream.seek(0)
            assert stream.read(6) == b"UPDATE"

    def test_truncate_propagates(self, remote_setup):
        network, server, make = remote_setup
        path = make("memory")
        with open_active(path, "r+b", strategy="inproc", network=network) as stream:
            stream.truncate(6)
        assert server.get_file("data/report.txt") == b"remote"


class TestProtocols:
    def test_http_origin(self, network, make_active):
        network.bind(Address("web", 80),
                     HttpServer({"/doc.html": b"<p>hello</p>"}))
        path = make_active(REMOTE, params={"address": "web:80",
                                           "path": "/doc.html",
                                           "protocol": "http"},
                           meta={"data": "memory"})
        with open_active(path, "r+b", strategy="inproc", network=network) as stream:
            assert stream.read() == b"<p>hello</p>"
            stream.seek(3)
            stream.write(b"HELLO")
        server = network._services[Address("web", 80)].service
        assert server.op_GET(__import__("repro.net.message", fromlist=["Request"])
                             .Request(op="GET", fields={"path": "/doc.html"})
                             ).payload == b"<p>HELLO</p>"

    def test_ftp_origin_with_auth(self, network, make_active):
        accounts = {"bob": FtpAccount(password="pw", read_prefixes=("pub/",),
                                      write_prefixes=("pub/",))}
        network.bind(Address("ftp.host", 21),
                     FtpServer(accounts, files={"pub/f.txt": b"ftp body"}))
        path = make_active(REMOTE, params={"address": "ftp.host:21",
                                           "path": "pub/f.txt",
                                           "protocol": "ftp",
                                           "user": "bob", "password": "pw"},
                           meta={"data": "memory"})
        with open_active(path, "rb", strategy="inproc", network=network) as stream:
            assert stream.read() == b"ftp body"
            assert stream.getsize() == 8

    def test_ftp_bad_credentials(self, network, make_active):
        from repro.errors import NetworkError, SentinelError

        network.bind(Address("ftp.host", 21),
                     FtpServer({"bob": FtpAccount(password="pw")}))
        path = make_active(REMOTE, params={"address": "ftp.host:21",
                                           "path": "x", "protocol": "ftp",
                                           "user": "bob",
                                           "password": "WRONG"},
                           meta={"data": "memory"})
        with pytest.raises((NetworkError, SentinelError)):
            open_active(path, "rb", strategy="inproc", network=network)

    def test_missing_remote_file(self, network, fileserver, make_active):
        from repro.errors import RemoteFileNotFound

        path = make_active(REMOTE, params={"address": "files.test:7000",
                                           "path": "ghost.txt"},
                           meta={"data": "memory"})
        with open_active(path, "rb", strategy="inproc", network=network) as stream:
            with pytest.raises(RemoteFileNotFound):
                stream.getsize()

    def test_unknown_protocol_rejected(self, make_active):
        from repro.errors import SpecError

        path = make_active(REMOTE, params={"address": "a:1", "path": "p",
                                           "protocol": "gopher"})
        with pytest.raises(SpecError):
            open_active(path, "rb", strategy="inproc")

    def test_unknown_cache_rejected(self, make_active):
        from repro.errors import SpecError

        path = make_active(REMOTE, params={"address": "a:1", "path": "p",
                                           "cache": "quantum"})
        with pytest.raises(SpecError):
            open_active(path, "rb", strategy="inproc")

    def test_missing_params_rejected(self, make_active):
        from repro.errors import SpecError

        path = make_active(REMOTE, params={"path": "p"})
        with pytest.raises(SpecError):
            open_active(path, "rb", strategy="inproc")


class TestAcrossProcessBoundary:
    """The sentinel child reaches origin services through the bridge."""

    def test_remote_read_via_child_process(self, remote_setup):
        network, _, make = remote_setup
        path = make("none")
        with open_active(path, "rb", strategy="process-control",
                         network=network) as stream:
            assert stream.read() == b"remote report contents"

    def test_remote_write_via_child_process(self, remote_setup):
        network, server, make = remote_setup
        path = make("none")
        with open_active(path, "r+b", strategy="process-control",
                         network=network) as stream:
            stream.write(b"CHILD!")
        assert server.get_file("data/report.txt").startswith(b"CHILD!")

    def test_partition_surfaces_as_sentinel_error(self, remote_setup):
        from repro.errors import SentinelError

        network, _, make = remote_setup
        path = make("none")
        with open_active(path, "rb", strategy="inproc", network=network) as stream:
            network.partition(Address("files.test", 7000))
            with pytest.raises(Exception):
                stream.read(4)
            network.heal(Address("files.test", 7000))
            stream.seek(0)
            assert stream.read(6) == b"remote"


class TestPipelinedCache:
    """Read-ahead and write-behind riding the multiplexed channel."""

    def test_readahead_prefetches_sequential_scan(self, remote_setup):
        network, server, make = remote_setup
        server.put_file("data/big.bin", bytes(range(256)) * 16)  # 4 KiB
        path = make("memory", path="data/big.bin",
                    block_size=256, readahead=8)
        with open_active(path, "rb", strategy="inproc", network=network) as stream:
            body = b"".join(stream.read(512) for _ in range(8))
            assert body == bytes(range(256)) * 16
            stats = stream.cache_stats()
            assert stats["prefetch_issued"] > 0
            assert stats["prefetch_used"] > 0
            assert stream.stats.prefetch_issued == stats["prefetch_issued"]

    def test_writeback_buffers_until_flush(self, remote_setup):
        network, server, make = remote_setup
        path = make("memory", writeback=True)
        with open_active(path, "r+b", strategy="inproc", network=network) as stream:
            before = network.stats.requests
            stream.write(b"BUFFERED")
            assert network.stats.requests == before  # no origin exchange
            assert server.get_file("data/report.txt").startswith(b"remote")
            stream.seek(0)
            assert stream.read(8) == b"BUFFERED"     # reads see the buffer
            stream.flush()
        assert server.get_file("data/report.txt").startswith(b"BUFFERED")

    def test_close_flushes_writeback(self, remote_setup):
        network, server, make = remote_setup
        path = make("memory", writeback=True)
        with open_active(path, "r+b", strategy="inproc", network=network) as stream:
            stream.write(b"ATCLOSE!")
        assert server.get_file("data/report.txt").startswith(b"ATCLOSE!")

    def test_writeback_coalesces_flush(self, remote_setup):
        network, server, make = remote_setup
        path = make("memory", writeback=True)
        with open_active(path, "r+b", strategy="inproc", network=network) as stream:
            for i in range(6):
                stream.write(bytes([65 + i]) * 2)
            before = network.stats.requests
            stream.flush()
            # one writev, not six write exchanges
            assert network.stats.requests - before <= 2
            assert stream.cache_stats()["coalesced_flushes"] == 1
        assert server.get_file("data/report.txt").startswith(b"AABBCCDDEEFF")

    @pytest.mark.parametrize("extra,per_flush", [
        ({}, 1), ({"validate": True}, 2), ({"stale_reads": True}, 2)],
        ids=["plain", "validate", "stale_reads"])
    def test_flush_stats_the_origin_only_when_read(self, remote_setup,
                                                   extra, per_flush):
        """A flush is one ``writev``; the ``stat`` refreshing the origin
        version and size follows only when something reads them."""
        network, server, make = remote_setup
        path = make("memory", writeback=True, **extra)
        with open_active(path, "r+b", strategy="inproc",
                         network=network) as stream:
            for i in range(3):
                stream.seek(2 * i)
                stream.write(b"W%d" % i)
                before = network.stats.requests
                stream.flush()
                assert network.stats.requests - before == per_flush
        assert server.get_file("data/report.txt").startswith(b"W0W1W2")

    def test_writeback_size_includes_buffered_tail(self, remote_setup):
        network, _, make = remote_setup
        path = make("memory", writeback=True)
        with open_active(path, "r+b", strategy="inproc", network=network) as stream:
            stream.seek(0, 2)
            stream.write(b"0123456789")
            assert stream.getsize() == 32  # 22 remote + 10 buffered

    def test_truncate_flushes_first(self, remote_setup):
        network, server, make = remote_setup
        path = make("memory", writeback=True)
        with open_active(path, "r+b", strategy="inproc", network=network) as stream:
            stream.write(b"KEEP")
            stream.truncate(4)
        assert server.get_file("data/report.txt") == b"KEEP"

    def test_cache_stats_dash_name(self, remote_setup):
        network, _, make = remote_setup
        path = make("memory", block_size=8)
        with open_active(path, "rb", strategy="inproc", network=network) as stream:
            stream.read(16)
            fields, _ = stream.control("cache-stats")
            assert fields["cache"] == "memory"
            assert fields["misses"] >= 1

    def test_pipelining_requires_cache(self, remote_setup):
        from repro.errors import SpecError

        network, _, make = remote_setup
        for extra in ({"readahead": 4}, {"writeback": True}):
            path = make("none", **extra)
            with pytest.raises(SpecError, match="cache"):
                open_active(path, "rb", strategy="inproc", network=network)


class TestWritebackDurability:
    """Kill the sentinel host mid-stream: flushed bytes survive at the
    origin, and with supervision the buffered ones are *replayed* onto
    the respawned host — never silently dropped, never silently
    'written'."""

    def test_crash_replays_unflushed_writes(self, remote_setup):
        import signal

        network, server, make = remote_setup
        server.put_file("data/report.txt", b"#" * 64)
        path = make("memory", writeback=True, block_size=16)
        stream = open_active(path, "r+b", strategy="process-control",
                             network=network)
        stream.write(b"FLUSHED!")
        stream.flush()
        assert server.get_file("data/report.txt").startswith(b"FLUSHED!")
        stream.seek(32)
        stream.write(b"UNFLUSHED")
        proc = stream.session.host.proc
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=5)
        # The session journal replays every acked write (including the
        # not-yet-flushed one) onto the respawned host before the flush
        # retries: nothing vanishes.
        stream.flush()
        assert stream.session._lease.respawns >= 1
        stream.close()
        body = server.get_file("data/report.txt")
        assert body.startswith(b"FLUSHED!")
        assert body[32:41] == b"UNFLUSHED"

    def test_unsupervised_crash_loses_only_unflushed(self, remote_setup):
        import signal

        from repro.errors import SentinelCrashError

        network, server, make = remote_setup
        server.put_file("data/report.txt", b"#" * 64)
        path = make("memory", writeback=True, block_size=16,
                    meta={"supervise": False})
        stream = open_active(path, "r+b", strategy="process-control",
                             network=network)
        try:
            stream.write(b"FLUSHED!")
            stream.flush()
            assert server.get_file("data/report.txt").startswith(b"FLUSHED!")
            stream.seek(32)
            stream.write(b"UNFLUSHED")
            proc = stream.session.host.proc
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=5)
            with pytest.raises(SentinelCrashError):
                stream.flush()
            body = server.get_file("data/report.txt")
            assert body.startswith(b"FLUSHED!")       # durable
            assert body[32:41] != b"UNFLUSHED"        # lost, but loudly
        finally:
            with pytest.raises(SentinelCrashError):
                stream.close()
