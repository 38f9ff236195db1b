"""Tests for the network bridge between application and sentinel child.

These tests exercise the bridge in-process over a pipe-backed channel
pair; the integration tests exercise it across a real child interpreter.
"""

import os
import threading
import time

import pytest

from repro.core import create_active, open_active
from repro.core.channel import StreamChannel
from repro.core.control import raise_for_response
from repro.core.netproxy import BRIDGE_CHAN, NetworkBridgeServer, ProxyNetwork
from repro.core.runner import SentinelHost
from repro.errors import AddressError, NetworkError
from repro.net import Address, FileServer, LinkProfile, Network, WallClock


def _wire(network, *, serve=False):
    """A (proxy, cleanup) pair: *network* bridged over OS pipes.  With
    *serve* the loop reads the application end the moment a frame
    lands, rather than its callers and its idle sweep."""
    req_read, req_write = os.pipe()
    resp_read, resp_write = os.pipe()
    app_end = StreamChannel(
        os.fdopen(req_read, "rb", buffering=0),
        os.fdopen(resp_write, "wb", buffering=0),
        name="test-bridge-app",
    )
    app_end.register(BRIDGE_CHAN, NetworkBridgeServer(network).handle)
    app_end.start(serve=serve)

    child_end = StreamChannel(
        os.fdopen(resp_read, "rb", buffering=0),
        os.fdopen(req_write, "wb", buffering=0),
        name="test-bridge-child",
    )
    child_end.start()

    def cleanup():
        child_end.close()
        app_end.wait_closed(timeout=2.0)

    return ProxyNetwork(child_end), cleanup


@pytest.fixture
def bridged():
    """A (network, proxy, cleanup) triple wired over OS pipes."""
    network = Network()
    network.bind(Address("files", 1), FileServer({"f.txt": b"bridge data"}))
    proxy, cleanup = _wire(network)
    yield network, proxy, cleanup
    cleanup()


class TestProxyCalls:
    def test_roundtrip(self, bridged):
        _, proxy, _ = bridged
        connection = proxy.connect(Address("files", 1))
        response = connection.expect("read", path="f.txt", offset=0, size=6)
        assert response.payload == b"bridge"

    def test_payload_crosses_both_ways(self, bridged):
        network, proxy, _ = bridged
        connection = proxy.connect(Address("files", 1))
        connection.expect("write", b"NEW!", path="f.txt", offset=0)
        response = connection.expect("read", path="f.txt", offset=0, size=4)
        assert response.payload == b"NEW!"

    def test_protocol_failure_is_response_not_exception(self, bridged):
        _, proxy, _ = bridged
        connection = proxy.connect(Address("files", 1))
        response = connection.call("read", path="ghost", offset=0, size=1)
        assert not response.ok
        assert "no such file" in response.error

    def test_expect_raises_on_failure(self, bridged):
        _, proxy, _ = bridged
        connection = proxy.connect(Address("files", 1))
        with pytest.raises(NetworkError):
            connection.expect("read", path="ghost", offset=0, size=1)

    def test_transport_error_type_preserved(self, bridged):
        _, proxy, _ = bridged
        connection = proxy.connect(Address("nowhere", 9))
        with pytest.raises(AddressError):
            connection.call("read")

    def test_partition_propagates_as_network_error(self, bridged):
        network, proxy, _ = bridged
        network.partition(Address("files", 1))
        connection = proxy.connect(Address("files", 1))
        with pytest.raises(NetworkError):
            connection.call("read", path="f.txt", offset=0, size=1)

    def test_closed_connection_rejected(self, bridged):
        _, proxy, _ = bridged
        connection = proxy.connect(Address("files", 1))
        connection.close()
        with pytest.raises(NetworkError):
            connection.call("read")

    def test_concurrent_callers_pipeline_safely(self, bridged):
        _, proxy, _ = bridged
        connection = proxy.connect(Address("files", 1))
        errors = []

        def caller():
            try:
                for _ in range(25):
                    response = connection.expect("read", path="f.txt",
                                                 offset=0, size=11)
                    assert response.payload == b"bridge data"
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_bridge_dies_with_channel(self, bridged):
        _, proxy, cleanup = bridged
        cleanup()  # closing the child side must end the bridge endpoint
        connection = proxy.connect(Address("files", 1))
        with pytest.raises(NetworkError):
            connection.call("read", path="f.txt", offset=0, size=1)


class TestConcurrentBridgeCalls:
    """Bridge calls of one connection run at the same time on the
    application's pool, so a read-ahead window reaches the origin while
    the window before it is still on the wire."""

    def test_two_async_reads_take_about_one_exchange(self):
        network = Network(profile=LinkProfile(latency_us=20_000.0),
                          clock=WallClock())
        network.bind(Address("files", 1),
                     FileServer({"f.txt": bytes(64 * 1024)}))
        proxy, cleanup = _wire(network, serve=True)
        connection = proxy.connect(Address("files", 1))

        def timed(calls: int) -> float:
            started = time.monotonic()
            resolvers = [connection.call_async("read", path="f.txt",
                                               offset=n * 4096, size=4096)
                         for n in range(calls)]
            for resolve in resolvers:
                assert resolve().ok
            return time.monotonic() - started

        try:
            one = min(timed(1) for _ in range(3))
            two = min(timed(2) for _ in range(3))
        finally:
            cleanup()
        # Served one after another, two calls take about 2x one.
        assert two < 1.5 * one, f"one {one * 1e3:.1f} ms, two {two * 1e3:.1f} ms"

    def test_read_ahead_windows_overlap_at_the_origin(self, tmp_path):
        """A sequential scan of a process-control remote open with
        read-ahead has two origin exchanges running at once."""
        network = Network(profile=LinkProfile(latency_us=2000.0,
                                              bandwidth_mbps=1000.0),
                          clock=WallClock())
        body = bytes(range(256)) * 2048  # 512 KiB
        network.bind(Address("origin", 7000), FileServer({"f": body}))
        lock = threading.Lock()
        active = peak = 0
        real_call = network.call

        def counting_call(*args, **kwargs):
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            try:
                return real_call(*args, **kwargs)
            finally:
                with lock:
                    active -= 1

        network.call = counting_call
        path = tmp_path / "remote.af"
        create_active(path, "repro.sentinels.remotefile:RemoteFileSentinel",
                      params={"address": "origin:7000", "path": "f",
                              "cache": "memory", "block_size": 4096,
                              "readahead": 16},
                      meta={"data": "memory"})
        stream = open_active(path, "rb", strategy="process-control",
                             network=network)
        try:
            data = bytearray()
            while chunk := stream.read(16384):
                data += chunk
        finally:
            stream.close()
        assert data == body
        assert peak >= 2, f"at most {peak} origin exchange(s) at once"


class TestConcurrentOpens:
    def test_sixteen_threads_open_one_bridged_container_at_once(
            self, tmp_path):
        """Sixteen opens of one bridged remote-file container reach the
        host's channel 0 together, and each stats the origin over the
        bridge while it opens: every open gets a session of its own and
        reads the origin's bytes."""
        network = Network(profile=LinkProfile(latency_us=500.0,
                                              bandwidth_mbps=1000.0),
                          clock=WallClock())
        body = bytes(range(256)) * 64  # 16 KiB
        network.bind(Address("origin", 7000), FileServer({"f": body}))
        path = tmp_path / "remote.af"
        create_active(path, "repro.sentinels.remotefile:RemoteFileSentinel",
                      params={"address": "origin:7000", "path": "f",
                              "cache": "memory", "block_size": 4096},
                      meta={"data": "memory"})
        host = SentinelHost(str(path), network=network)
        width = 16
        barrier = threading.Barrier(width)
        results: dict[int, tuple[int, bytes]] = {}
        errors: list[BaseException] = []

        def opener(n: int) -> None:
            try:
                barrier.wait(10.0)
                chan = host.open("process-control", timeout=30.0)
                fields, data = host.channel.request(
                    chan, {"cmd": "read", "offset": 0, "size": len(body)},
                    timeout=30.0)
                raise_for_response(fields)
                results[n] = (chan, bytes(data))
            except BaseException as exc:  # asserted below
                errors.append(exc)

        threads = [threading.Thread(target=opener, args=(n,))
                   for n in range(width)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert len({chan for chan, _ in results.values()}) == width
            assert all(data == body for _, data in results.values())
        finally:
            host.shutdown()
