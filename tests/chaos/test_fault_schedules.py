"""Chaos property suite: seeded fault schedules against the transport.

Every test here drives a real workload — remote active files served by a
real sentinel child over the framed channel — while a seeded
:class:`~repro.core.faults.FaultPlane` injects crashes, lost frames, and
partitions.  The properties are absolute:

* **no data corruption** — the application reads exactly the origin's
  bytes, and the origin ends up with exactly the application's writes;
* **no hung futures** — whatever fired, the transport finishes with
  nothing in flight;
* **determinism** — the same seed and the same workload fire the same
  faults (chaos runs are replayable regressions, not flakes).

The schedule space is explored by hypothesis; the process-spawning
tests keep ``max_examples`` small because each example costs real
child processes.  CI pins ``HYPOTHESIS_SEED`` via ``derandomize`` so
the smoke matrix is stable.
"""

import os
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import create_active, open_active, policy
from repro.core.faults import FaultPlane
from repro.core.telemetry import TELEMETRY
from repro.net import Address, FileServer, Network

REMOTE = "repro.sentinels.remotefile:RemoteFileSentinel"
ORIGIN_ADDRESS = "files.test:7000"

#: Fixed content: position-dependent bytes so any misplaced block is
#: visible as corruption, not just as a length mismatch.
CONTENT = bytes((7 * i + (i >> 8)) % 256 for i in range(16 * 1024))


def _rig(dirname, *, content=CONTENT, **params):
    """One origin + one remote active file, no shared fixture state."""
    network = Network()
    server = network.bind(Address("files.test", 7000), FileServer())
    server.put_file("data/blob.bin", content)
    path = os.path.join(dirname, "blob.af")
    create_active(path, REMOTE,
                  params={"address": ORIGIN_ADDRESS, "path": "data/blob.bin",
                          **params},
                  meta={"data": "memory"})
    return network, server, path


def _read_all(stream, chunk=1024):
    out = bytearray()
    while True:
        piece = stream.read(chunk)
        if not piece:
            return bytes(out)
        out += piece


class TestScheduleDeterminism:
    """Same seed + same event sequence => same firings (pure, fast)."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           p=st.floats(0.05, 0.95),
           ops=st.lists(st.sampled_from(["read", "write", "stat"]),
                        min_size=1, max_size=64))
    def test_same_seed_same_firings(self, seed, p, ops):
        def run():
            plane = FaultPlane(seed)
            plane.drop_frame(p=p).fail_network(p=p / 2)
            for op in ops:
                plane.on_send({"cmd": op})
                plane.on_network("files.test:7000", op)
            return [(e.point, e.action, e.op) for e in plane.fired]

        assert run() == run()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           after=st.integers(0, 10),
           times=st.integers(1, 3))
    def test_after_and_times_bounds(self, seed, after, times):
        plane = FaultPlane(seed)
        plane.drop_frame(after=after, times=times)
        for _ in range(after + times + 20):
            plane.on_send({"cmd": "read"})
        fired = plane.summary().get("send:drop", 0)
        assert fired == times  # never early, never beyond the cap


class TestReadPathChaos:
    """Sequential reads under kills and lost frames stay byte-identical."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16),
           kill_after=st.integers(2, 12),
           drop_p=st.sampled_from([0.0, 0.1, 0.25]))
    @example(seed=2501, kill_after=6, drop_p=0.25)
    def test_reads_survive_kills_and_drops(self, seed, kill_after, drop_p):
        # Each lost frame costs the read one attempt.  At the default
        # 5 s attempt, the six drops seed 2501 draws use up the read's
        # whole 30 s budget; at 0.5 s (as in TestEveryFaultAction) they
        # cost 3 s.
        attempt = policy.ATTEMPT_TIMEOUT
        policy.ATTEMPT_TIMEOUT = 0.5
        try:
            with tempfile.TemporaryDirectory() as dirname:
                network, _, path = _rig(dirname, cache="memory",
                                        block_size=2048, retries=6,
                                        retry_seed=seed)
                plane = FaultPlane(seed)
                plane.kill_host(after=kill_after, times=1)
                if drop_p:
                    plane.drop_frame(op="read", p=drop_p)
                    plane.drop_frame(op="readv", p=drop_p)
                stream = open_active(path, "rb", strategy="process-control",
                                     network=network)
                plane.arm_host(stream.session.host)
                data = _read_all(stream)
                assert data == CONTENT  # no corruption, no shortfall
                # no hung futures: the surviving channel is fully drained
                counters = stream.session.channel.counters
                assert counters.snapshot()["in_flight"] == 0
                stream.close()
        finally:
            policy.ATTEMPT_TIMEOUT = attempt

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**16),
           cut_after=st.integers(1, 6),
           cut_seconds=st.sampled_from([0.1, 0.3]))
    def test_reads_survive_timed_partitions(self, seed, cut_after,
                                            cut_seconds):
        with tempfile.TemporaryDirectory() as dirname:
            network, _, path = _rig(dirname, cache="memory",
                                    block_size=2048, retries=8,
                                    retry_seed=seed)
            plane = FaultPlane(seed)
            plane.partition(cut_seconds, address=ORIGIN_ADDRESS,
                            after=cut_after, times=1)
            plane.arm_network(network)
            stream = open_active(path, "rb", strategy="process-control",
                                 network=network)
            data = _read_all(stream)
            stream.close()
            assert data == CONTENT
            assert plane.summary().get("network:partition", 0) == 1
            assert network.stats.partitions == 1


class TestWritePathChaos:
    """Writes under kills reach the origin intact: journal replay means
    acked bytes never vanish, idempotent pushes mean none duplicate."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16),
           kill_after=st.integers(3, 14),
           drop_p=st.sampled_from([0.0, 0.1]))
    def test_writes_survive_kills_and_drops(self, seed, kill_after, drop_p):
        with tempfile.TemporaryDirectory() as dirname:
            blank = bytes(8 * 1024)
            network, server, path = _rig(dirname, content=blank,
                                         cache="none", retries=6,
                                         retry_seed=seed)
            expected = bytearray(blank)
            stream = open_active(path, "r+b", strategy="process-control",
                                 network=network)
            plane = FaultPlane(seed)
            plane.kill_host(after=kill_after, times=1)
            if drop_p:
                plane.drop_frame(op="write", p=drop_p)
            plane.arm_host(stream.session.host)
            for i in range(16):
                offset = i * 512
                chunk = bytes(((seed + i + j) % 256
                               for j in range(128)))
                stream.seek(offset)
                stream.write(chunk)
                expected[offset:offset + 128] = chunk
            stream.flush()
            assert stream.session.channel.counters.snapshot()["in_flight"] == 0
            stream.close()
            assert server.get_file("data/blob.bin") == bytes(expected)


class TestAcceptanceScenario:
    """The issue's acceptance schedule: a host kill mid-read plus a 2 s
    partition, and the application never sees a single exception."""

    def test_kill_mid_read_plus_partition_is_invisible(self):
        with tempfile.TemporaryDirectory() as dirname:
            network, _, path = _rig(dirname, cache="memory",
                                    block_size=2048, retries=8,
                                    retry_seed=1234)
            plane = FaultPlane(seed=1234)
            plane.kill_host(after=3, times=1)
            plane.partition(2.0, address=ORIGIN_ADDRESS, after=5, times=1)
            plane.arm_network(network)
            stream = open_active(path, "rb", strategy="process-control",
                                 network=network)
            plane.arm_host(stream.session.host)
            data = _read_all(stream)
            stream.close()
            assert data == CONTENT  # byte-identical, zero exceptions
            summary = plane.summary()
            assert summary.get("send:kill", 0) == 1  # the crash happened
            assert summary.get("network:partition", 0) == 1  # the cut too
            assert network.stats.partition_drops >= 1
            assert network.stats.heals >= 1


class TestEveryFaultAction:
    """Each connection-breaking action a scenario may name fires once
    during a supervised process-control read, and the read still
    returns the origin's bytes."""

    @pytest.mark.parametrize("point,action", [
        ("send", "corrupt"), ("send", "eof"), ("recv", "drop"),
        ("sched", "kill")])
    def test_fires_once_and_the_read_survives(self, monkeypatch, point,
                                              action):
        # A dropped reply costs one attempt timeout before the retry.
        monkeypatch.setattr(policy, "ATTEMPT_TIMEOUT", 0.5)
        injected = TELEMETRY.metrics.counter(
            f"faults.injected.{point}.{action}")
        with tempfile.TemporaryDirectory() as dirname:
            if point == "sched":
                # The sched point runs where a request is served; on the
                # application's end that is the network bridge, which an
                # uncached remote read crosses on every call.
                network, _, path = _rig(dirname, cache="none")
            else:
                # A local container: every inbound frame is a reply.
                network = None
                path = os.path.join(dirname, "local.af")
                create_active(path, "repro.sentinels.null:NullFilterSentinel",
                              data=CONTENT)
            stream = open_active(path, "rb", strategy="process-control",
                                 network=network)
            try:
                plane = FaultPlane(seed=1).rule(point, action, times=1)
                plane.arm_host(stream.session.host)
                before = injected.value
                data = _read_all(stream)
            finally:
                stream.close()
        assert data == CONTENT
        assert injected.value - before == 1
        assert plane.summary() == {f"{point}:{action}": 1}

    def test_dropped_bridge_call_ends_with_the_attempt(self, monkeypatch):
        """A ``recv:drop`` on the application's end of an uncached
        remote read loses the host's bridge call itself.  The host's
        wait for it ends with the read attempt's deadline, not the
        bridge's 30 s default, and the retried read gets the bytes."""
        monkeypatch.setattr(policy, "ATTEMPT_TIMEOUT", 0.5)
        injected = TELEMETRY.metrics.counter("faults.injected.recv.drop")
        with tempfile.TemporaryDirectory() as dirname:
            network, _, path = _rig(dirname, cache="none", retries=6)
            stream = open_active(path, "rb", strategy="process-control",
                                 network=network)
            try:
                plane = FaultPlane(seed=1).rule("recv", "drop", times=1)
                plane.arm_host(stream.session.host)
                before = injected.value
                started = time.monotonic()
                data = stream.read()
                elapsed = time.monotonic() - started
            finally:
                stream.close()
        assert data == CONTENT
        assert elapsed < 5.0
        assert injected.value - before == 1
        assert plane.summary() == {"recv:drop": 1}
