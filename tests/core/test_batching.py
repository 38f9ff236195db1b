"""The submission/completion ring: batched ≡ one-at-a-time.

The ring is pure plumbing — coalescing ops into multi-op frames must be
*observationally invisible*.  These tests pin that equivalence three
ways:

* a hypothesis property over arbitrary op waves (sizes, failures):
  batched and unbatched legs produce byte-identical reply payloads,
  identical error surfacing, identical per-channel arrival order, and
  no hung futures;
* the ``batch`` fault point: a dropped sub-op times out alone (its
  batch-mates complete, the ring drains instead of wedging), a
  corrupted sub-op errors alone;
* session integration: a pipelined wave through a real sentinel host
  returns the same bytes with batching on, off (``REPRO_NO_BATCH=1``),
  and the singleton passthrough keeps lone ops off the batch path.
"""

import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import channel as chanmod
from repro.core.channel import FIRST_SESSION_CHAN, LocalChannel
from repro.core.container import Container
from repro.core.control import raise_for_response
from repro.core.faults import FaultPlane
from repro.core.spec import SentinelSpec
from repro.core.strategies import process_control
from repro.errors import DeadlineExceededError

SPEC = SentinelSpec("repro.sentinels.null:NullFilterSentinel")


def pattern(n, salt=0):
    """Position-dependent bytes: any misplaced block shows as corruption."""
    return bytes((i * 31 + salt) % 256 for i in range(n))


class _Gate:
    """Holds the first op on the server until the whole wave is queued.

    The ring only coalesces while an op is outstanding — with nothing
    in flight every op flushes alone (the singleton passthrough).  A
    gated first op makes multi-op frames deterministic instead of a
    race against the server's reply latency.
    """

    def __init__(self):
        self.release = threading.Event()

    def handler(self, fields, payload):
        cmd = fields.get("cmd")
        if cmd != "echo":
            # A corrupted batch sub-op lands here as "corrupt:echo".
            raise ValueError(f"unknown cmd {cmd!r}")
        if fields.get("gate"):
            self.release.wait(10.0)
        if fields.get("boom"):
            raise RuntimeError(f"boom {fields['n']}")
        return ({"ok": True, "n": fields["n"], "ln": len(payload)},
                bytes(reversed(payload)))


def _run_wave(ops, *, batching, plane=None):
    """Issue *ops* as one pipelined wave; settle every future.

    Each op is ``(payload_size, boom)``.  Returns the observable
    outcome per op: ``("ok", n, echoed-bytes)`` or
    ``("err", error_type, message)`` — the tuple both legs must agree
    on exactly.
    """
    gate = _Gate()
    app, srv = LocalChannel.pair("batchwave")
    app.batching = batching
    if plane is not None:
        plane.arm_channel(app)
    srv.register(FIRST_SESSION_CHAN, gate.handler)
    try:
        pendings = []
        for index, (size, boom) in enumerate(ops):
            fields = {"cmd": "echo", "n": index}
            if index == 0:
                fields["gate"] = True
            if boom:
                fields["boom"] = True
            pendings.append(app.request_async(
                FIRST_SESSION_CHAN, fields, pattern(size, salt=index)))
        gate.release.set()
        outcomes = []
        for pending in pendings:
            fields, payload = pending.wait(10.0)
            if fields.get("ok", True):
                outcomes.append(("ok", fields["n"], payload))
            else:
                try:
                    raise_for_response(fields)
                except Exception as exc:
                    outcomes.append(("err", type(exc).__name__, str(exc)))
        assert app.counters.snapshot()["in_flight"] == 0
        return outcomes
    finally:
        app.close()


#: Op waves: payload size spans empty → multi-KiB, with sporadic
#: handler failures mixed in.
OPS = st.lists(st.tuples(st.integers(0, 4096), st.booleans()),
               min_size=1, max_size=40)


class TestEquivalenceProperty:
    @settings(max_examples=20, deadline=None)
    @given(ops=OPS)
    def test_batched_equals_one_at_a_time(self, ops):
        assert _run_wave(ops, batching=True) \
            == _run_wave(ops, batching=False)

    def test_wave_genuinely_batches(self):
        """The gated wave really exercises multi-op frames — otherwise
        the property above would be vacuously comparing singletons."""
        flushes = chanmod._BATCH_FLUSHES.value
        batched = chanmod._BATCH_OPS.value
        _run_wave([(64, False)] * 12, batching=True)
        assert chanmod._BATCH_FLUSHES.value > flushes
        assert chanmod._BATCH_OPS.value - batched >= 8

    def test_ordering_preserved_inside_frames(self):
        """Sub-ops execute in submission order on the server."""
        gate = _Gate()
        seen = []

        def recording(fields, payload):
            if fields.get("gate"):
                gate.release.wait(10.0)
            seen.append(fields["n"])
            return {"ok": True}, b""

        app, srv = LocalChannel.pair("batchorder")
        app.batching = True
        srv.register(FIRST_SESSION_CHAN, recording)
        try:
            pendings = [app.request_async(
                FIRST_SESSION_CHAN,
                {"cmd": "echo", "n": i, "gate": i == 0})
                for i in range(20)]
            gate.release.set()
            for pending in pendings:
                pending.wait(10.0)
            assert seen == list(range(20))
        finally:
            app.close()


class TestBatchFaults:
    def test_dropped_sub_op_times_out_alone(self):
        """A per-sub drop: the victim's future times out (and only
        its); batch-mates complete, and the ring drains rather than
        wedging — a follow-up op still goes through."""
        gate = _Gate()
        plane = FaultPlane(seed=3)
        plane.drop_batch_op(op="echo", times=1)
        app, srv = LocalChannel.pair("batchdrop")
        app.batching = True
        plane.arm_channel(app)
        srv.register(FIRST_SESSION_CHAN, gate.handler)
        try:
            pendings = [app.request_async(
                FIRST_SESSION_CHAN,
                {"cmd": "echo", "n": i, "gate": i == 0},
                pattern(32, salt=i)) for i in range(4)]
            gate.release.set()
            outcomes = []
            for pending in pendings:
                try:
                    fields, payload = pending.wait(1.0)
                    outcomes.append(("ok", fields["n"]))
                except DeadlineExceededError:
                    outcomes.append(("timeout", None))
            assert outcomes.count(("timeout", None)) == 1
            assert sum(plane.summary().values()) == 1
            # The timed-out wait withdrew and settled its ring slot;
            # the ring must not be wedged.
            fields, _ = app.request(FIRST_SESSION_CHAN,
                                    {"cmd": "echo", "n": 99},
                                    timeout=5.0)
            assert fields["n"] == 99
            assert app.counters.snapshot()["in_flight"] == 0
        finally:
            app.close()

    def test_corrupted_sub_op_errors_alone(self):
        """A mangled sub-op header errors out through its own future;
        every batch-mate is untouched."""
        gate = _Gate()
        plane = FaultPlane(seed=5)
        plane.corrupt_batch_op(op="echo", times=1)
        app, srv = LocalChannel.pair("batchcorrupt")
        app.batching = True
        plane.arm_channel(app)
        srv.register(FIRST_SESSION_CHAN, gate.handler)
        try:
            pendings = [app.request_async(
                FIRST_SESSION_CHAN,
                {"cmd": "echo", "n": i, "gate": i == 0},
                pattern(32, salt=i)) for i in range(4)]
            gate.release.set()
            errors = oks = 0
            for pending in pendings:
                fields, payload = pending.wait(10.0)
                if fields.get("ok", True):
                    oks += 1
                    assert payload == bytes(
                        reversed(pattern(32, salt=fields["n"])))
                else:
                    errors += 1
                    assert "corrupt:echo" in str(fields)
            assert (oks, errors) == (3, 1)
            assert sum(plane.summary().values()) == 1
        finally:
            app.close()

    def test_faults_never_touch_singletons(self):
        """The batch fault point only fires on genuinely multi-op
        frames; sequential (never-coalesced) traffic is exempt."""
        plane = FaultPlane(seed=7)
        plane.drop_batch_op(op="echo")  # would drop every match
        gate = _Gate()
        app, srv = LocalChannel.pair("batchsingle")
        app.batching = True
        plane.arm_channel(app)
        srv.register(FIRST_SESSION_CHAN, gate.handler)
        gate.release.set()
        try:
            for i in range(5):  # strictly sequential: one op in flight
                fields, _ = app.request(FIRST_SESSION_CHAN,
                                        {"cmd": "echo", "n": i},
                                        timeout=5.0)
                assert fields["n"] == i
            assert sum(plane.summary().values()) == 0
        finally:
            app.close()


def _open(tmp, name, data=b"", env=()):
    for key, value in env:
        os.environ[key] = value
    try:
        path = os.path.join(str(tmp), name)
        container = Container.create(path, SPEC, data=data)
        return process_control.open_session(container, pooled=False)
    finally:
        for key, _value in env:
            os.environ.pop(key, None)


class TestSessionIntegration:
    """The ring under a real sentinel host (wire transport + hostloop)."""

    DATA = pattern(256 * 1024)

    def _pipelined_read(self, session, offsets, size):
        lease = session._lease
        pendings = [lease.request_async(
            {"cmd": "read", "offset": offset, "size": size})
            for offset in offsets]
        chunks = []
        for pending in pendings:
            fields, payload = pending.wait(10.0)
            raise_for_response(fields)
            chunks.append(payload)
        return chunks

    @pytest.mark.parametrize("env", [(), (("REPRO_NO_BATCH", "1"),)],
                             ids=["batched", "no-batch"])
    def test_pipelined_reads_are_byte_identical(self, tmp_path, env):
        session = _open(tmp_path, "wave.af", data=self.DATA, env=env)
        try:
            if env:
                assert session.host.channel.batching is False
            offsets = [i * 4096 for i in range(24)]
            chunks = self._pipelined_read(session, offsets, 4096)
            for offset, chunk in zip(offsets, chunks):
                assert chunk == self.DATA[offset:offset + 4096]
        finally:
            session.close()

    def test_sequential_ops_ride_the_plain_frame(self, tmp_path):
        """One-at-a-time traffic never waits on the ring and never
        produces a multi-op frame — the singleton passthrough."""
        flushes = chanmod._BATCH_FLUSHES.value
        session = _open(tmp_path, "seq.af", data=self.DATA)
        try:
            assert session.host.channel.batching is True
            for offset in (0, 8192, 65536):
                assert session.read_at(offset, 1024) \
                    == self.DATA[offset:offset + 1024]
            assert chanmod._BATCH_FLUSHES.value == flushes
        finally:
            session.close()

    def test_pipelined_writes_land_in_order(self, tmp_path):
        """Overlapping batched writes apply in submission order, so
        last-writer-wins reads back deterministically."""
        session = _open(tmp_path, "wr.af")
        try:
            lease = session._lease
            pendings = [lease.request_async(
                {"cmd": "write", "offset": 0},
                bytes([salt]) * 4096) for salt in range(1, 9)]
            for pending in pendings:
                fields, _ = pending.wait(10.0)
                raise_for_response(fields)
            assert session.read_at(0, 4096) == bytes([8]) * 4096
        finally:
            session.close()
