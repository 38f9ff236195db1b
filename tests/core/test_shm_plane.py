"""The shared-memory bulk-data plane: allocator, validation, crash safety.

Three layers of properties:

* the slab allocator itself — contiguous runs, generation stamps,
  park/settle quarantine, idempotent destruction;
* child-side validation — stale descriptors and corrupt bytes are
  rejected with typed errors, torn reads are detected post-copy;
* the session integration — shm and inline transfers are byte-identical
  (including under injected shm faults, which must degrade to inline
  retries), and a killed host's slots are never read by its successor.
"""

import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import runner
from repro.core import shm as shmplane
from repro.core.container import Container
from repro.core.faults import FaultPlane
from repro.core.shm import AttachedSegment, ShmPlane
from repro.core.spec import SentinelSpec
from repro.core.strategies import process_control
from repro.errors import ShmCorruptError, ShmError, ShmStaleGenerationError
from tests.conftest import no_shm_plane, open_dedicated_session

SPEC = SentinelSpec("repro.sentinels.null:NullFilterSentinel")

#: The CI matrix runs one leg with ``--no-shm`` (no host's plane comes
#: up); tests that assert the plane *engages* are meaningless there (the
#: allocator and child validation tests still run — they build their
#: own planes).
requires_shm = pytest.mark.skipif(
    "config.getoption('--no-shm')",
    reason="shared-memory plane unavailable (--no-shm)")

#: Comfortably above SHM_MIN_BYTES so the plane engages.
BULK = shmplane.SHM_MIN_BYTES * 4


def pattern(n, salt=0):
    """Position-dependent bytes: any misplaced block shows as corruption."""
    return bytes((i * 31 + salt) % 256 for i in range(n))


@pytest.fixture
def plane():
    p = ShmPlane(slots=8, slot_bytes=1024)
    yield p
    p.destroy()


class TestSlabAllocator:
    def test_lease_stage_take_roundtrip(self, plane):
        lease = plane.lease(1500)
        assert lease is not None and lease.nslots == 2
        desc = lease.stage((b"a" * 700, b"b" * 800))
        assert desc[0] == lease.slot and desc[1] == 1500
        assert lease.take(desc[1]) == b"a" * 700 + b"b" * 800
        plane.release(lease)

    def test_contiguous_runs_and_exhaustion(self, plane):
        runs = [plane.lease(2048) for _ in range(4)]  # 8 slots total
        assert all(r is not None for r in runs)
        assert plane.free_slots() == 0
        assert plane.lease(1) is None          # full
        assert plane.lease(9 * 1024) is None   # larger than the segment
        # Free a middle run: only a fitting request succeeds.
        plane.release(runs[1])
        assert plane.lease(3 * 1024) is None   # no 3-slot contiguous hole
        again = plane.lease(2048)
        assert again is not None and again.slot == runs[1].slot

    def test_release_invalidates_descriptors(self, plane):
        lease = plane.lease(100)
        desc = lease.stage((b"x" * 100,))
        plane.release(lease)
        with pytest.raises(ShmStaleGenerationError):
            lease.take(desc[1])

    def test_release_is_harmless_and_gen_monotonic(self, plane):
        lease = plane.lease(10)
        gen0 = lease.generation
        plane.release(lease)
        plane.release(lease)
        assert plane._generation(lease.slot) > gen0

    def test_park_and_settle(self, plane):
        lease = plane.lease(1024)
        plane.park(7, lease)
        plane.park(7, None)                    # no lease: nothing parked
        assert plane.free_slots() == plane.slots - 1
        plane.settle(99)                       # other channel: still parked
        assert plane.free_slots() == plane.slots - 1
        plane.settle(7)
        assert plane.free_slots() == plane.slots

    def test_destroy_is_idempotent_and_guards_views(self, plane):
        lease = plane.lease(64)
        desc = lease.stage((b"y" * 64,))
        plane.destroy()
        plane.destroy()
        assert plane.destroyed
        assert plane.lease(10) is None
        plane.release(lease)                   # no-op, no crash
        with pytest.raises(ShmError):
            lease.take(desc[1])


def consume(segment, desc):
    """Serve one ``write`` whose payload is the run *desc* describes;
    returns the bytes the dispatcher saw."""
    def run(fields, payload):
        return {"ok": True}, bytes(payload)
    return segment.execute(run, {"cmd": "write", "shm": desc}, b"")[1]


class TestChildValidation:
    """The attached (child) side must reject anything inconsistent."""

    def test_attach_read_fill_seal(self, plane):
        seg = AttachedSegment.attach(plane.name, plane.slots,
                                     plane.slot_bytes)
        try:
            lease = plane.lease(900)
            desc = lease.stage((pattern(900),))
            assert desc[3] == 0                  # staging writes no CRC
            assert consume(seg, desc) == pattern(900)
            # Reply direction: the child fills the offered run and the
            # reply carries only the sealed descriptor.
            offer = lease.reply_desc()

            def fill(fields, payload, reply_into):
                reply_into[:300] = pattern(300, salt=5)
                return {"ok": True, "sl": 300}, b""

            reply, body = seg.execute(fill, {"cmd": "read", "shm_r": offer},
                                      b"")
            assert body == b"" and reply["shm"] == [offer[0], 300,
                                                    offer[2], 0]
            assert shmplane.reply_payload(reply, body, lease) \
                == pattern(300, salt=5)
        finally:
            seg.close()

    def test_unattached_host_rejects_descriptors(self, plane):
        lease = plane.lease(100)
        desc = lease.stage((b"z" * 100,))
        with pytest.raises(ShmError):
            consume(AttachedSegment(), desc)

    def test_stale_and_corrupt_rejected(self, plane):
        seg = AttachedSegment.attach(plane.name, plane.slots,
                                     plane.slot_bytes)
        try:
            lease = plane.lease(500)
            desc = lease.stage((pattern(500),))
            lease.scribble(desc)                 # seals a CRC, then flips
            with pytest.raises(ShmCorruptError):
                consume(seg, desc)
            desc = lease.stage((pattern(500),))  # restage: no CRC again
            lease.invalidate()
            with pytest.raises(ShmStaleGenerationError):
                consume(seg, desc)
            with pytest.raises(ShmStaleGenerationError):
                seg.fill_view(lease.reply_desc()[:2] + [desc[2]])
        finally:
            seg.close()

    def test_malformed_descriptors_rejected(self, plane):
        seg = AttachedSegment.attach(plane.name, plane.slots,
                                     plane.slot_bytes)
        try:
            for bad in ([99, 10, 1, 0],          # slot out of range
                        [0, 10**9, 1, 0],        # overruns the segment
                        [0, -1, 1, 0],           # negative length
                        ["a", "b"], None, [1]):  # not a descriptor
                with pytest.raises(ShmError):
                    seg.payload_view(bad)
        finally:
            seg.close()


def _open(tmp, name, data=b""):
    path = os.path.join(str(tmp), name)
    container = Container.create(path, SPEC, data=data)
    return open_dedicated_session(container)


@requires_shm
class TestSessionIntegration:
    def test_bulk_write_read_uses_the_plane(self, tmp_path):
        session = _open(tmp_path, "bulk.af")
        try:
            assert session.host.shm_ready
            leased = shmplane.SLOTS_LEASED.value
            data = pattern(BULK)
            assert session.write_at(0, data) == len(data)
            assert session.read_at(0, len(data)) == data
            assert shmplane.SLOTS_LEASED.value > leased
        finally:
            session.close()

    def test_read_at_into_lands_in_callers_buffer(self, tmp_path):
        data = pattern(BULK, salt=3)
        session = _open(tmp_path, "into.af", data=data)
        try:
            buffer = bytearray(len(data) + 10)
            count = session.read_at_into(0, memoryview(buffer))
            assert count == len(data)
            assert bytes(buffer[:count]) == data
        finally:
            session.close()

    def test_small_payloads_stay_inline(self, tmp_path):
        session = _open(tmp_path, "small.af")
        try:
            leased = shmplane.SLOTS_LEASED.value
            session.write_at(0, b"t" * 1024)
            assert session.read_at(0, 1024) == b"t" * 1024
            assert shmplane.SLOTS_LEASED.value == leased
        finally:
            session.close()

    def test_sub_threshold_ops_never_call_into_the_plane(self, tmp_path,
                                                         monkeypatch):
        """Below SHM_MIN_BYTES an op rides inline without touching the
        plane at all: no stage, settle or release, no slot leased.  An
        op of SHM_MIN_BYTES still rides the plane."""
        size = shmplane.SHM_MIN_BYTES
        data = pattern(2 * size, salt=9)
        session = _open(tmp_path, "threshold.af", data=data)
        try:
            assert session.host.shm_ready

            def refuse(*args, **kwargs):
                raise AssertionError("a sub-threshold op called the plane")

            for name in ("stage", "settle", "release"):
                monkeypatch.setattr(ShmPlane, name, refuse)
            leased = shmplane.SLOTS_LEASED.value
            assert session.read_at(0, 4096) == data[:4096]
            assert session.write_at(0, b"w" * 4096) == 4096
            assert session.write_at(0, b"v" * (size - 1)) == size - 1
            assert shmplane.SLOTS_LEASED.value == leased
            monkeypatch.undo()
            moved = shmplane.SHM_BYTES.value
            block = pattern(size, salt=5)
            assert session.write_at(size, block) == size
            assert session.read_at(size, size) == block
            assert shmplane.SHM_BYTES.value - moved == 2 * size
        finally:
            session.close()

    def test_plane_is_a_fixed_function_of_size(self, tmp_path):
        """Every op below SHM_MIN_BYTES rides inline and every op at or
        above it rides shm: no op is ever routed to the other plane."""
        small, bulk = 4096, 65536
        assert small < shmplane.SHM_MIN_BYTES <= bulk <= shmplane.SLOT_BYTES
        container = Container.create(os.path.join(str(tmp_path), "rule.af"),
                                     SPEC)
        session = process_control.open_session(container)
        try:
            assert session.host.shm_ready
            for size in (small, bulk):
                leased = shmplane.SLOTS_LEASED.value
                for i in range(64):
                    block = bytes([i]) * size
                    assert session.write_at(i * size, block) == size
                    assert session.read_at(i * size, size) == block
                expected = 0 if size == small else 128  # one slot per op
                assert shmplane.SLOTS_LEASED.value - leased == expected, size
        finally:
            session.close()

    @pytest.mark.parametrize("fault,op", [("corrupt_shm_slot", "write"),
                                          ("stale_shm_generation", "write"),
                                          ("stale_shm_generation", "read")])
    def test_shm_faults_degrade_to_inline(self, tmp_path, fault, op):
        """An injected slot fault costs a retry, never correctness."""
        data = pattern(BULK, salt=7)
        session = _open(tmp_path, "faulty.af",
                        data=data if op == "read" else b"")
        try:
            plane = FaultPlane(seed=1)
            getattr(plane, fault)(op=op, times=1)
            plane.arm_host(session.host)
            fallbacks = shmplane.FALLBACK_INLINE.value
            if op == "write":
                assert session.write_at(0, data) == len(data)
                assert session.read_at(0, len(data)) == data
            else:
                assert session.read_at(0, len(data)) == data
            assert shmplane.FALLBACK_INLINE.value == fallbacks + 1
            assert sum(plane.summary().values()) == 1
        finally:
            session.close()

    def test_opless_corrupt_rule_passes_over_read_slots(self, tmp_path):
        """A read's reply slot holds no staged payload: an op-less
        ``shm-corrupt`` rule waits for the write after it, and counts
        the one firing that flipped a byte."""
        size = 2 * shmplane.SHM_MIN_BYTES  # 64 KiB: both ride the plane
        model = bytearray(pattern(2 * size, salt=3))
        session = _open(tmp_path, "opless.af", data=bytes(model))
        try:
            plane = FaultPlane(seed=2)
            plane.corrupt_shm_slot(times=1)
            plane.arm_host(session.host)
            fallbacks = shmplane.FALLBACK_INLINE.value
            assert session.read_at(0, size) == model[:size]
            block = pattern(size, salt=11)
            assert session.write_at(size, block) == size
            model[size:] = block
            assert shmplane.FALLBACK_INLINE.value == fallbacks + 1
            assert plane.summary() == {"shm:shm-corrupt": 1}
            assert session.read_at(0, 2 * size) == bytes(model)
        finally:
            session.close()

    @pytest.mark.parametrize("op", ["read", "readv"])
    def test_corrupt_rule_on_a_reply_slot_is_refused(self, op):
        with pytest.raises(ValueError, match="no staged payload"):
            FaultPlane(seed=0).corrupt_shm_slot(op=op)

    def test_kill_mid_stream_never_resurrects_old_slots(self, tmp_path):
        """A successor host must not observe the dead host's segment.

        The write journal replays inline onto the respawned host, so
        acked mutations survive even though every slot descriptor from
        the previous incarnation is gone with its segment.
        """
        session = _open(tmp_path, "killed.af")
        try:
            first_host = session.host
            first_plane = first_host.shm
            data = pattern(BULK, salt=9)
            assert session.write_at(0, data) == len(data)
            plane = FaultPlane(seed=2)
            plane.kill_host(times=1)
            plane.arm_host(first_host)
            more = pattern(BULK, salt=11)
            assert session.write_at(len(data), more) == len(more)
            assert session.host is not first_host
            assert first_plane.destroyed          # old slots unreachable
            assert session.host.shm is not first_plane
            assert session.host.shm_ready          # fresh segment re-armed
            assert session.read_at(0, 2 * BULK) == data + more
        finally:
            session.close()


def linked(name):
    """Whether a shared-memory segment still has *name*."""
    return os.path.exists(os.path.join("/dev/shm", name))


#: An application that opens a process-control file, moves 64 KiB
#: through it, reports its host and segment, and waits to be killed.
KILLED_APP = r'''
import json
import sys
import time

import repro

repro.create_active(sys.argv[1], "repro.sentinels.null:NullFilterSentinel",
                    meta={"data": "memory"})
stream = repro.open_active(sys.argv[1], "r+b", strategy="process-control")
stream.write(bytes(65536))
host = stream.session.host
print(json.dumps({"host": host.proc.pid, "ready": host.shm_ready,
                  "name": host.shm.name}), flush=True)
time.sleep(60)
'''


def _wait_gone(pid, timeout=10.0):
    """Wait until *pid* has exited (a zombie counts); False on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat", "rb") as stat:
                if stat.read().rsplit(b")", 1)[1].split()[0] in (b"Z", b"X"):
                    return True
        except OSError:
            return True
        time.sleep(0.05)
    return False


@requires_shm
@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="segment names live in /dev/shm on Linux")
class TestSegmentLifecycle:
    """Both ends map the segment once the handshake is answered, so its
    name is gone by then, whoever dies later."""

    def test_no_name_outlives_the_handshake(self, tmp_path):
        session = _open(tmp_path, "named.af")
        try:
            assert session.host.shm_ready
            assert not linked(session.host.shm.name)
            data = pattern(BULK)                 # the mappings still work
            assert session.write_at(0, data) == len(data)
            assert session.read_at(0, len(data)) == data
        finally:
            session.close()

    def test_no_name_outlives_a_respawn(self, tmp_path):
        session = _open(tmp_path, "respawn.af")
        try:
            first = session.host.shm
            fault = FaultPlane(seed=3)
            fault.kill_host(times=1)
            fault.arm_host(session.host)
            data = pattern(BULK, salt=1)
            assert session.write_at(0, data) == len(data)
            assert session.host.shm is not first and session.host.shm_ready
            assert first.destroyed
            assert not linked(first.name)
            assert not linked(session.host.shm.name)
            assert session.read_at(0, len(data)) == data
        finally:
            session.close()

    def test_no_name_outlives_a_killed_application(self, tmp_path):
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src_root)
        app = subprocess.Popen(
            [sys.executable, "-c", KILLED_APP, str(tmp_path / "app.af")],
            stdout=subprocess.PIPE, env=env)
        try:
            report = json.loads(app.stdout.readline())
        finally:
            app.kill()
            app.wait(timeout=10)
            app.stdout.close()
        assert report["ready"]
        assert not linked(report["name"])
        assert _wait_gone(report["host"])        # EOF ends the host too
        assert not linked(report["name"])

    def test_declined_attach_destroys_the_plane(self, tmp_path,
                                                 monkeypatch):
        class Unattachable(ShmPlane):
            def handshake_fields(self):
                return {**super().handshake_fields(),
                        "name": f"{self.name}-missing"}

        monkeypatch.setattr(runner, "ShmPlane", Unattachable)
        session = _open(tmp_path, "declined.af")
        try:
            plane = session.host.shm
            assert not session.host.shm_ready
            assert plane.destroyed and not linked(plane.name)
            leased = shmplane.SLOTS_LEASED.value
            data = pattern(BULK, salt=4)
            assert session.write_at(0, data) == len(data)
            assert session.read_at(0, len(data)) == data
            assert shmplane.SLOTS_LEASED.value == leased  # all inline
        finally:
            session.close()


@requires_shm
class TestShmInlineEquivalence:
    """Property: a host whose plane never came up (no /dev/shm) serves
    exactly the bytes a host with the plane serves."""

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**16),
           ops=st.lists(
               st.tuples(st.booleans(),
                         st.integers(0, 2 * BULK),
                         st.integers(1, 2 * BULK)),
               min_size=1, max_size=5))
    def test_same_ops_same_bytes(self, tmp_path_factory, seed, ops):
        def run(inline: bool):
            tmp = tmp_path_factory.mktemp("equiv")
            with pytest.MonkeyPatch.context() as patch:
                if inline:
                    patch.setattr(runner, "ShmPlane", no_shm_plane)
                session = _open(tmp, "blob.af")
            try:
                assert session.host.shm_ready is not inline
                out = []
                for is_write, offset, size in ops:
                    if is_write:
                        out.append(session.write_at(
                            offset, pattern(size, salt=seed)))
                    else:
                        out.append(session.read_at(offset, size))
                out.append(session.read_at(0, 4 * BULK))
                return out
            finally:
                session.close()

        assert run(inline=False) == run(inline=True)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**16),
           after=st.integers(0, 2))
    def test_equivalence_holds_under_shm_faults(self, tmp_path_factory,
                                                seed, after):
        """Same seeded fault schedule, shm on: output still inline's."""
        tmp = tmp_path_factory.mktemp("chaos")
        session = _open(tmp, "blob.af")
        try:
            fault = FaultPlane(seed)
            fault.corrupt_shm_slot(after=after, times=1)
            fault.stale_shm_generation(op="read", after=after, times=1)
            fault.arm_host(session.host)
            blocks = [pattern(BULK, salt=seed + i) for i in range(4)]
            for i, block in enumerate(blocks):
                assert session.write_at(i * BULK, block) == BULK
            assert session.read_at(0, 4 * BULK) == b"".join(blocks)
        finally:
            session.close()
