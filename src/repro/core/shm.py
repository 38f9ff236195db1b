"""The shared-memory bulk-data plane (paper §4.3 / Appendix A).

The paper's fastest cross-domain strategy moves bulk data through
"shared memory buffers" and signals completion with events, so payload
bytes never cross a pipe.  This module brings that split to the pooled
sentinel host: the framed channel stays the *control* plane (small
headers, ordering, deadlines), while read/write bodies above a threshold
travel through a per-host shared-memory **slab segment**.

One :class:`ShmPlane` lives on the application side of each
:class:`~repro.core.runner.SentinelHost`.  Its segment is a fixed array
of fixed-size slots preceded by a per-slot *generation* word:

====================  =====================================================
region                contents
====================  =====================================================
header                ``slots`` little-endian u64 generation counters
data                  ``slots`` × ``slot_bytes`` payload slots
====================  =====================================================

A payload leases a contiguous *run* of slots; the frame then carries a
compact descriptor ``[slot, length, generation, crc32]`` instead of the
bytes.  The child validates the generation word (the descriptor must
describe the *current* lease of that slot) and the CRC (the bytes must
be exactly what the producer staged) before acting; any mismatch raises
a typed :class:`~repro.errors.ShmError` and the sender retries the
attempt inline — shm failures degrade throughput, never correctness.

Crash safety:

* The segment is created at host spawn and destroyed at host death, so
  a respawned host starts with a fresh (empty) slab and the write
  journal replays **inline** — a replayed mutation can never reference
  a slot from a previous incarnation.
* A timed-out request's slots are *parked*, not freed: the peer may
  still be serving the withdrawn request.  Because each logical channel
  is served FIFO by one worker, the straggler is provably finished once
  any later request on the same channel settles — at which point the
  parked slots return to the free pool (:meth:`ShmPlane.settle`).
* Generation words bump at lease and at release, so a descriptor held
  across either boundary is detectably stale.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
import zlib
from typing import Any

from repro.core.telemetry import TELEMETRY
from repro.errors import ShmCorruptError, ShmError, ShmStaleGenerationError

__all__ = [
    "ShmPlane",
    "SlotLease",
    "AttachedSegment",
    "SHM_MIN_BYTES",
    "SLOT_BYTES",
    "SEGMENT_SLOTS",
]

#: Payloads at or above this ride the slab; smaller ones ride inline on
#: the frame.  Measured with synchronous read/write probes over three
#: alternating runs on a 2-vCPU VM: inline wins at 4 KiB (a lease,
#: descriptor and checksum cost more than the pipe copy they save), shm
#: wins by 20-50% from 128 KiB up, and 32-64 KiB is a tie within the
#: +/-15% run-to-run spread.  The cutover sits at the low end of the tie.
SHM_MIN_BYTES = 32 * 1024

#: Slot granularity.  One slot holds the common large block; bigger
#: payloads lease a contiguous run of slots.
SLOT_BYTES = 64 * 1024

#: Slots per segment (256 × 64 KiB = 16 MiB of data — matches the frame
#: codec's MAX_FRAME, so anything frameable is also slabbable).
SEGMENT_SLOTS = 256

_GEN = struct.Struct("<Q")

#: Descriptor checksums are self-describing: bit 32 marks "present", the
#: low 32 bits carry the CRC.  A bare 0 means the producer skipped it.
_SUM_PRESENT = 1 << 32

# Counters are module-cached so the hot path never takes the registry
# lock (the registry hands back the same object for the same name).
SLOTS_LEASED = TELEMETRY.metrics.counter("shm.slots_leased")
SHM_BYTES = TELEMETRY.metrics.counter("shm.bytes")
FALLBACK_INLINE = TELEMETRY.metrics.counter("shm.fallback_inline")


def _crc(view: "memoryview | bytes") -> int:
    return zlib.crc32(view) & 0xFFFFFFFF


class SlotLease:
    """One leased contiguous run of slots on the application side."""

    __slots__ = ("plane", "slot", "nslots", "generation", "length")

    def __init__(self, plane: "ShmPlane", slot: int, nslots: int,
                 generation: int) -> None:
        self.plane = plane
        self.slot = slot
        self.nslots = nslots
        self.generation = generation
        self.length = 0

    def _view(self, length: int) -> memoryview:
        return self.plane._slot_view(self.slot, length)

    def stage(self, parts) -> list[int]:
        """Copy payload *parts* into the run; returns the descriptor."""
        length = sum(len(p) for p in parts)
        view = self._view(length)
        cursor = 0
        for part in parts:
            n = len(part)
            view[cursor:cursor + n] = part
            cursor += n
        self.length = length
        SHM_BYTES.inc(length)
        checksum = (_crc(view) | _SUM_PRESENT) if self.plane.checksums else 0
        return [self.slot, length, self.generation, checksum]

    def reply_desc(self) -> list[int]:
        """Descriptor offering this run to the peer as a reply slot."""
        return [self.slot, self.nslots * self.plane.slot_bytes,
                self.generation]

    def take(self, length: int, checksum: int) -> bytes:
        """Copy a peer-filled reply out of the run, validating it."""
        view = self._view(length)
        self._validate(view, checksum)
        SHM_BYTES.inc(length)
        return bytes(view)

    def take_into(self, buffer: memoryview, length: int,
                  checksum: int) -> int:
        """Zero-intermediate copy of a peer-filled reply into *buffer*."""
        view = self._view(length)
        self._validate(view, checksum)
        buffer[:length] = view
        SHM_BYTES.inc(length)
        return length

    def _validate(self, view: memoryview, checksum: int) -> None:
        if self.plane._generation(self.slot) != self.generation:
            raise ShmStaleGenerationError(
                f"slot {self.slot} was re-leased under us")
        if checksum & _SUM_PRESENT and _crc(view) != checksum & 0xFFFFFFFF:
            raise ShmCorruptError(
                f"slot {self.slot} failed its checksum")

    # -- deterministic fault hooks (see repro.core.faults) -------------------

    def scribble(self) -> None:
        """Corrupt one staged byte (the ``shm-corrupt`` fault action)."""
        view = self._view(max(1, self.length))
        view[0] ^= 0xFF

    def invalidate(self) -> None:
        """Bump the generation word (``shm-stale-generation`` action)."""
        self.plane._bump(self.slot)
        # Track the bump so release() leaves a consistent word behind.
        self.generation = self.plane._generation(self.slot)


class ShmPlane:
    """Application-side owner of one host's shared-memory segment."""

    def __init__(self, slots: int = SEGMENT_SLOTS,
                 slot_bytes: int = SLOT_BYTES,
                 checksums: bool = False) -> None:
        import secrets  # the application side only: hosts attach
        from multiprocessing import shared_memory
        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        #: Whether staged payloads carry a CRC.  The protocol's
        #: correctness envelope is the generation fencing (a slot is
        #: only ever read while its producer holds the lease); the
        #: checksum is belt-and-braces against a buggy peer — and the
        #: detection channel for the ``shm-corrupt`` fault action — so
        #: it is off by default: at slab speeds CRC-ing every byte
        #: twice would halve the plane's throughput.
        self.checksums = bool(checksums)
        self._header_bytes = self.slots * _GEN.size
        size = self._header_bytes + self.slots * self.slot_bytes
        self._shm = shared_memory.SharedMemory(
            name=f"repro-af-{os.getpid()}-{secrets.token_hex(4)}",
            create=True, size=size)
        self._buf = self._shm.buf
        self._lock = threading.Lock()
        self._free = bytearray(self.slots)  # 0 = free, 1 = leased/parked
        #: chan -> leases whose rid was withdrawn before a reply; freed
        #: once a later rid on the same chan settles (FIFO guarantee).
        self._parked: dict[int, list[SlotLease]] = {}
        self.destroyed = False

    @property
    def name(self) -> str:
        return self._shm.name

    def handshake_fields(self) -> dict[str, Any]:
        """What the ``open`` request carries so the child can attach."""
        return {"name": self.name, "slots": self.slots,
                "slot_bytes": self.slot_bytes, "crc": self.checksums}

    # -- slot accounting ------------------------------------------------------

    def _slot_view(self, slot: int, length: int) -> memoryview:
        buf = self._buf
        if buf is None:
            raise ShmError("shm plane destroyed (host gone)")
        start = self._header_bytes + slot * self.slot_bytes
        return buf[start:start + length]

    def _generation(self, slot: int) -> int:
        buf = self._buf
        if buf is None:
            raise ShmError("shm plane destroyed (host gone)")
        return _GEN.unpack_from(buf, slot * _GEN.size)[0]

    def _bump(self, slot: int) -> int:
        value = self._generation(slot) + 1
        _GEN.pack_into(self._buf, slot * _GEN.size, value)
        return value

    def lease(self, nbytes: int) -> SlotLease | None:
        """Lease a contiguous run holding *nbytes*; ``None`` when full."""
        if self.destroyed or nbytes <= 0:
            return None
        nslots = -(-nbytes // self.slot_bytes)
        if nslots > self.slots:
            return None
        with self._lock:
            if self.destroyed:
                return None
            free = self._free
            run = 0
            for slot in range(self.slots):
                run = run + 1 if not free[slot] else 0
                if run == nslots:
                    start = slot - nslots + 1
                    for taken in range(start, slot + 1):
                        free[taken] = 1
                    generation = self._bump(start)
                    SLOTS_LEASED.inc(nslots)
                    return SlotLease(self, start, nslots, generation)
        return None

    def release(self, lease: SlotLease | None) -> None:
        """Return a run to the free pool; its descriptors go stale."""
        if lease is None:
            return
        with self._lock:
            if self.destroyed:
                return
            self._bump(lease.slot)
            for slot in range(lease.slot, lease.slot + lease.nslots):
                self._free[slot] = 0

    def park(self, chan: int, *leases: SlotLease | None) -> None:
        """Quarantine runs whose request was withdrawn without a reply.

        The peer's channel worker may still be serving the withdrawn
        request against these slots; re-leasing them now could hand a
        straggler someone else's bytes.  They stay out of the free pool
        until :meth:`settle` proves the worker has moved past them.
        """
        with self._lock:
            if self.destroyed:
                return
            bucket = self._parked.setdefault(int(chan), [])
            for lease in leases:
                if lease is not None:
                    bucket.append(lease)

    def settle(self, chan: int) -> None:
        """A later request on *chan* settled: its stragglers are done."""
        if not self._parked:
            return
        with self._lock:
            parked = self._parked.pop(int(chan), None)
        if parked:
            for lease in parked:
                self.release(lease)

    def free_slots(self) -> int:
        with self._lock:
            return self._free.count(0)

    def destroy(self) -> None:
        """Unlink the segment (idempotent); every lease goes invalid."""
        with self._lock:
            if self.destroyed:
                return
            self.destroyed = True
            self._parked.clear()
        self._buf = None
        try:
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover - exported views
            pass
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


class AttachedSegment:
    """Child-side attachment to the host plane's segment.

    The child maps the segment by its POSIX name, as
    :mod:`multiprocessing.shared_memory` would, but without importing
    :mod:`multiprocessing` or starting a resource tracker: the
    application side created the segment and unlinks it, so a tracker
    here would have nothing to do but unregister it again.
    """

    def __init__(self, name: str, mapping: mmap.mmap, slots: int,
                 slot_bytes: int, checksums: bool = False) -> None:
        self.name = name
        self._map = mapping
        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        self.checksums = bool(checksums)
        self._header_bytes = self.slots * _GEN.size
        self._buf = memoryview(mapping)

    @classmethod
    def attach(cls, name: str, slots: int, slot_bytes: int,
               checksums: bool = False) -> "AttachedSegment":
        import _posixshmem

        fd = _posixshmem.shm_open(f"/{name}", os.O_RDWR, mode=0o600)
        try:
            mapping = mmap.mmap(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
        return cls(name, mapping, slots, slot_bytes, checksums)

    def _slot_view(self, slot: int, length: int) -> memoryview:
        if not 0 <= slot < self.slots:
            raise ShmError(f"descriptor names slot {slot} of {self.slots}")
        start = self._header_bytes + slot * self.slot_bytes
        if length < 0 or start + length > len(self._buf):
            raise ShmError(f"descriptor overruns the segment by "
                           f"{start + length - len(self._buf)} bytes")
        return self._buf[start:start + length]

    def _check_generation(self, slot: int, generation: int) -> None:
        current = _GEN.unpack_from(self._buf, slot * _GEN.size)[0]
        if current != int(generation):
            raise ShmStaleGenerationError(
                f"slot {slot} descriptor is stale "
                f"(generation {generation} != current {current})")

    def payload_view(self, desc) -> memoryview:
        """Validate an inbound payload descriptor and open its run.

        The returned view aliases the segment: the consumer copies (or
        writes) from it, then calls :meth:`recheck` — a generation bump
        in between means the producer re-leased the run mid-read (torn
        bytes), which under the lease protocol can only follow a
        protocol violation, so it surfaces as a typed error and the
        sender retries inline.
        """
        try:
            slot, length, generation, checksum = (int(x) for x in desc)
        except (TypeError, ValueError) as exc:
            raise ShmError(f"malformed shm descriptor: {desc!r}") from exc
        view = self._slot_view(slot, length)
        self._check_generation(slot, generation)
        if checksum & _SUM_PRESENT \
                and _crc(view) != checksum & 0xFFFFFFFF:
            raise ShmCorruptError(f"slot {slot} failed its checksum")
        return view

    def recheck(self, desc) -> None:
        """Post-consumption staleness check (see :meth:`payload_view`)."""
        self._check_generation(int(desc[0]), int(desc[2]))

    def read_desc(self, desc) -> bytes:
        """Materialize an inbound payload as private bytes."""
        view = self.payload_view(desc)
        try:
            data = bytes(view)
        finally:
            view.release()
        self.recheck(desc)
        return data

    def fill_view(self, desc) -> "tuple[int, memoryview]":
        """Open a reply slot for direct filling; returns (slot, view)."""
        try:
            slot, capacity, generation = (int(x) for x in desc)
        except (TypeError, ValueError) as exc:
            raise ShmError(f"malformed shm reply descriptor: {desc!r}") from exc
        view = self._slot_view(slot, capacity)
        self._check_generation(slot, generation)
        return slot, view

    def seal(self, desc, filled: memoryview) -> list[int]:
        """Descriptor for a reply just written into a leased run."""
        slot, _, generation = (int(x) for x in desc)
        checksum = (_crc(filled) | _SUM_PRESENT) if self.checksums else 0
        return [slot, len(filled), generation, checksum]

    def close(self) -> None:
        buf, self._buf = self._buf, None
        try:
            if buf is not None:
                buf.release()
            self._map.close()
        except (BufferError, OSError):  # pragma: no cover
            pass
