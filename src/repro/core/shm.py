"""The shared-memory bulk-data plane (paper §4.3 / Appendix A).

The paper's fastest cross-domain strategy moves bulk data through
"shared memory buffers" and signals completion with events, so payload
bytes never cross a pipe.  This module brings that split to the pooled
sentinel host: the framed channel stays the *control* plane (small
headers, ordering, deadlines), while read/write bodies above a threshold
travel through a per-host shared-memory **slab segment**.

This module owns that segment and its slot protocol.  One
:class:`ShmPlane` lives on the application side of each
:class:`~repro.core.runner.SentinelHost`; the host child maps the same
segment as an :class:`AttachedSegment`.  The segment is a fixed array of
fixed-size slots preceded by a per-slot *generation* word:

====================  =====================================================
region                contents
====================  =====================================================
header                ``slots`` little-endian u64 generation counters
data                  ``slots`` × ``slot_bytes`` payload slots
====================  =====================================================

A payload leases a contiguous *run* of slots; the frame then carries a
descriptor ``[slot, length, generation, checksum]`` (field ``shm``)
instead of the bytes, and a read offers a landing run (``shm_r``).  The
host checks the generation word (the descriptor must describe the
*current* lease of that slot) before acting; any mismatch raises a typed
:class:`~repro.errors.ShmError` and the sender retries the attempt
inline — shm failures degrade throughput, never correctness.  The
checksum word is 0 unless the ``shm-corrupt`` fault seals a CRC into it.

Lifetime:

* Both ends map the segment with ``shm_open`` + ``mmap``, with no
  resource tracker.  The application unlinks the name once the host has
  answered the ``open`` handshake; both mappings stay valid.
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
from repro.util.framing import payload_parts

__all__ = [
    "ShmPlane",
    "SlotLease",
    "AttachedSegment",
    "bulk_bytes",
    "reply_payload",
    "SHM_MIN_BYTES",
    "SLOT_BYTES",
    "SEGMENT_SLOTS",
]

#: Payloads at or above this ride the slab; smaller ones ride inline on
#: the frame.  Measured with synchronous read/write probes over three
#: alternating runs on a 2-vCPU VM: inline wins at 4 KiB (a lease and
#: descriptor cost more than the pipe copy they save), shm wins by
#: 20-50% from 128 KiB up, and 32-64 KiB is a tie within the +/-15%
#: run-to-run spread.  The cutover sits at the low end of the tie.
SHM_MIN_BYTES = 32 * 1024

#: Slot granularity.  One slot holds the common large block; bigger
#: payloads lease a contiguous run of slots.
SLOT_BYTES = 64 * 1024

#: Slots per segment (256 × 64 KiB = 16 MiB of data — matches the frame
#: codec's MAX_FRAME, so anything frameable is also slabbable).
SEGMENT_SLOTS = 256

_GEN = struct.Struct("<Q")

#: Bit 32 of a descriptor's checksum word marks a CRC32 in its low 32
#: bits; a bare 0 means none.  Only the ``shm-corrupt`` fault seals one.
_SUM_PRESENT = 1 << 32

# Counters are module-cached so the hot path never takes the registry
# lock (the registry hands back the same object for the same name).
SLOTS_LEASED = TELEMETRY.metrics.counter("shm.slots_leased")
SHM_BYTES = TELEMETRY.metrics.counter("shm.bytes")
FALLBACK_INLINE = TELEMETRY.metrics.counter("shm.fallback_inline")


def _crc(view: "memoryview | bytes") -> int:
    return zlib.crc32(view) & 0xFFFFFFFF


def _map_segment(name: str, size: int = 0) -> mmap.mmap:
    """Map the POSIX segment *name*: create it at *size* bytes, or open
    an existing one (``size`` 0) at whatever size it has."""
    import _posixshmem

    flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if size else 0)
    fd = _posixshmem.shm_open(f"/{name}", flags, mode=0o600)
    try:
        if size:
            os.ftruncate(fd, size)
        return mmap.mmap(fd, size or os.fstat(fd).st_size)
    except BaseException:
        if size:
            _posixshmem.shm_unlink(f"/{name}")
        raise
    finally:
        os.close(fd)


class _Segment:
    """One mapping of a slab segment: the slot and generation views
    both ends share.  Without a mapping, every access is a ShmError."""

    def __init__(self, name: str = "", mapping: mmap.mmap | None = None,
                 slots: int = 0, slot_bytes: int = 0) -> None:
        self.name = name
        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        self._header_bytes = self.slots * _GEN.size
        self._map = mapping
        self._buf = memoryview(mapping) if mapping is not None else None

    def _slot_view(self, slot: int, length: int,
                   generation: int | None = None) -> memoryview:
        """The first *length* bytes of *slot*'s run, after checking that
        the run is in bounds and, given one, that *generation* is current."""
        buf = self._buf
        if buf is None:
            raise ShmError("no shm segment mapped")
        if not 0 <= slot < self.slots:
            raise ShmError(f"descriptor names slot {slot} of {self.slots}")
        start = self._header_bytes + slot * self.slot_bytes
        if length < 0 or start + length > len(buf):
            raise ShmError(f"descriptor overruns the segment by "
                           f"{start + length - len(buf)} bytes")
        if generation is not None:
            self._check_generation(slot, generation)
        return buf[start:start + length]

    def _generation(self, slot: int) -> int:
        buf = self._buf
        if buf is None:
            raise ShmError("no shm segment mapped")
        return _GEN.unpack_from(buf, slot * _GEN.size)[0]

    def _check_generation(self, slot: int, generation: int) -> None:
        current = self._generation(slot)
        if current != generation:
            raise ShmStaleGenerationError(
                f"slot {slot} descriptor is stale "
                f"(generation {generation} != current {current})")

    def _unmap(self) -> None:
        buf, self._buf = self._buf, None
        mapping, self._map = self._map, None
        try:
            if buf is not None:
                buf.release()
            if mapping is not None:
                mapping.close()
        except BufferError:  # pragma: no cover - a view is still exported
            pass  # the mapping goes with the last view


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

    def stage(self, parts) -> list[int]:
        """Copy payload *parts* into the run; returns the descriptor."""
        length = sum(len(p) for p in parts)
        view = self.plane._slot_view(self.slot, length)
        cursor = 0
        for part in parts:
            n = len(part)
            view[cursor:cursor + n] = part
            cursor += n
        self.length = length
        SHM_BYTES.inc(length)
        return [self.slot, length, self.generation, 0]

    def reply_desc(self) -> list[int]:
        """Descriptor offering this run to the peer as a reply slot."""
        return [self.slot, self.nslots * self.plane.slot_bytes,
                self.generation]

    def take(self, length: int, into: "memoryview | None" = None):
        """Copy a peer-filled reply out of the run, validating it.

        Returns the bytes, or, with *into*, copies them straight into
        that buffer and returns the count.
        """
        view = self.plane._slot_view(self.slot, length, self.generation)
        SHM_BYTES.inc(length)
        if into is None:
            return bytes(view)
        into[:length] = view
        return length

    # -- deterministic fault hooks (see repro.core.faults) -------------------

    def scribble(self, desc: list[int]) -> None:
        """Corrupt one staged byte (the ``shm-corrupt`` fault action).

        *desc* is the staged run's descriptor; it is sealed with the CRC
        of the bytes as staged first, so the peer rejects the slot.
        """
        view = self.plane._slot_view(self.slot, max(1, self.length))
        desc[3] = _crc(view[:self.length]) | _SUM_PRESENT
        view[0] ^= 0xFF

    def invalidate(self) -> None:
        """Bump the generation word (``shm-stale-generation`` action)."""
        # Track the bump so release() leaves a consistent word behind.
        self.generation = self.plane._bump(self.slot)


class ShmPlane(_Segment):
    """Application-side owner of one host's shared-memory segment."""

    def __init__(self, slots: int = SEGMENT_SLOTS,
                 slot_bytes: int = SLOT_BYTES) -> None:
        name = f"repro-af-{os.getpid()}-{os.urandom(4).hex()}"
        size = int(slots) * (_GEN.size + int(slot_bytes))
        super().__init__(name, _map_segment(name, size), slots,
                         slot_bytes)
        self._linked = True
        self._lock = threading.Lock()
        self._free = bytearray(self.slots)  # 0 = free, 1 = leased/parked
        #: chan -> leases whose rid was withdrawn before a reply; freed
        #: once a later rid on the same chan settles (FIFO guarantee).
        self._parked: dict[int, list[SlotLease]] = {}
        self.destroyed = False

    def handshake_fields(self) -> dict[str, Any]:
        """What the ``open`` request carries so the child can attach."""
        return {"name": self.name, "slots": self.slots,
                "slot_bytes": self.slot_bytes}

    def unlink(self) -> None:
        """Remove the segment's name (idempotent); mappings stay valid."""
        if self._linked:
            self._linked = False
            import _posixshmem
            try:
                _posixshmem.shm_unlink(f"/{self.name}")
            except FileNotFoundError:  # a racing unlink got there first
                pass

    # -- the exchange ---------------------------------------------------------

    def stage(self, fields: dict[str, Any], payload: Any, nbytes: int,
              into: "memoryview | None" = None, faults=None
              ) -> "tuple[dict[str, Any], Any, SlotLease | None]":
        """The wire form of one attempt, and the lease it holds.

        *nbytes* is the attempt's nonzero :func:`bulk_bytes` (an op
        below :data:`SHM_MIN_BYTES` never reaches the plane).  A
        ``write``/``writev`` payload is copied into a leased run and its
        descriptor replaces the frame body; a ``read``/``readv`` is
        offered a leased landing run.  An armed ``shm`` rule of *faults*
        (a :class:`~repro.core.faults.FaultPlane`) is applied to the
        run.  The lease is ``None`` when the attempt rides inline (the
        slab is full).
        """
        cmd = fields.get("cmd")
        lease = self.lease(nbytes)
        if lease is None:
            FALLBACK_INLINE.inc()
            return fields, payload, None
        if cmd == "write" or cmd == "writev":
            desc = lease.stage(payload_parts(payload))
            wire_fields, payload = {**fields, "shm": desc}, b""
        else:
            desc = None  # an offered run holds nothing to corrupt
            wire_fields = {**fields, "shm_r": lease.reply_desc()}
        # Faults apply sender-side, so a schedule replays identically
        # whatever the host's timing.
        rule = faults.on_shm(fields, staged=desc is not None) \
            if faults is not None else None
        if rule is not None and rule.action == "shm-corrupt":
            lease.scribble(desc)
        elif rule is not None and rule.action == "shm-stale-generation":
            lease.invalidate()
        return wire_fields, payload, lease

    # -- slot accounting ------------------------------------------------------

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

    def park(self, chan: int, lease: SlotLease | None) -> None:
        """Quarantine a run whose request was withdrawn without a reply.

        The peer's channel worker may still be serving the withdrawn
        request against these slots; re-leasing them now could hand a
        straggler someone else's bytes.  They stay out of the free pool
        until :meth:`settle` proves the worker has moved past them.
        """
        if lease is None:
            return
        with self._lock:
            if not self.destroyed:
                self._parked.setdefault(int(chan), []).append(lease)

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
        """Unmap the segment and unlink its name if it is still there
        (idempotent); every lease goes invalid."""
        with self._lock:
            if self.destroyed:
                return
            self.destroyed = True
            self._parked.clear()
        self._unmap()
        self.unlink()


def bulk_bytes(fields: dict[str, Any], payload: Any,
               into: "memoryview | None" = None) -> int:
    """The bulk bytes one request of *fields* moves through the plane:
    a ``write``'s or ``writev``'s payload, or the reply a
    ``read``/``readv`` expects (clipped to *into*).  0 below
    :data:`SHM_MIN_BYTES`: such a request rides inline and never
    touches the plane."""
    cmd = fields.get("cmd")
    if cmd == "write" or cmd == "writev":
        nbytes = sum(map(len, payload_parts(payload)))
    else:
        if cmd == "read":
            nbytes = int(fields.get("size") or 0)
        else:
            nbytes = sum(int(s) for _, s in (fields.get("extents") or ()))
        if into is not None:
            nbytes = min(nbytes, len(into)) if nbytes else len(into)
    return nbytes if nbytes >= SHM_MIN_BYTES else 0


def reply_payload(reply: dict[str, Any], payload: bytes,
                  lease: SlotLease | None,
                  into: "memoryview | None" = None) -> bytes:
    """Materialise a reply's bulk bytes, whichever way they came.

    A sealed ``shm`` descriptor in a reply to an offered run (*lease*)
    is validated and drained from the slot; raises :class:`ShmError` on
    a mismatch so the caller can retry inline.  With *into*, the bytes
    land in the caller's buffer, ``reply["sl"]`` reports the count, and
    the returned payload is empty.
    """
    desc = reply.pop("shm", None) if lease is not None else None
    if into is None:
        return payload if desc is None else lease.take(int(desc[1]))
    if desc is not None:
        reply["sl"] = lease.take(int(desc[1]), into)
    else:
        reply["sl"] = len(payload)
        into[:len(payload)] = payload
    return b""


class AttachedSegment(_Segment):
    """Child-side attachment to the host plane's segment.

    The application side created the segment and unlinks its name once
    the handshake is answered; the child only maps it.  An instance made
    without a mapping stands for a host that attached nothing: every
    descriptor sent to it is rejected.
    """

    @classmethod
    def attach(cls, name: str, slots: int,
               slot_bytes: int) -> "AttachedSegment":
        return cls(name, _map_segment(name), slots, slot_bytes)

    def execute(self, run, fields: dict[str, Any], payload: Any
                ) -> tuple[dict[str, Any], Any]:
        """Serve one session request through ``run(fields, payload)``
        with its slot descriptors resolved.

        An inbound ``shm`` descriptor replaces the (empty) frame payload
        with the slot's bytes, consumed in place and re-checked after
        *run* returns; an ``shm_r`` descriptor offers a run the reply is
        written straight into (``run`` gets it as ``reply_into`` and
        reports the count as ``sl``), and the reply then carries only
        the sealed descriptor.  A rejected descriptor raises
        :class:`ShmError`, which reaches the sender as a typed error
        reply; it retries the attempt inline.
        """
        desc = fields.pop("shm", None)
        offer = fields.pop("shm_r", None)
        if desc is None and offer is None:
            return run(fields, payload)
        view = self.payload_view(desc) if desc is not None \
            else self.fill_view(offer)
        try:
            if desc is not None:
                # Zero-copy: the dispatcher consumes the slot bytes in
                # place; the recheck detects a torn read, and the
                # sender's inline retry (absolute offsets) rewrites the
                # range.
                out = run(fields, view)
                self._check_generation(int(desc[0]), int(desc[2]))
                return out
            out_fields, out_payload = run(fields, payload, reply_into=view)
            filled = out_fields.get("sl")
            if filled is not None and out_fields.get("ok"):
                out_fields["shm"] = [int(offer[0]), int(filled),
                                     int(offer[2]), 0]
                out_payload = b""
            return out_fields, out_payload
        finally:
            view.release()

    def payload_view(self, desc) -> memoryview:
        """Validate an inbound payload descriptor and open its run.

        The returned view aliases the segment: a generation bump while
        the consumer reads it means the producer re-leased the run
        mid-read (torn bytes), which under the lease protocol can only
        follow a protocol violation.
        """
        try:
            slot, length, generation, checksum = (int(x) for x in desc)
        except (TypeError, ValueError) as exc:
            raise ShmError(f"malformed shm descriptor: {desc!r}") from exc
        view = self._slot_view(slot, length, generation)
        if checksum & _SUM_PRESENT \
                and _crc(view) != checksum & 0xFFFFFFFF:
            raise ShmCorruptError(f"slot {slot} failed its checksum")
        return view

    def fill_view(self, desc) -> memoryview:
        """Validate an offered reply descriptor and open its run."""
        try:
            slot, capacity, generation = (int(x) for x in desc)
        except (TypeError, ValueError) as exc:
            raise ShmError(f"malformed shm reply descriptor: {desc!r}") from exc
        return self._slot_view(slot, capacity, generation)

    def close(self) -> None:
        self._unmap()
