"""A growable random-access byte buffer.

Used as the in-memory data part of active files, as the backing store of
the in-memory caching path, and as the file body inside the simulated
NTFS-like filesystem.  Semantics follow POSIX files: reads past the end
return short data, writes past the end zero-fill the gap.
"""

from __future__ import annotations

__all__ = ["ByteBuffer"]


class ByteBuffer:
    """A mutable, seekless byte store addressed by absolute offsets.

    The buffer itself carries no cursor; callers (file objects, sentinels)
    keep their own positions.  This keeps one buffer safely shareable
    between several openers, which is how the paper's sentinels share the
    data part.

    Bytes move in one copy: in-bounds reads and writes go through a
    ``memoryview`` of the store (a ``bytearray`` slice would copy once
    more, and slice-assigning a ``bytes`` or ``memoryview`` source copies
    it into a temporary first); only a write that grows the store takes
    the resize path.
    """

    def __init__(self, initial: bytes = b"") -> None:
        self._data = bytearray(initial)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ByteBuffer(size={len(self._data)})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ByteBuffer):
            return self._data == other._data
        if isinstance(other, (bytes, bytearray)):
            return self._data == other
        return NotImplemented

    @property
    def size(self) -> int:
        """Current size of the buffer in bytes."""
        return len(self._data)

    def read_at(self, offset: int, size: int) -> bytes:
        """Return up to *size* bytes starting at *offset*.

        Reads beyond the end return fewer bytes (possibly ``b""``),
        matching regular-file semantics.
        """
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        if size < 0:
            raise ValueError(f"negative size: {size}")
        return bytes(memoryview(self._data)[offset:offset + size])

    def read_at_into(self, offset: int, buffer: memoryview) -> int:
        """Copy up to ``len(buffer)`` bytes at *offset* into *buffer*.

        Returns the byte count; the single copy goes straight from the
        backing store into the caller's buffer (no intermediate bytes).
        """
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        available = len(self._data) - offset
        if available <= 0:
            return 0
        count = min(len(buffer), available)
        buffer[:count] = memoryview(self._data)[offset:offset + count]
        return count

    def write_at(self, offset: int, data: bytes) -> int:
        """Write *data* at *offset*, zero-filling any gap; return count."""
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        count = len(data)
        end = offset + count
        store = self._data
        if end <= len(store):
            memoryview(store)[offset:end] = data
            return count
        # Growing: drop the tail the write covers (or zero-fill the gap
        # up to it), then append the whole of *data* in one copy.
        if offset < len(store):
            del store[offset:]
        elif offset > len(store):
            store.extend(bytes(offset - len(store)))
        store += data
        return count

    def append(self, data: bytes) -> int:
        """Append *data* at the current end; return the offset it landed at."""
        offset = len(self._data)
        self._data.extend(data)
        return offset

    def truncate(self, size: int = 0) -> None:
        """Shrink (or zero-extend) the buffer to exactly *size* bytes."""
        if size < 0:
            raise ValueError(f"negative size: {size}")
        if size <= len(self._data):
            del self._data[size:]
        else:
            self._data.extend(b"\x00" * (size - len(self._data)))

    def getvalue(self) -> bytes:
        """Return the whole buffer as immutable bytes."""
        return bytes(self._data)

    def setvalue(self, data: bytes) -> None:
        """Replace the whole buffer contents."""
        self._data = bytearray(data)
