"""Access to an active file's data part.

"The data file associated with an active file acts as a local cache"
(paper §2.2).  Sentinels see the data part through this small interface
regardless of strategy:

* :class:`MemoryDataPart` — an in-memory buffer, used when the container
  declares an ephemeral data part ("an active file can have an empty
  data part") or when a sentinel wants a private scratch cache;
* :class:`ContainerDataPart` — backed by the ``.af`` container's data
  segment, loaded at open and flushed (atomically, under a cross-process
  lock) on ``flush``/``close``.
"""

from __future__ import annotations

from repro.core.container import Container
from repro.core.resourcefaults import charge_disk_write
from repro.core.sync import FileLock
from repro.util.bytesbuf import ByteBuffer

__all__ = ["DataPart", "MemoryDataPart", "ContainerDataPart"]


class DataPart:
    """Interface every data-part implementation satisfies."""

    def read_at(self, offset: int, size: int) -> bytes:
        raise NotImplementedError

    def read_at_into(self, offset: int, buffer: memoryview) -> int:
        """Read up to ``len(buffer)`` bytes at *offset* into *buffer*.

        The default routes through :meth:`read_at`; buffer-backed parts
        override it to copy exactly once.
        """
        data = self.read_at(offset, len(buffer))
        buffer[:len(data)] = data
        return len(data)

    def write_at(self, offset: int, data: bytes) -> int:
        """Write *data* at *offset*; return the count.

        *data* may be any bytes-like object: the block cache installs a
        fetched window as ``memoryview`` slices of the origin's reply.
        """
        raise NotImplementedError

    @property
    def size(self) -> int:
        raise NotImplementedError

    def truncate(self, size: int = 0) -> None:
        raise NotImplementedError

    def getvalue(self) -> bytes:
        raise NotImplementedError

    def setvalue(self, data: bytes) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Persist buffered changes (no-op for memory parts)."""

    def close(self) -> None:
        self.flush()


class MemoryDataPart(DataPart):
    """A purely in-memory data part."""

    def __init__(self, initial: bytes = b"") -> None:
        self._buffer = ByteBuffer(initial)

    def read_at(self, offset: int, size: int) -> bytes:
        return self._buffer.read_at(offset, size)

    def read_at_into(self, offset: int, buffer: memoryview) -> int:
        return self._buffer.read_at_into(offset, buffer)

    def write_at(self, offset: int, data: bytes) -> int:
        return self._buffer.write_at(offset, data)

    @property
    def size(self) -> int:
        return self._buffer.size

    def truncate(self, size: int = 0) -> None:
        self._buffer.truncate(size)

    def getvalue(self) -> bytes:
        return self._buffer.getvalue()

    def setvalue(self, data: bytes) -> None:
        self._buffer.setvalue(data)


class ContainerDataPart(DataPart):
    """Data part backed by the container's data segment.

    The segment is loaded into memory at construction; mutations set a
    dirty flag and :meth:`flush` rewrites the container atomically while
    holding the container's file lock, so concurrent openers (possibly
    in other OS processes) never observe a torn data part.
    """

    def __init__(self, container: Container) -> None:
        self._container = container
        self._lock = FileLock(container.path)
        self._buffer = ByteBuffer(container.data)
        self._dirty = False

    def read_at(self, offset: int, size: int) -> bytes:
        return self._buffer.read_at(offset, size)

    def read_at_into(self, offset: int, buffer: memoryview) -> int:
        return self._buffer.read_at_into(offset, buffer)

    def write_at(self, offset: int, data: bytes) -> int:
        written = self._buffer.write_at(offset, data)
        self._dirty = True
        return written

    @property
    def size(self) -> int:
        return self._buffer.size

    def truncate(self, size: int = 0) -> None:
        self._buffer.truncate(size)
        self._dirty = True

    def getvalue(self) -> bytes:
        return self._buffer.getvalue()

    def setvalue(self, data: bytes) -> None:
        self._buffer.setvalue(data)
        self._dirty = True

    def reload(self) -> None:
        """Discard the buffer and re-read the on-disk data part."""
        with self._lock:
            self._buffer.setvalue(self._container.read_data())
        self._dirty = False

    def flush(self) -> None:
        if not self._dirty:
            return
        data = self._buffer.getvalue()
        # The disk-full chaos hook: an armed quota (resourcefaults's
        # ``disk-full`` fault) raises typed ENOSPC *before* any bytes
        # hit the disk — the buffer stays dirty, so a retry after the
        # fault reverts persists everything, like a real full disk.
        charge_disk_write(len(data))
        with self._lock:
            self._container.write_data(data)
        self._dirty = False

    def close(self) -> None:
        self.flush()
        self._lock.close()
