"""Cross-open coordination primitives.

The paper notes that when several user processes open the same active
file, "multiple sentinels are created, which synchronize amongst
themselves in a program-dependent fashion using semaphores, shared
memory or other forms of interprocess communication".  This module
provides :class:`FileLock`, an advisory ``flock`` on a stable sidecar
path, usable across real processes (the process strategies); opens in
one process also share a :class:`~repro.core.fanout.CoherenceDomain`.
"""

from __future__ import annotations

import fcntl
import os
import threading
from pathlib import Path

__all__ = ["FileLock"]


class FileLock:
    """An advisory, inter-process exclusive lock.

    The lock lives on a ``<path>.lock`` sidecar rather than the target
    file itself because container rewrites use ``os.replace``, which
    would silently change the locked inode under the holders.
    """

    def __init__(self, target: str | os.PathLike) -> None:
        self.lock_path = Path(str(target) + ".lock")
        self._fd: int | None = None
        # flock is per-open-file; serialize within the process too.
        self._thread_lock = threading.RLock()
        # flock has no recursion counter of its own: only the outermost
        # acquire/release may touch it, or a nested release would drop
        # the lock out from under the outer holder.
        self._depth = 0

    def acquire(self) -> None:
        self._thread_lock.acquire()
        if self._depth == 0:
            if self._fd is None:
                self._fd = os.open(self.lock_path,
                                   os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        self._depth += 1

    def release(self) -> None:
        self._depth -= 1
        if self._depth == 0 and self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
        self._thread_lock.release()

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

