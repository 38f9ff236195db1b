"""Reference round trip: a bare pipe echo between two plain Python processes.

The benchmark divides every latency it reports by this round trip, taken
in the same run, so that machine-speed drift hits both sides of the
ratio.  The module imports only the standard library: no change to the
program under test can move the denominator.

Run as a helper (the default), it spawns an echo child (``--echo``) and
then serves commands from its standard input, one per line:

* ``<count> <size>`` -- time *count* echoes of a *size*-byte payload and
  answer with an 8-byte little-endian length followed by the samples,
  nanoseconds as ``array('q')`` bytes;
* ``quit`` -- stop the echo child, wait for it, and exit.

The echo end reads a whole message before it answers, so any *size*
up to :data:`MAX_SIZE` is free of deadlock, even one larger than the
pipe buffer (it then crosses in several pipe-sized pieces, as a large
inline payload of the program under test does).
"""

from __future__ import annotations

import os
import subprocess
import sys
from array import array
from time import perf_counter_ns

MAX_SIZE = 1024 * 1024


def _read_exact(fd: int, size: int) -> bytes:
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            raise EOFError("peer closed the pipe")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def echo() -> int:
    """The echo end: read a 4-byte size, then that many bytes; send them back."""
    rfd, wfd = 0, 1
    while True:
        try:
            header = _read_exact(rfd, 4)
        except EOFError:
            return 0
        size = int.from_bytes(header, "little")
        os.write(wfd, _read_exact(rfd, size))


def _time_block(proc: subprocess.Popen, count: int, size: int) -> array:
    wfd = proc.stdin.fileno()
    rfd = proc.stdout.fileno()
    message = size.to_bytes(4, "little") + bytes(size)
    samples = array("q")
    append = samples.append
    for _ in range(count):
        started = perf_counter_ns()
        os.write(wfd, message)
        _read_exact(rfd, size)
        append(perf_counter_ns() - started)
    return samples


def helper() -> int:
    proc = subprocess.Popen([sys.executable, "-I", os.path.abspath(__file__),
                             "--echo"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            bufsize=0)
    try:
        for line in sys.stdin.buffer:
            words = line.split()
            if not words or words[0] == b"quit":
                break
            count, size = int(words[0]), int(words[1])
            if not 0 < size <= MAX_SIZE or count <= 0:
                raise ValueError(f"bad echo block: {line!r}")
            body = _time_block(proc, count, size).tobytes()
            sys.stdout.buffer.write(len(body).to_bytes(8, "little") + body)
            sys.stdout.buffer.flush()
    finally:
        proc.stdin.close()
        proc.wait()
        proc.stdout.close()
    return 0


if __name__ == "__main__":
    sys.exit(echo() if sys.argv[1:] == ["--echo"] else helper())
