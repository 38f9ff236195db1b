"""Small shared utilities used across the library."""

from repro.util.bytesbuf import ByteBuffer
from repro.util.framing import read_exact, write_frame
from repro.util.naming import monotonic_name

__all__ = [
    "ByteBuffer",
    "read_exact",
    "write_frame",
    "monotonic_name",
]
